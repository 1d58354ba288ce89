(** A standalone evaluator for optimized IR graphs, for tests and tools.

    Each IR operation costs roughly one cycle in the cost model (plus
    operation-specific costs), compared to the interpreter's per-bytecode
    dispatch overhead — this is what makes removed allocations, loads and
    monitor operations visible in the iterations/minute metric. The VM
    executes compiled graphs on the {!Closure_compile} tier; this
    evaluator is the cost-model reference that tier is differentially
    tested against, graph by graph. *)

open Pea_ir
open Pea_rt

(** Raised when execution reaches a [Deopt] terminator (here and in
    {!Closure_compile}). Carries the deopt record (frame state plus
    pruned-branch provenance) and a register-lookup function for the
    values it references. *)
exception Deoptimize of Graph.deopt * (Node.node_id -> Value.value)

(** [const_value c] converts a compile-time constant to a runtime value
    ([Cundef] becomes [null]). *)
val const_value : Node.const -> Value.value

(** A graph plus phi-routing tables resolved once per compilation: for
    every [(predecessor, block)] edge the positional predecessor index and
    the per-phi input ids are precomputed, so block entry does no linear
    predecessor search. *)
type prepared

(** [prepare g] resolves the routing tables for [g]. Call once per
    compiled graph; the result is valid as long as [g] is not mutated. *)
val prepare : Graph.t -> prepared

(** [site_tables g] computes bytecode-site attribution tables shared by
    this evaluator, the closure tier and the profilers: per node id the
    nearest enclosing [(method id, bci)] — from the node's own frame state
    (innermost frame) or the last state seen earlier in its block — and
    per block id a representative entry bci for safepoint samples.
    [(-1, -1)] / [-1] where the graph carries no frame states. *)
val site_tables : Graph.t -> (int * int) array * int array

(** [run env g args] executes [g] from its entry block.
    @raise Deoptimize at [Deopt] terminators.
    @raise Interp.Trap on runtime faults. *)
val run : Interp.env -> Graph.t -> Value.value list -> Value.value option

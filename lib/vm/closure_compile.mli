(** The closure execution tier, the VM's only compiled executor: one-time
    translation of an optimized IR graph into a tree of OCaml closures.

    Compared to walking the graph ({!Ir_exec}) this removes the
    per-operation [Node.op] dispatch, phi routing on block entry and
    per-call register-file allocation: every instruction becomes a pre-bound
    closure, every block a fused closure chain, every [(pred, block)] edge
    a precomputed parallel phi move, every virtual call site a monomorphic
    inline cache, and frames are pooled across invocations.

    Frames are typed: each node gets one slot, either in an unboxed int
    file (ints, and booleans as 0/1) or in a [Value.value] ref file,
    according to a kind inferred at translation. Int and Bool values are
    boxed only where they leave the frame — stores, call arguments,
    [Return], [Print], allocation field values, Ref phis and the deopt
    lookup — so int-only paths allocate nothing. Deopt still sees every
    node as a [Value.value]: the lookup boxes Int to [Vint] and Bool to
    [Vbool], exactly the values {!Ir_exec} holds.

    Cost accounting ({!Stats.cycles}, {!Stats.compiled_ops}) is
    bit-for-bit identical to the {!Ir_exec} reference, charged straight
    into the live {!Stats.cells} — inline caches, typed frames and
    pooling are wall-clock optimizations only and charge no model
    cycles. *)

open Pea_ir
open Pea_rt

type code

(** [compile env g] translates [g] into closure form. [env] is captured:
    heap, globals, statics, the invoke/print hooks, and the interpreter's
    receiver profile (used to seed the inline caches). The result is valid
    as long as [g]'s compiled code is; the VM discards it on
    deoptimization. *)
val compile : Interp.env -> Graph.t -> code

(** [run ?deopt code args] executes one invocation, using a pooled
    frame. Arguments of [int]/[boolean] parameters are unboxed into the
    int file on entry (OSR entries keep every local boxed: a local may
    still be [null]). The frame is returned to the pool on normal return
    and on {!Interp.Mj_throw}. At a [Deopt] terminator, [deopt] (if given)
    is invoked in-frame with the deopt record and a boxing register
    lookup; the frame is released once it finishes, so the pool depth
    recovers. Without [deopt] the {!Ir_exec.Deoptimize} exception
    propagates and the frame leaks with its lookup closure.
    @raise Ir_exec.Deoptimize at [Deopt] terminators when [deopt] is absent.
    @raise Interp.Trap on runtime faults. *)
val run :
  ?deopt:(Pea_ir.Graph.deopt -> (Pea_ir.Node.node_id -> Value.value) -> Value.value option) ->
  code ->
  Value.value list ->
  Value.value option

(** Number of free frames currently pooled (for tests). *)
val pool_depth : code -> int

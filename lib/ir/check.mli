(** IR well-formedness checker. The JIT runs it after every pipeline
    stage whenever [Jit.config.verify] is set, which it is by default:
    six times per production compile. On a well-formed graph it allocates
    little and formats no message. It checks that:

    - every operand of a reachable instruction is defined in a reachable
      block or is a parameter;
    - phi arity equals predecessor count; phis appear only in merge/loop
      blocks;
    - terminator targets exist and predecessor/successor lists agree;
    - invokes carry frame states (other side-effecting nodes may lose
      theirs when escape analysis re-emits them during materialization);
    - every use of a value is dominated by its definition (instruction
      operands, frame states, terminators; phi inputs are checked at the
      end of the corresponding predecessor), via {!Dominators};
    - every [F_virtual] reference in a frame-state chain has a matching
      virtual-object descriptor somewhere in that chain, so
      deoptimization can rematerialize it;
    - OSR-entry graphs ([g_osr_entry = Some _]) carry a complete
      live-local transfer map: one [Param] per interpreter local slot,
      no slot transferred twice, entry bci inside the method. *)

type error = string

(** Where each node id is defined: its block (parameters dominate every
    block) and its position there (phis at the top). *)
type def_sites

(** [def_sites g ~reachable] records the definitions of [g]'s parameters
    and of the phis and instructions of its [reachable] blocks. *)
val def_sites : Graph.t -> reachable:bool array -> def_sites

(** [is_defined s id] — is [id] defined (any id, in range or not)? *)
val is_defined : def_sites -> Node.node_id -> bool

(** [defined_before s doms def ~ub ~ui] — does the definition of the
    defined id [def] dominate position [ui] of block [ub]? Parameters
    dominate everything; [ui = max_int] stands for the block's end. *)
val defined_before : def_sites -> Dominators.t -> Node.node_id -> ub:int -> ui:int -> bool

(** [check g] returns all violations found (empty = well-formed).
    [require_frame_states] (default [true]) controls the invoke rule. *)
val check : ?require_frame_states:bool -> Graph.t -> error list

(** [check_exn g] raises [Failure] with a readable message listing every
    violation. *)
val check_exn : ?require_frame_states:bool -> Graph.t -> unit

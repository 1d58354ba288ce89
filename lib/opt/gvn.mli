(** Dominator-based global value numbering.

    Pure (and idempotently trapping) operations already available in a
    dominating block replace recomputations. Nothing is ever hoisted, so
    trapping operations (division, remainder, array length) are safe to
    number. Commutative operations are normalized by operand order. *)

open Pea_ir

(** [run ?summaries g] value-numbers [g] in place; returns [true] if
    anything was replaced. With interprocedural [summaries], calls that
    are provably pure, heap-independent and scalar-returning are numbered
    too: a dominated duplicate invocation with identical arguments is
    deleted and its uses rewired to the first call's result. *)
val run : ?summaries:Pea_analysis.Summary.t -> Graph.t -> bool

(** A value-numbering key: an operation kind and the resolved ids of its
    operands. Two nodes merge exactly when their keys are equal. *)
type key

(** [key_of_op resolve op] is [op]'s key with operands mapped through
    [resolve], or [None] when [op] is not value-numbered. Commutative
    operations (add, multiply, reference comparison) order their operands. *)
val key_of_op : (Node.node_id -> Node.node_id) -> Node.op -> key option

(** [key_of_invoke resolve summaries op] is the key of an invoke whose
    summary makes it mergeable, [None] for anything else. *)
val key_of_invoke :
  (Node.node_id -> Node.node_id) -> Pea_analysis.Summary.t option -> Node.op -> key option

(** Frame states: the mapping from optimized-code state back to
    interpreter (bytecode) state (§2 and §5.5 of the paper).

    A frame state describes the interpreter frame at a specific bytecode
    index: local variables, operand stack, and held locks. After inlining,
    a state carries an [fs_outer] chain describing caller frames. Partial
    escape analysis rewrites values that refer to scalar-replaced
    allocations into {!fs_value.F_virtual} references with a descriptor
    snapshot in [fs_virtuals]; deoptimization rematerializes them. *)

open Pea_bytecode

type node_id = int

type virt_id = int

(** Compile-time constants; {!Node.const} re-exports this type. *)
type const =
  | Cint of int
  | Cbool of bool
  | Cnull
  | Cundef

val string_of_const : const -> string

type fs_value =
  | F_node of node_id (* a value available in compiled code *)
  | F_virtual of virt_id (* a scalar-replaced allocation *)
  | F_const of const

type t = {
  fs_method : Classfile.rt_method;
  fs_bci : int; (* bytecode index at which the interpreter resumes *)
  fs_locals : fs_value array;
  fs_stack : fs_value list; (* top of stack first *)
  fs_locks : fs_value list; (* innermost lock first *)
  fs_outer : t option; (* caller frame after inlining *)
  fs_virtuals : (virt_id * virtual_desc) list;
      (* descriptors for every [F_virtual] reachable from this state *)
}

and virtual_desc = {
  vd_shape : shape;
  vd_fields : fs_value array; (* field values, or array elements *)
  vd_lock : int; (* lock depth to restore on rematerialization *)
}

(** A scalar-replaced allocation is an object (fields indexed by layout
    slot) or a fixed-length array (fields are the elements). *)
and shape =
  | Obj_shape of Classfile.rt_class
  | Arr_shape of Pea_mjava.Ast.ty

(** [map_values f fs] rewrites every value in the state, including outer
    frames and descriptor fields. Only what changes is rebuilt: when [f]
    returns every value physically unchanged ([==]) the result is [fs]
    itself, and otherwise each unchanged array, list, descriptor and
    outer frame is shared with [fs].

    Sharing is sound because states are values: nothing writes
    [fs_locals] or [vd_fields] in place. A pass that rewrites a state
    builds a new one (with [map_values] or a record copy) and never
    patches an array that another state may hold. *)
val map_values : (fs_value -> fs_value) -> t -> t

val iter_values : (fs_value -> unit) -> t -> unit

(** [exists_value p fs] — does some value of the state (in {!iter_values}
    order) satisfy [p]? Nothing is allocated. *)
val exists_value : (fs_value -> bool) -> t -> bool

(** [node_ids fs] — every node id mentioned anywhere in the state. *)
val node_ids : t -> node_id list

(** [depth fs] is the number of frames in the chain. *)
val depth : t -> int

val string_of_fs_value : fs_value -> string

val pp : Format.formatter -> t -> unit

(** Growable arrays.

    A thin, allocation-friendly dynamic array used throughout the IR for
    node and block tables. Indices are dense and stable: elements are only
    appended, never removed, so an index handed out once stays valid. *)

type 'a t

(** [create ()] is an empty dynamic array. *)
val create : unit -> 'a t

(** [make n x] is a dynamic array of length [n] filled with [x]. *)
val make : int -> 'a -> 'a t

(** [length t] is the number of elements currently stored. *)
val length : 'a t -> int

(** [get t i] is the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : 'a t -> int -> 'a

(** [set t i x] replaces the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [push t x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

(** [iter f t] applies [f] to every element in index order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f t] is [iter] with the index. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [fold_left f init t] folds over elements in index order. *)
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [to_list t] is the list of elements in index order. *)
val to_list : 'a t -> 'a list

(** [of_list xs] is a dynamic array holding [xs] in order. *)
val of_list : 'a list -> 'a t

(** [copy t] is an independent copy of [t]. *)
val copy : 'a t -> 'a t

(** [clear t] removes all elements (indices become invalid). *)
val clear : 'a t -> unit

(** [filter_in_place p t] keeps, in order, the elements that satisfy
    [p], calling [p] once per element in index order. *)
val filter_in_place : ('a -> bool) -> 'a t -> unit

(** [exists p t] is [true] iff some element satisfies [p]. *)
val exists : ('a -> bool) -> 'a t -> bool

(** [truncate t n] shrinks [t] to its first [n] elements.
    @raise Invalid_argument if [n] exceeds the current length. *)
val truncate : 'a t -> int -> unit

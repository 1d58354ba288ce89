(* Frame states: the mapping from optimized-code state back to interpreter
   (bytecode) state, §2 and §5.5 of the paper.

   A frame state describes the interpreter frame at a specific bytecode
   index: local variables, operand stack, and held locks. After inlining a
   state has an [fs_outer] chain describing the caller frames. Partial
   escape analysis rewrites values that refer to scalar-replaced
   allocations into [F_virtual] references, with a descriptor snapshot in
   [fs_virtuals]; deoptimization rematerializes them. *)

open Pea_bytecode

type node_id = int

type virt_id = int

(* Compile-time constants. Shared with {!Node} (which re-exports it). *)
type const =
  | Cint of int
  | Cbool of bool
  | Cnull
  | Cundef (* value of a local that is read before being written *)

let string_of_const = function
  | Cint n -> string_of_int n
  | Cbool b -> string_of_bool b
  | Cnull -> "null"
  | Cundef -> "undef"

type fs_value =
  | F_node of node_id (* a value available in compiled code *)
  | F_virtual of virt_id (* a scalar-replaced allocation *)
  | F_const of const (* a compile-time constant *)

type t = {
  fs_method : Classfile.rt_method;
  fs_bci : int; (* bytecode index at which the interpreter resumes *)
  fs_locals : fs_value array;
  fs_stack : fs_value list; (* top of stack first *)
  fs_locks : fs_value list; (* innermost lock first *)
  fs_outer : t option;
  fs_virtuals : (virt_id * virtual_desc) list;
      (* descriptors for every [F_virtual] reachable from this state,
         including through other descriptors *)
}

and virtual_desc = {
  vd_shape : shape;
  vd_fields : fs_value array; (* field values, or array elements *)
  vd_lock : int; (* lock depth to restore on rematerialization *)
}

(* A scalar-replaced allocation is either an object (fields are layout
   slots) or a fixed-length array (fields are elements). *)
and shape =
  | Obj_shape of Classfile.rt_class
  | Arr_shape of Pea_mjava.Ast.ty (* element type; length = #fields *)

(* [map_array f a] is [Array.map f a], except that it returns [a] itself
   when [f] returns every element physically unchanged. *)
let rec map_array_from f a i =
  if i = Array.length a then a
  else
    let x = a.(i) in
    let y = f x in
    if y == x then map_array_from f a (i + 1)
    else begin
      let b = Array.copy a in
      b.(i) <- y;
      for j = i + 1 to Array.length a - 1 do
        b.(j) <- f a.(j)
      done;
      b
    end

let map_array f a = map_array_from f a 0

(* [map_list f l] is [List.map f l] with the same sharing guarantee. *)
let rec map_list f l =
  match l with
  | [] -> l
  | x :: rest ->
      let y = f x in
      let rest' = map_list f rest in
      if y == x && rest' == rest then l else y :: rest'

(* Unchanged parts are shared with [fs], so two states may alias one
   array; this is sound because no code writes [fs_locals] or [vd_fields]
   in place (states are rebuilt, never patched). *)
let rec map_values f (fs : t) =
  let locals = map_array f fs.fs_locals in
  let stack = map_list f fs.fs_stack in
  let locks = map_list f fs.fs_locks in
  let outer =
    match fs.fs_outer with
    | None -> None
    | Some o ->
        let o' = map_values f o in
        if o' == o then fs.fs_outer else Some o'
  in
  let virtuals =
    match fs.fs_virtuals with
    | [] -> fs.fs_virtuals
    | vs ->
        map_list
          (fun ((id, vd) as entry) ->
            let fields = map_array f vd.vd_fields in
            if fields == vd.vd_fields then entry else (id, { vd with vd_fields = fields }))
          vs
  in
  if
    locals == fs.fs_locals && stack == fs.fs_stack && locks == fs.fs_locks
    && outer == fs.fs_outer && virtuals == fs.fs_virtuals
  then fs
  else
    {
      fs with
      fs_locals = locals;
      fs_stack = stack;
      fs_locks = locks;
      fs_outer = outer;
      fs_virtuals = virtuals;
    }

let rec iter_values f (fs : t) =
  Array.iter f fs.fs_locals;
  List.iter f fs.fs_stack;
  List.iter f fs.fs_locks;
  List.iter (fun (_, vd) -> Array.iter f vd.vd_fields) fs.fs_virtuals;
  Option.iter (iter_values f) fs.fs_outer

(* [exists_value p fs]: [iter_values] order, stopping at the first hit,
   without allocating. *)
let rec exists_in_list p = function [] -> false | v :: rest -> p v || exists_in_list p rest

let rec exists_in_array p a i = i < Array.length a && (p a.(i) || exists_in_array p a (i + 1))

let rec exists_in_virtuals p = function
  | [] -> false
  | (_, vd) :: rest -> exists_in_array p vd.vd_fields 0 || exists_in_virtuals p rest

let rec exists_value p (fs : t) =
  exists_in_array p fs.fs_locals 0
  || exists_in_list p fs.fs_stack
  || exists_in_list p fs.fs_locks
  || exists_in_virtuals p fs.fs_virtuals
  || match fs.fs_outer with Some o -> exists_value p o | None -> false

(* All node ids mentioned anywhere in the state. *)
let node_ids fs =
  let acc = ref [] in
  iter_values (function F_node n -> acc := n :: !acc | F_virtual _ | F_const _ -> ()) fs;
  !acc

let rec depth fs = match fs.fs_outer with None -> 1 | Some o -> 1 + depth o

let string_of_fs_value = function
  | F_node n -> Printf.sprintf "v%d" n
  | F_virtual v -> Printf.sprintf "virt%d" v
  | F_const c -> string_of_const c

let rec pp ppf fs =
  Fmt.pf ppf "@%s:%d locals=[%s] stack=[%s]%s%s"
    (Classfile.qualified_name fs.fs_method)
    fs.fs_bci
    (String.concat ", " (Array.to_list (Array.map string_of_fs_value fs.fs_locals)))
    (String.concat ", " (List.map string_of_fs_value fs.fs_stack))
    (match fs.fs_virtuals with
    | [] -> ""
    | vs ->
        " virtuals=["
        ^ String.concat ", "
            (List.map
               (fun (id, vd) ->
                 let shape_name =
                   match vd.vd_shape with
                   | Obj_shape c -> c.cls_name
                   | Arr_shape t -> Pea_mjava.Ast.string_of_ty t ^ "[]"
                 in
                 Printf.sprintf "virt%d:%s{%s}%s" id shape_name
                   (String.concat ","
                      (Array.to_list (Array.map string_of_fs_value vd.vd_fields)))
                   (if vd.vd_lock > 0 then Printf.sprintf "/lock%d" vd.vd_lock else ""))
               vs)
        ^ "]")
    (match fs.fs_outer with None -> "" | Some _ -> " outer=...");
  match fs.fs_outer with None -> () | Some o -> Fmt.pf ppf "@ <- %a" pp o

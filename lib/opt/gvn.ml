(* Dominator-based global value numbering for pure (and idempotently
   trapping) operations. Values available in a dominating block replace
   recomputations; nothing is ever hoisted, so trapping operations (Div,
   Rem) are safe to number as well. *)

open Pea_ir
open Pea_bytecode
module Summary = Pea_analysis.Summary

(* Keys must avoid structural equality over runtime-class records (they
   are cyclic), so they hold only ints: a tag naming the operation kind
   (one per constant, arithmetic, comparison and invoke kind) and operand
   ids, classes by [cls_id], methods by [mth_id]. *)
type tag =
  | T_int
  | T_bool
  | T_null
  | T_undef
  | T_add
  | T_sub
  | T_mul
  | T_div
  | T_rem
  | T_neg
  | T_not
  | T_lt
  | T_le
  | T_gt
  | T_ge
  | T_eq
  | T_ne
  | T_acmp_eq
  | T_acmp_ne
  | T_instance_of
  | T_has_class
  | T_array_length
  | T_invoke_virtual
  | T_invoke_static
  | T_invoke_special

type key =
  | K of tag * int * int
  | K_args of tag * int * int list (* invoke kind, method id, arguments *)

let arith_tag : Node.arith -> tag = function
  | Node.Add -> T_add
  | Node.Sub -> T_sub
  | Node.Mul -> T_mul
  | Node.Div -> T_div
  | Node.Rem -> T_rem

let cmp_tag : Classfile.cmp -> tag = function
  | Classfile.Clt -> T_lt
  | Classfile.Cle -> T_le
  | Classfile.Cgt -> T_gt
  | Classfile.Cge -> T_ge
  | Classfile.Ceq -> T_eq
  | Classfile.Cne -> T_ne

let key_of_op resolve (op : Node.op) : key option =
  let commutative2 tag a b =
    let a = resolve a and b = resolve b in
    Some (K (tag, min a b, max a b))
  in
  match op with
  | Node.Const (Node.Cint n) -> Some (K (T_int, n, 0))
  | Node.Const (Node.Cbool b) -> Some (K (T_bool, Bool.to_int b, 0))
  | Node.Const Node.Cnull -> Some (K (T_null, 0, 0))
  | Node.Const Node.Cundef -> Some (K (T_undef, 0, 0))
  | Node.Arith (((Node.Add | Node.Mul) as k), a, b) -> commutative2 (arith_tag k) a b
  | Node.Arith (k, a, b) -> Some (K (arith_tag k, resolve a, resolve b))
  | Node.Neg a -> Some (K (T_neg, resolve a, 0))
  | Node.Not a -> Some (K (T_not, resolve a, 0))
  | Node.Cmp (c, a, b) -> Some (K (cmp_tag c, resolve a, resolve b))
  | Node.RefCmp (Classfile.AEq, a, b) -> commutative2 T_acmp_eq a b
  | Node.RefCmp (Classfile.ANe, a, b) -> commutative2 T_acmp_ne a b
  | Node.Instance_of (a, cls) -> Some (K (T_instance_of, resolve a, cls.cls_id))
  | Node.Has_class (a, cls) -> Some (K (T_has_class, resolve a, cls.cls_id))
  | Node.Array_length a -> Some (K (T_array_length, resolve a, 0))
  | Node.Param _ | Node.Phi _ | Node.New _ | Node.Alloc _ | Node.Alloc_array _ | Node.New_array _
  | Node.Stack_alloc _ | Node.Stack_alloc_array _
  | Node.Load_field _ | Node.Store_field _ | Node.Load_static _ | Node.Store_static _
  | Node.Array_load _ | Node.Array_store _ | Node.Monitor_enter _ | Node.Monitor_exit _
  | Node.Invoke _ | Node.Check_cast _ | Node.Null_check _ | Node.Print _ ->
      None

(* Calls whose summary proves them pure, heap-independent and
   scalar-returning compute the same value for the same arguments and have
   no observable effects, so a dominated duplicate can be value-numbered
   like a pure node. The duplicate must then be removed physically:
   [Cfg_utils.cleanup] only drops [is_pure] nodes. *)
let key_of_invoke resolve summaries (op : Node.op) : key option =
  match (op, summaries) with
  | Node.Invoke (k, m, args), Some t ->
      let cs = Summary.call_summary t k m in
      if Summary.mergeable_call cs m then
        let tag =
          match k with
          | Node.Virtual -> T_invoke_virtual
          | Node.Static -> T_invoke_static
          | Node.Special -> T_invoke_special
        in
        Some (K_args (tag, m.mth_id, Array.fold_right (fun a acc -> resolve a :: acc) args []))
      else None
  | _ -> None

let run ?summaries (g : Graph.t) =
  let doms = Dominators.compute g in
  let kids = Dominators.children doms (Graph.n_blocks g) in
  let table : (key, Node.node_id) Hashtbl.t = Hashtbl.create 64 in
  let subst : (Node.node_id, Node.node_id) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve id =
    match Hashtbl.find_opt subst id with Some v when v <> id -> resolve v | _ -> id
  in
  let changed = ref false in
  let removed_invokes : (Node.node_id, unit) Hashtbl.t = Hashtbl.create 4 in
  let rec walk block_id =
    let b = Graph.block g block_id in
    let added = ref [] in
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        if not (Hashtbl.mem subst n.Node.id) then
          let key =
            match key_of_op resolve n.Node.op with
            | Some _ as k -> k
            | None -> key_of_invoke resolve summaries n.Node.op
          in
          match key with
          | Some key -> (
              match Hashtbl.find_opt table key with
              | Some existing ->
                  Hashtbl.replace subst n.Node.id existing;
                  (match n.Node.op with
                  | Node.Invoke _ -> Hashtbl.replace removed_invokes n.Node.id ()
                  | _ -> ());
                  changed := true
              | None ->
                  Hashtbl.add table key n.Node.id;
                  added := key :: !added)
          | None -> ())
      b.Graph.instrs;
    List.iter walk kids.(block_id);
    List.iter (fun key -> Hashtbl.remove table key) !added
  in
  walk Graph.entry_id;
  if Hashtbl.length removed_invokes > 0 then
    Graph.iter_blocks
      (fun b ->
        Pea_support.Dyn_array.filter_in_place
          (fun (n : Node.t) -> not (Hashtbl.mem removed_invokes n.Node.id))
          b.Graph.instrs)
      g;
  Hashtbl.iter (fun id () -> Graph.delete_node g id) removed_invokes;
  if !changed then begin
    Graph.substitute_uses g resolve;
    Cfg_utils.cleanup g
  end;
  !changed

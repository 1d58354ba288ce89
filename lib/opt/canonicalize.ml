(* Canonicalization: local strength reduction, constant folding, and
   constant-condition branch folding, iterated with CFG cleanup until a
   fixpoint. PEA benefits from running this before and after the analysis
   (the paper stresses the interaction with constant folding and global
   value numbering, §5). *)

open Pea_ir
open Pea_bytecode

let fold_arith (k : Node.arith) a b =
  match k with
  | Node.Add -> Some (a + b)
  | Node.Sub -> Some (a - b)
  | Node.Mul -> Some (a * b)
  | Node.Div -> if b = 0 then None else Some (a / b)
  | Node.Rem -> if b = 0 then None else Some (a mod b)

let fold_cmp (c : Classfile.cmp) a b =
  match c with
  | Classfile.Clt -> a < b
  | Classfile.Cle -> a <= b
  | Classfile.Cgt -> a > b
  | Classfile.Cge -> a >= b
  | Classfile.Ceq -> a = b
  | Classfile.Cne -> a <> b

type rewrite =
  | New_op of Node.op (* replace the node's operation *)
  | Alias of Node.node_id (* the node is equivalent to an existing value *)

(* One local rewrite step for a node; [const_of] looks through operands. *)
let simplify_op (const_of : Node.node_id -> Node.const option) (op : Node.op) : rewrite option =
  let int_of id = match const_of id with Some (Node.Cint n) -> Some n | _ -> None in
  let bool_of id = match const_of id with Some (Node.Cbool b) -> Some b | _ -> None in
  let is_null id = const_of id = Some Node.Cnull in
  match op with
  | Node.Arith (k, a, b) -> (
      match int_of a, int_of b, k with
      | Some x, Some y, _ ->
          Option.map (fun r -> New_op (Node.Const (Node.Cint r))) (fold_arith k x y)
      | _, Some 0, (Node.Add | Node.Sub) -> Some (Alias a)
      | Some 0, _, Node.Add -> Some (Alias b)
      | _, Some 1, (Node.Mul | Node.Div) -> Some (Alias a)
      | Some 1, _, Node.Mul -> Some (Alias b)
      | _, Some 0, Node.Mul | Some 0, _, Node.Mul -> Some (New_op (Node.Const (Node.Cint 0)))
      | _ -> None)
  | Node.Neg a -> (
      match int_of a with Some x -> Some (New_op (Node.Const (Node.Cint (-x)))) | None -> None)
  | Node.Not a -> (
      match bool_of a with
      | Some x -> Some (New_op (Node.Const (Node.Cbool (not x))))
      | None -> None)
  | Node.Cmp (c, a, b) -> (
      match int_of a, int_of b with
      | Some x, Some y -> Some (New_op (Node.Const (Node.Cbool (fold_cmp c x y))))
      | _ ->
          if a = b then
            (* x ? x is decidable for every comparison *)
            let r =
              match c with
              | Classfile.Cle | Classfile.Cge | Classfile.Ceq -> true
              | Classfile.Clt | Classfile.Cgt | Classfile.Cne -> false
            in
            Some (New_op (Node.Const (Node.Cbool r)))
          else None)
  | Node.RefCmp (c, a, b) ->
      let eq_result eq =
        Some
          (New_op
             (Node.Const (Node.Cbool (match c with Classfile.AEq -> eq | Classfile.ANe -> not eq))))
      in
      if a = b then eq_result true
      else if is_null a && is_null b then eq_result true
      else None
  | Node.Has_class (a, _) ->
      (* null never has a class; non-null operands need the runtime test *)
      if is_null a then Some (New_op (Node.Const (Node.Cbool false))) else None
  | Node.Const _ | Node.Param _ | Node.Phi _ | Node.New _ | Node.Alloc _ | Node.Alloc_array _
  | Node.New_array _ | Node.Stack_alloc _ | Node.Stack_alloc_array _
  | Node.Load_field _ | Node.Store_field _ | Node.Load_static _ | Node.Store_static _
  | Node.Array_load _ | Node.Array_store _ | Node.Array_length _ | Node.Monitor_enter _
  | Node.Monitor_exit _ | Node.Invoke _ | Node.Instance_of _ | Node.Check_cast _
  | Node.Null_check _ | Node.Print _ ->
      None

let run (g : Graph.t) =
  let changed_any = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let reachable = Graph.reachable g in
    let const_of id =
      match Graph.op_of g id with Node.Const c -> Some c | _ -> None
    in
    (* 1. local folds *)
    let aliases = Hashtbl.create 8 in
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) then
          Pea_support.Dyn_array.iter
            (fun (n : Node.t) ->
              match simplify_op const_of n.Node.op with
              | Some (New_op op') ->
                  n.Node.op <- op';
                  n.Node.fs <- None;
                  continue_ := true
              | Some (Alias v) ->
                  Hashtbl.replace aliases n.Node.id v;
                  continue_ := true
              | None -> ())
            b.Graph.instrs)
      g;
    if Hashtbl.length aliases > 0 then begin
      let rec resolve id =
        match Hashtbl.find_opt aliases id with Some v when v <> id -> resolve v | _ -> id
      in
      Graph.substitute_uses g resolve;
      (* Physically remove the aliased nodes: DCE only sweeps pure nodes,
         but e.g. a division by a constant 1 is non-pure yet safe to drop
         once all uses are redirected. *)
      Graph.iter_blocks
        (fun b ->
          Pea_support.Dyn_array.filter_in_place
            (fun (n : Node.t) ->
              if Hashtbl.mem aliases n.Node.id then begin
                Graph.delete_node g n.Node.id;
                false
              end
              else true)
            b.Graph.instrs)
        g
    end;
    (* 2. fold If with constant conditions *)
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) then
          match b.Graph.term with
          | Graph.If { cond; tru; fls; _ } -> (
              match const_of cond with
              | Some (Node.Cbool take_true) ->
                  let taken, dropped = if take_true then (tru, fls) else (fls, tru) in
                  b.Graph.term <- Graph.Goto taken;
                  if dropped <> taken then Cfg_utils.remove_edge g ~src:b.Graph.b_id ~target:dropped
                  else
                    (* both targets equal: one pred entry goes away *)
                    Cfg_utils.remove_edge g ~src:b.Graph.b_id ~target:dropped;
                  continue_ := true
              | _ -> ())
          | Graph.Goto _ | Graph.Return _ | Graph.Deopt _ | Graph.Trap _ | Graph.Unreachable ->
              ())
      g;
    if !continue_ then begin
      changed_any := true;
      Cfg_utils.cleanup g
    end
  done;
  (* final cleanup even when nothing folded, to normalize the graph *)
  Cfg_utils.cleanup g;
  !changed_any

open Pea_ir
open Pea_bytecode

(* Walk the dominator tree carrying two kinds of facts established by
   dominating guards, SkipFlow-style:

   - conditions with known truth values: a fact [cond -> b] is established
     when entering a block whose only predecessor is an [If] on [cond] and
     which is exactly one of its successors (critical-edge splitting makes
     this the common shape);
   - exact receiver classes proven by a taken [Has_class] guard
     ([value -> rt_class]). Predicates recorded at the guard flow down the
     dominator tree and fold the redundant type and null checks a
     speculatively inlined body re-executes, so chained guards collapse
     into the dominating one. *)
let run (g : Graph.t) =
  let changed = ref false in
  let doms = Dominators.compute g in
  let kids = Dominators.children doms (Graph.n_blocks g) in
  let facts : (Node.node_id, bool) Hashtbl.t = Hashtbl.create 16 in
  let class_facts : (Node.node_id, Classfile.rt_class) Hashtbl.t = Hashtbl.create 16 in
  let fact_at_entry bid =
    let b = Graph.block g bid in
    match b.Graph.preds with
    | [ p ] -> (
        match (Graph.block g p).Graph.term with
        | Graph.If { cond; tru; fls; _ } when tru <> fls ->
            if tru = bid then Some (cond, true)
            else if fls = bid then Some (cond, false)
            else None
        | _ -> None)
    | _ -> None
  in
  let rec walk bid =
    let added_here =
      match fact_at_entry bid with
      | Some (c, v) when not (Hashtbl.mem facts c) ->
          Hashtbl.add facts c v;
          Some (c, v)
      | _ -> None
    in
    (* a taken Has_class guard proves the exact class of its operand on the
       dominated side of the branch *)
    let added_class =
      match added_here with
      | Some (c, true) -> (
          match Graph.op_of g c with
          | Node.Has_class (x, cls) when not (Hashtbl.mem class_facts x) ->
              Hashtbl.add class_facts x cls;
              Some x
          | _ -> None)
      | _ -> None
    in
    let b = Graph.block g bid in
    (* fold dominated type and null checks against the recorded predicates *)
    if Hashtbl.length class_facts > 0 then begin
      Pea_support.Dyn_array.filter_in_place
        (fun (n : Node.t) ->
          match n.Node.op with
          | Node.Has_class (x, cls) -> (
              match Hashtbl.find_opt class_facts x with
              | Some known ->
                  n.Node.op <-
                    Node.Const (Node.Cbool (known.Classfile.cls_id = cls.Classfile.cls_id));
                  changed := true;
                  true
              | None -> true)
          | Node.Instance_of (x, cls) -> (
              match Hashtbl.find_opt class_facts x with
              | Some known ->
                  n.Node.op <-
                    Node.Const (Node.Cbool (Classfile.is_subclass ~cls:known ~anc:cls));
                  changed := true;
                  true
              | None -> true)
          | Node.Null_check x ->
              (* an exact-class fact proves the value is a real object *)
              if Hashtbl.mem class_facts x then begin
                Graph.delete_node g n.Node.id;
                changed := true;
                false
              end
              else true
          | _ -> true)
        b.Graph.instrs
    end;
    (match b.Graph.term with
    | Graph.If { cond; tru; fls; _ } when tru <> fls -> (
        let truth =
          match Hashtbl.find_opt facts cond with
          | Some _ as t -> t
          | None -> (
              (* a guard folded to a constant above decides its branch in
                 the same pass *)
              match Graph.op_of g cond with
              | Node.Const (Node.Cbool t) -> Some t
              | _ -> None)
        in
        match truth with
        | Some truth ->
            let taken, dropped = if truth then (tru, fls) else (fls, tru) in
            b.Graph.term <- Graph.Goto taken;
            Cfg_utils.remove_edge g ~src:bid ~target:dropped;
            changed := true
        | None -> ())
    | _ -> ());
    List.iter walk kids.(bid);
    Option.iter (fun (c, _) -> Hashtbl.remove facts c) added_here;
    Option.iter (Hashtbl.remove class_facts) added_class
  in
  walk Graph.entry_id;
  if !changed then Cfg_utils.cleanup g;
  !changed

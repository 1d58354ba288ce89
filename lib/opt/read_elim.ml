open Pea_ir
open Pea_bytecode
module Summary = Pea_analysis.Summary

(* Remembered memory contents within one block. Keys use node ids (SSA
   values), so equality is identity of the address computation. *)
type tables = {
  mutable fields : ((Node.node_id * int) * Node.node_id) list; (* (receiver, offset) -> value *)
  mutable statics : (int * Node.node_id) list; (* static index -> value *)
  mutable arrays : ((Node.node_id * Node.node_id) * Node.node_id) list; (* (array, index) -> value *)
}

let kill_everything t =
  t.fields <- [];
  t.statics <- [];
  t.arrays <- []

let run ?summaries (g : Graph.t) =
  let changed = ref false in
  let subst : (Node.node_id, Node.node_id) Hashtbl.t = Hashtbl.create 16 in
  let reachable = Graph.reachable g in
  let rec resolve id =
    match Hashtbl.find_opt subst id with Some v when v <> id -> resolve v | _ -> id
  in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        let t = { fields = []; statics = []; arrays = [] } in
        Pea_support.Dyn_array.filter_in_place
          (fun (n : Node.t) ->
            match n.Node.op with
            | Node.Load_field (o, f) -> (
                let key = (resolve o, f.Classfile.fld_offset) in
                match List.assoc_opt key t.fields with
                | Some v ->
                    Hashtbl.replace subst n.Node.id v;
                    changed := true;
                    Graph.delete_node g n.Node.id;
                    false
                | None ->
                    t.fields <- (key, n.Node.id) :: t.fields;
                    true)
            | Node.Store_field (o, f, v) ->
                let key = (resolve o, f.Classfile.fld_offset) in
                let v = resolve v in
                if List.assoc_opt key t.fields = Some v then begin
                  (* the slot already holds this value: redundant store *)
                  changed := true;
                  Graph.delete_node g n.Node.id;
                  false
                end
                else begin
                  (* a store to offset [k] may alias the same field of any
                     other object: kill all remembered values at that
                     offset, then remember the new one *)
                  t.fields <-
                    (key, v)
                    :: List.filter (fun ((_, off), _) -> off <> f.Classfile.fld_offset) t.fields;
                  true
                end
            | Node.Load_static sf -> (
                match List.assoc_opt sf.Classfile.sf_index t.statics with
                | Some v ->
                    Hashtbl.replace subst n.Node.id v;
                    changed := true;
                    Graph.delete_node g n.Node.id;
                    false
                | None ->
                    t.statics <- (sf.Classfile.sf_index, n.Node.id) :: t.statics;
                    true)
            | Node.Store_static (sf, v) ->
                let v = resolve v in
                if List.assoc_opt sf.Classfile.sf_index t.statics = Some v then begin
                  changed := true;
                  Graph.delete_node g n.Node.id;
                  false
                end
                else begin
                  t.statics <-
                    (sf.Classfile.sf_index, v)
                    :: List.remove_assoc sf.Classfile.sf_index t.statics;
                  true
                end
            | Node.Array_load (a, i) -> (
                let key = (resolve a, resolve i) in
                match List.assoc_opt key t.arrays with
                | Some v ->
                    Hashtbl.replace subst n.Node.id v;
                    changed := true;
                    Graph.delete_node g n.Node.id;
                    false
                | None ->
                    t.arrays <- (key, n.Node.id) :: t.arrays;
                    true)
            | Node.Array_store (a, i, v) ->
                (* any array store may alias any remembered element *)
                t.arrays <- [ ((resolve a, resolve i), resolve v) ];
                ignore v;
                true
            | Node.Invoke (k, m, _) ->
                (* calls may write anything — unless the callee's summary
                   proves it pure (no caller-visible writes), in which
                   case every remembered value survives the call *)
                (match summaries with
                | Some tbl when (Summary.call_summary tbl k m).Summary.s_pure -> ()
                | _ -> kill_everything t);
                true
            | Node.Monitor_enter _ | Node.Monitor_exit _ ->
                (* monitors order memory *)
                kill_everything t;
                true
            | Node.Const _ | Node.Param _ | Node.Phi _ | Node.Arith _ | Node.Neg _
            | Node.Not _ | Node.Cmp _ | Node.RefCmp _ | Node.New _ | Node.Alloc _
            | Node.Alloc_array _ | Node.New_array _ | Node.Stack_alloc _
            | Node.Stack_alloc_array _ | Node.Array_length _
            | Node.Instance_of _ | Node.Has_class _ | Node.Check_cast _ | Node.Null_check _
            | Node.Print _ ->
                true)
          b.Graph.instrs
      end)
    g;
  if !changed then begin
    Graph.substitute_uses g resolve;
    Cfg_utils.cleanup g
  end;
  !changed

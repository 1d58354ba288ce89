(* Dominator computation using the Cooper–Harvey–Kennedy iterative
   algorithm. Used by dominator-based value numbering, conditional
   elimination, block-kind recomputation, and by the IR checker and the
   speculation-safety verifier, which the JIT runs on every compile. *)

type t = {
  idom : int array; (* immediate dominator per block id; entry maps to itself; -1 unreachable *)
  rpo_index : int array; (* position of each block in reverse postorder; -1 unreachable *)
}

let compute (g : Graph.t) : t =
  let n = Graph.n_blocks g in
  let rpo = Graph.reverse_postorder g in
  let rpo_arr = Array.of_list rpo in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo_arr;
  let idom = Array.make n (-1) in
  idom.(Graph.entry_id) <- Graph.entry_id;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  (* fold [intersect] over the reachable, already processed preds; -1
     while there is none *)
  let meet acc p =
    if rpo_index.(p) < 0 || idom.(p) < 0 then acc else if acc < 0 then p else intersect acc p
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> Graph.entry_id then begin
          let new_idom = List.fold_left meet (-1) (Graph.block g b).Graph.preds in
          if new_idom >= 0 && idom.(b) <> new_idom then begin
            idom.(b) <- new_idom;
            changed := true
          end
        end)
      rpo_arr
  done;
  { idom; rpo_index }

let idom t b = if b = Graph.entry_id then None else if t.idom.(b) < 0 then None else Some t.idom.(b)

(* [dominates t a b] — does block [a] dominate block [b]? *)
let dominates t a b =
  let rec walk b = if b = a then true else if b = Graph.entry_id || t.idom.(b) < 0 then false else walk t.idom.(b) in
  walk b

(* Children lists of the dominator tree, for tree walks. *)
let children t n_blocks =
  let kids = Array.make n_blocks [] in
  Array.iteri
    (fun b d -> if b <> Graph.entry_id && d >= 0 then kids.(d) <- b :: kids.(d))
    t.idom;
  kids

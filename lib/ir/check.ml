(* IR well-formedness checker. [Jit.compile] runs it after every pipeline
   stage when [Jit.config.verify] is set, which it is by default, so it
   runs several times per production compile; the tests run it too:

   - every operand of a reachable instruction (phi inputs, terminators
     and frame states included) is defined by a param or in a reachable
     block;
   - phi arity equals predecessor count, phis only in merge/loop blocks;
   - terminator targets are valid blocks and preds/succs are mutually
     consistent;
   - invokes carry frame states;
   - every use is dominated by its definition (via {!Dominators});
   - every F_virtual in a frame-state chain has a descriptor in it;
   - OSR graphs carry a complete live-local transfer map.

   On a well-formed graph the checker allocates little: the success path
   tests each use with allocation-free predicates, and the message for an
   error, with its description of the using site, is formatted only when
   one is reported. A state with some bad value is re-walked in
   {!Frame_state.node_ids} order to report each bad value in turn. *)

type error = string

(* Where each node id is defined: [def_block.(id)] is the defining block
   ([-1] for a parameter), [def_index.(id)] the instruction index ([-1]
   for a phi). Ids that no reachable block defines, and ids outside the
   table, are undefined. *)
type def_sites = {
  def_block : int array;
  def_index : int array;
}

let undefined = -2

let def_sites (g : Graph.t) ~reachable =
  let iter_defs f =
    List.iter (fun (p : Node.t) -> f p (-1) 0) g.Graph.params;
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) then begin
          List.iter (fun n -> f n b.Graph.b_id (-1)) b.Graph.phis;
          Pea_support.Dyn_array.iteri (fun i n -> f n b.Graph.b_id i) b.Graph.instrs
        end)
      g
  in
  (* ids come from the node table, but a corrupted graph may hold more *)
  let size = ref (Graph.n_nodes g) in
  iter_defs (fun (n : Node.t) _ _ -> if n.Node.id >= !size then size := n.Node.id + 1);
  let s = { def_block = Array.make !size undefined; def_index = Array.make !size 0 } in
  iter_defs (fun (n : Node.t) b i ->
      s.def_block.(n.Node.id) <- b;
      s.def_index.(n.Node.id) <- i);
  s

let is_defined s id = id >= 0 && id < Array.length s.def_block && s.def_block.(id) <> undefined

let defined_before s doms def ~ub ~ui =
  let db = s.def_block.(def) in
  if db = -1 then true
  else if db = ub then s.def_index.(def) < ui
  else Dominators.dominates doms db ub

(* The using site named in an error: a kind plus one or two numbers, so
   the success path builds no description. *)
type user =
  | Phi_input (* phi [a]; input [b] in dominance errors *)
  | Instr (* instruction [a] *)
  | State (* frame state of instruction [a] *)
  | Terminator (* terminator of block [a] *)
  | Deopt_state (* deopt state of block [a] *)

let describe user a b =
  match user with
  | Phi_input ->
      if b < 0 then Printf.sprintf "phi v%d" a else Printf.sprintf "phi v%d (input %d)" a b
  | Instr -> Printf.sprintf "v%d" a
  | State -> Printf.sprintf "frame state of v%d" a
  | Terminator -> Printf.sprintf "terminator of B%d" a
  | Deopt_state -> Printf.sprintf "deopt state of B%d" a

(* Is virtual object [vid] described somewhere in the chain of [fs]? *)
let rec declares (fs : Frame_state.t) vid =
  List.mem_assoc vid fs.Frame_state.fs_virtuals
  || match fs.Frame_state.fs_outer with Some o -> declares o vid | None -> false

let is_virtual = function Frame_state.F_virtual _ -> true | F_node _ | F_const _ -> false

let check ?(require_frame_states = true) (g : Graph.t) : error list =
  let errors = ref [] in
  let add fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let reachable = Graph.reachable g in
  let n_blocks = Graph.n_blocks g in
  let sites = def_sites g ~reachable in
  let undefined_id id = not (is_defined sites id) in
  let undefined_value = function
    | Frame_state.F_node n -> undefined_id n
    | Frame_state.F_virtual _ | Frame_state.F_const _ -> false
  in
  let check_operand user a id =
    if undefined_id id then
      add "v%d used by %s but not defined in any reachable block" id (describe user a (-1))
  in
  let check_operands user a op =
    if Node.exists_operand undefined_id op then Node.iter_operands (check_operand user a) op
  in
  let check_fs_operands user a fs =
    if Frame_state.exists_value undefined_value fs then
      List.iter (check_operand user a) (Frame_state.node_ids fs)
  in
  let check_succ bid s =
    if s < 0 || s >= n_blocks then add "B%d jumps to nonexistent block B%d" bid s
    else if not (List.mem bid (Graph.block g s).Graph.preds) then
      add "B%d jumps to B%d but is not in its predecessor list" bid s
  in
  let rec check_phis bid n_preds = function
    | [] -> ()
    | (phi : Node.t) :: rest ->
        (match phi.Node.op with
        | Node.Phi p ->
            if Array.length p.Node.inputs <> n_preds then
              add "phi v%d in B%d has %d inputs but the block has %d predecessors" phi.Node.id bid
                (Array.length p.Node.inputs) n_preds;
            check_operands Phi_input phi.Node.id phi.Node.op
        | _ -> add "non-phi node v%d in the phi list of B%d" phi.Node.id bid);
        check_phis bid n_preds rest
  in
  let check_instr bid (n : Node.t) =
    (match n.Node.op with
    | Node.Phi _ -> add "phi v%d appears in the instruction list of B%d" n.Node.id bid
    | _ -> ());
    check_operands Instr n.Node.id n.Node.op;
    (* Invokes must always carry a state (deoptimization inside the
       callee needs the caller frame); other side-effecting nodes may
       lose theirs when escape analysis re-emits them during
       materialization. *)
    match (n.Node.op, n.Node.fs) with
    | Node.Invoke _, None when require_frame_states ->
        add "invoke v%d in B%d has no frame state" n.Node.id bid
    | _, None -> ()
    | _, Some fs -> check_fs_operands State n.Node.id fs
  in
  Graph.iter_blocks
    (fun b ->
      let bid = b.Graph.b_id in
      if reachable.(bid) then begin
        check_phis bid (List.length b.Graph.preds) b.Graph.phis;
        if b.Graph.phis <> [] && b.Graph.kind = Graph.Plain then
          add "plain block B%d has phis" bid;
        for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
          check_instr bid (Pea_support.Dyn_array.get b.Graph.instrs i)
        done;
        match b.Graph.term with
        | Graph.Unreachable -> add "reachable block B%d has an Unreachable terminator" bid
        | Graph.Goto s -> check_succ bid s
        | Graph.If { cond; tru; fls; _ } ->
            check_operand Terminator bid cond;
            check_succ bid tru;
            check_succ bid fls
        | Graph.Return (Some v) -> check_operand Terminator bid v
        | Graph.Deopt { d_state = fs; _ } -> check_fs_operands Deopt_state bid fs
        | Graph.Return None | Graph.Trap _ -> ()
      end)
    g;
  (* --- dominance: every use is dominated by its definition ------------ *)
  let doms = Dominators.compute g in
  (* the position of the use being checked, read by the predicates below
     so they need not be rebuilt per use *)
  let use_block = ref 0 and use_index = ref 0 in
  let dominated_use def ~ub ~ui =
    (* undefined operands are already reported above *)
    undefined_id def || defined_before sites doms def ~ub ~ui
  in
  let undominated_id def = not (dominated_use def ~ub:!use_block ~ui:!use_index) in
  let undominated_value = function
    | Frame_state.F_node n -> undominated_id n
    | Frame_state.F_virtual _ | Frame_state.F_const _ -> false
  in
  let check_dom user a b def ~ub ~ui =
    if not (dominated_use def ~ub ~ui) then
      add "v%d used by %s in B%d is not dominated by its definition" def (describe user a b) ub
  in
  let at ub ui =
    use_block := ub;
    use_index := ui
  in
  let check_dom_operands user a op ~ub ~ui =
    at ub ui;
    if Node.exists_operand undominated_id op then
      Node.iter_operands (fun o -> check_dom user a (-1) o ~ub ~ui) op
  in
  let check_dom_fs user a fs ~ub ~ui =
    at ub ui;
    if Frame_state.exists_value undominated_value fs then
      List.iter (fun o -> check_dom user a (-1) o ~ub ~ui) (Frame_state.node_ids fs)
  in
  (* a phi use happens at the end of the corresponding predecessor *)
  let rec check_phi_inputs (phi : Node.t) (inputs : Node.node_id array) i = function
    | [] -> ()
    | pred :: rest ->
        if i < Array.length inputs then
          check_dom Phi_input phi.Node.id i inputs.(i) ~ub:pred ~ui:max_int;
        check_phi_inputs phi inputs (i + 1) rest
  in
  let rec check_dom_phis preds = function
    | [] -> ()
    | (phi : Node.t) :: rest ->
        (match phi.Node.op with
        | Node.Phi p -> check_phi_inputs phi p.Node.inputs 0 preds
        | _ -> ());
        check_dom_phis preds rest
  in
  Graph.iter_blocks
    (fun b ->
      let bid = b.Graph.b_id in
      if reachable.(bid) then begin
        check_dom_phis b.Graph.preds b.Graph.phis;
        for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
          let n = Pea_support.Dyn_array.get b.Graph.instrs i in
          check_dom_operands Instr n.Node.id n.Node.op ~ub:bid ~ui:i;
          (* a frame state describes the state just after the node's
             effect, so it may legitimately reference the node itself *)
          match n.Node.fs with
          | Some fs -> check_dom_fs State n.Node.id fs ~ub:bid ~ui:(i + 1)
          | None -> ()
        done;
        match b.Graph.term with
        | Graph.If { cond; _ } -> check_dom Terminator bid (-1) cond ~ub:bid ~ui:max_int
        | Graph.Return (Some v) -> check_dom Terminator bid (-1) v ~ub:bid ~ui:max_int
        | Graph.Deopt { d_state = fs; _ } -> check_dom_fs Deopt_state bid fs ~ub:bid ~ui:max_int
        | Graph.Goto _ | Graph.Return None | Graph.Trap _ | Graph.Unreachable -> ()
      end)
    g;
  (* --- frame-state well-formedness: virtual-object descriptors -------- *)
  (* Every F_virtual referenced anywhere in a frame-state chain (locals,
     stack, locks, or another descriptor's fields) must have a descriptor
     somewhere in that chain, or deoptimization cannot rematerialize it. *)
  let check_fs_virtuals user a (fs : Frame_state.t) =
    if Frame_state.exists_value is_virtual fs then
      Frame_state.iter_values
        (function
          | Frame_state.F_virtual vid ->
              if not (declares fs vid) then
                add "%s references virtual object #%d without a descriptor" (describe user a (-1))
                  vid
          | Frame_state.F_node _ | Frame_state.F_const _ -> ())
        fs
  in
  Graph.iter_blocks
    (fun b ->
      let bid = b.Graph.b_id in
      if reachable.(bid) then begin
        for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
          let n = Pea_support.Dyn_array.get b.Graph.instrs i in
          match n.Node.fs with Some fs -> check_fs_virtuals State n.Node.id fs | None -> ()
        done;
        match b.Graph.term with
        | Graph.Deopt { d_state = fs; _ } -> check_fs_virtuals Deopt_state bid fs
        | _ -> ()
      end)
    g;
  (* --- OSR-entry graphs: complete live-local transfer map ------------- *)
  (* An OSR graph is entered mid-frame: its parameters are the transfer
     map from the interpreter frame's local slots. Every slot must be
     transferred by exactly one [Param], or entry reads garbage. *)
  (match g.Graph.g_osr_entry with
  | None -> ()
  | Some entry_bci ->
      let code = g.Graph.g_method.Pea_bytecode.Classfile.mth_code in
      if entry_bci < 0 || entry_bci >= Array.length code then
        add "OSR entry bci %d outside the method's code (length %d)" entry_bci
          (Array.length code);
      let max_locals = g.Graph.g_method.Pea_bytecode.Classfile.mth_max_locals in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Node.t) ->
          match p.Node.op with
          | Node.Param i ->
              if i < 0 then add "OSR transfer map names negative local slot %d" i;
              if Hashtbl.mem seen i then add "OSR transfer map transfers local slot %d twice" i
              else Hashtbl.replace seen i ()
          | _ -> add "non-param node v%d in an OSR graph's parameter list" p.Node.id)
        g.Graph.params;
      for slot = 0 to max_locals - 1 do
        if not (Hashtbl.mem seen slot) then
          add "OSR transfer map at bci %d misses live local slot %d" entry_bci slot
      done);
  List.rev !errors

(* [check_exn g] raises [Failure] with a readable message on the first
   malformed graph; convenient in tests and pass pipelines. *)
let check_exn ?require_frame_states g =
  match check ?require_frame_states g with
  | [] -> ()
  | errs ->
      failwith
        (Printf.sprintf "IR check failed for %s:\n  %s"
           (Pea_bytecode.Classfile.qualified_name g.Graph.g_method)
           (String.concat "\n  " errs))

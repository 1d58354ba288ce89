(* Static speculation-safety verifier (ROADMAP item 5).

   The IR checker ({!Pea_ir.Check}) proves the graph is structurally
   well-formed; this pass proves the *deopt metadata* is sufficient to
   rematerialize: that every frame state reachable from a deopt point or
   guard describes a state the interpreter could actually resume from.
   It is the static half of the bisimulation argument (the dynamic half
   is the deopt oracle): if every rule below holds, rematerialization
   cannot dangle, double-free a lock, or resume at a non-call site; what
   remains — that the *values* in the state are the right ones — is
   exactly what the oracle checks at runtime.

   Rules (stable ids, surfaced in diagnostics, trace events and docs):

   SPEC01 dangling-virtual      every F_virtual in a state chain has a
                                descriptor in that chain
   SPEC02 unreachable-value     every F_node in a state (including
                                descriptor fields) is defined in a
                                reachable block and dominates the state's
                                program point
   SPEC03 descriptor-conflict   one virtual id never has two structurally
                                different descriptors in one chain
   SPEC04 missing-frame-state   every Invoke carries a frame state (a
                                deopt inside the callee needs the caller
                                frame)
   SPEC05 unbalanced-lock       a virtual's recorded lock depth equals
                                its elided monitorenter entries on the
                                chain's lock stacks, and is never
                                negative
   SPEC06 escape-regression     escape status is monotone along dominator
                                paths: once a virtual id disappears from
                                the states (materialized/escaped), no
                                dominated state declares it virtual again
   SPEC07 osr-transfer-map      an OSR graph's parameters transfer every
                                local slot of the frame exactly once
   SPEC08 bad-deopt-edge        Deopt branch provenance points at a
                                conditional branch bytecode of its method
   SPEC09 state-bci-range       every frame's resume bci lies inside its
                                method's code
   SPEC10 bad-resume-point      every outer frame resumes just after an
                                invoke bytecode (the callee's return
                                value is pushed on resume)
   SPEC11 bad-guard-provenance  receiver-guard provenance names an
                                invokevirtual bytecode of its method, is
                                exclusive with branch provenance, and its
                                deopt state resumes exactly at that call
                                site (the pre-call frame)
   SPEC12 stack-confinement     no alias of a frame-bounded stack
                                allocation (Stack_alloc Sk_frame) reaches
                                a frame-outliving sink: a return, a
                                static store, a print, a store into a
                                non-stack holder, a heap materialization
                                field, or an invoke argument whose
                                summary position may globally escape.
                                Frame-state references are exempt: deopt
                                promotes live stack objects to the heap
                                during rematerialization *)

open Pea_bytecode
open Pea_ir

type level =
  | No_check
  | Phase_end
  | Every_phase

let level_string = function
  | No_check -> "none"
  | Phase_end -> "phase-end"
  | Every_phase -> "every-phase"

let level_of_string = function
  | "none" | "off" -> Some No_check
  | "phase-end" | "phase_end" | "end" -> Some Phase_end
  | "every-phase" | "every_phase" | "all" -> Some Every_phase
  | _ -> None

type violation = {
  v_rule : string; (* stable rule id, e.g. "SPEC01" *)
  v_method : string; (* qualified name of the graph's method *)
  v_phase : string; (* pipeline phase after which the check ran *)
  v_site : string; (* node/block locus, e.g. "v17", "B3/deopt" *)
  v_detail : string;
}

let rules =
  [
    ("SPEC01", "dangling-virtual: a state references a virtual object without a descriptor");
    ("SPEC02", "unreachable-value: a state value is not defined at (or does not dominate) its use");
    ("SPEC03", "descriptor-conflict: one virtual id has two different descriptors in a chain");
    ("SPEC04", "missing-frame-state: an invoke carries no frame state");
    ("SPEC05", "unbalanced-lock: a virtual's lock depth disagrees with the chain's lock stacks");
    ("SPEC06", "escape-regression: a materialized virtual is declared virtual again downstream");
    ("SPEC07", "osr-transfer-map: OSR parameters do not transfer every local slot exactly once");
    ("SPEC08", "bad-deopt-edge: deopt provenance does not name a conditional branch");
    ("SPEC09", "state-bci-range: a frame's resume bci is outside its method's code");
    ("SPEC10", "bad-resume-point: an outer frame does not resume just after an invoke");
    ("SPEC11", "bad-guard-provenance: guard provenance does not name its invokevirtual call site");
    ("SPEC12", "stack-confinement: a frame-bounded stack allocation reaches a frame-outliving sink");
  ]

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s %s%s: %s" v.v_rule v.v_method v.v_site
    (if v.v_phase = "" then "" else Printf.sprintf " (after %s)" v.v_phase)
    v.v_detail

(* A frame-state chain as a flat list, innermost first. *)
let chain fs =
  let rec go fs = fs :: (match fs.Frame_state.fs_outer with None -> [] | Some o -> go o) in
  go fs

(* Descriptors declared anywhere in a chain, first declaration wins (the
   rematerializer walks the chain the same way). *)
let chain_virtuals frames =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun f ->
      List.iter
        (fun (id, vd) -> if not (Hashtbl.mem seen id) then Hashtbl.replace seen id vd)
        f.Frame_state.fs_virtuals)
    frames;
  seen

let is_invoke_bc = function
  | Classfile.Invokevirtual _ | Classfile.Invokestatic _ | Classfile.Invokespecial _ -> true
  | _ -> false

(* Does any frame of the chain declare a virtual object? *)
let rec has_virtuals (fs : Frame_state.t) =
  fs.Frame_state.fs_virtuals <> []
  || match fs.Frame_state.fs_outer with Some o -> has_virtuals o | None -> false

(* Does every frame of the chain pass SPEC09 and SPEC10? *)
let rec resumable ~innermost (f : Frame_state.t) =
  let code = f.Frame_state.fs_method.Classfile.mth_code in
  let bci = f.Frame_state.fs_bci in
  bci >= 0
  && bci < Array.length code
  && (innermost || (bci >= 1 && is_invoke_bc code.(bci - 1)))
  && match f.Frame_state.fs_outer with Some o -> resumable ~innermost:false o | None -> true

(* Site loci are thunks, rendered only for a violation. *)
let node_site id () = Printf.sprintf "v%d" id

let block_site bid what () = Printf.sprintf "B%d/%s" bid what

let params_site () = "params"

let check ?summaries ?(phase = "") (g : Graph.t) : violation list =
  let meth = Classfile.qualified_name g.Graph.g_method in
  let violations = ref [] in
  let report ~rule ~site fmt =
    Format.kasprintf
      (fun detail ->
        violations :=
          { v_rule = rule; v_method = meth; v_phase = phase; v_site = site (); v_detail = detail }
          :: !violations)
      fmt
  in
  let reachable = Graph.reachable g in
  let doms = Dominators.compute g in
  (* definition positions, as in the IR checker *)
  let sites = Check.def_sites g ~reachable in
  let is_defined = Check.is_defined sites in
  let dominated def ~ub ~ui = is_defined def && Check.defined_before sites doms def ~ub ~ui in
  (* the descriptor table of a chain that declares nothing; never written *)
  let no_virtuals : (Frame_state.virt_id, Frame_state.virtual_desc) Hashtbl.t =
    Hashtbl.create 1
  in
  (* A state passes every per-state rule when its chain declares no
     virtual object, each of its values is a constant or a defined node
     that dominates the state's program point, and each frame resumes at
     a valid point. That test allocates nothing; only the other states go
     through the reporting rules below. [state_ub] is -1 for a state
     without a dominance requirement. *)
  let state_ub = ref (-1) and state_ui = ref 0 in
  let unclean_value = function
    | Frame_state.F_virtual _ -> true (* no descriptor in the chain *)
    | Frame_state.F_node n ->
        (not (is_defined n))
        || (!state_ub >= 0 && not (dominated n ~ub:!state_ub ~ui:!state_ui))
    | Frame_state.F_const _ -> false
  in
  let clean_state ?dom fs =
    (match dom with
    | Some (ub, ui) ->
        state_ub := ub;
        state_ui := ui
    | None -> state_ub := -1);
    (not (has_virtuals fs))
    && (not (Frame_state.exists_value unclean_value fs))
    && resumable ~innermost:true fs
  in

  (* ---- per-state rules: SPEC01/02/03/05/09/10 --------------------- *)
  (* [ub]/[ui] locate the state's program point for dominance; [ui] may
     be [max_int] for terminators. Entry states skip dominance ([ub] =
     None): they may legitimately reference the block's own phis. *)
  let report_state ~site ?dom (fs : Frame_state.t) =
    let frames = chain fs in
    let virtuals = chain_virtuals frames in
    (* SPEC03: conflicting re-declarations *)
    List.iter
      (fun f ->
        List.iter
          (fun (id, (vd : Frame_state.virtual_desc)) ->
            let first = Hashtbl.find virtuals id in
            let same_shape =
              match (first.Frame_state.vd_shape, vd.Frame_state.vd_shape) with
              | Frame_state.Obj_shape a, Frame_state.Obj_shape b ->
                  a.Classfile.cls_id = b.Classfile.cls_id
              | Frame_state.Arr_shape a, Frame_state.Arr_shape b -> a = b
              | _ -> false
            in
            if
              (not same_shape)
              || Array.length first.Frame_state.vd_fields <> Array.length vd.Frame_state.vd_fields
              || first.Frame_state.vd_lock <> vd.Frame_state.vd_lock
            then report ~rule:"SPEC03" ~site "virtual #%d has conflicting descriptors" id)
          f.Frame_state.fs_virtuals)
      frames;
    (* SPEC01 + SPEC02 over every value in the chain, descriptors included *)
    Frame_state.iter_values
      (function
        | Frame_state.F_virtual vid ->
            if not (Hashtbl.mem virtuals vid) then
              report ~rule:"SPEC01" ~site "state references virtual #%d without a descriptor" vid
        | Frame_state.F_node n -> (
            if not (is_defined n) then
              report ~rule:"SPEC02" ~site "state references v%d, not defined in any reachable block"
                n
            else
              match dom with
              | Some (ub, ui) ->
                  if not (dominated n ~ub ~ui) then
                    report ~rule:"SPEC02" ~site
                      "state references v%d, which does not dominate the state's program point" n
              | None -> ())
        | Frame_state.F_const _ -> ())
      fs;
    (* SPEC05: every virtual's lock depth balances against the chain's
       lock stacks (elided monitorenters push F_virtual entries there) *)
    let lock_entries vid =
      List.fold_left
        (fun acc f ->
          List.fold_left
            (fun acc lv -> if lv = Frame_state.F_virtual vid then acc + 1 else acc)
            acc f.Frame_state.fs_locks)
        0 frames
    in
    Hashtbl.iter
      (fun vid (vd : Frame_state.virtual_desc) ->
        if vd.Frame_state.vd_lock < 0 then
          report ~rule:"SPEC05" ~site "virtual #%d has negative lock depth %d" vid
            vd.Frame_state.vd_lock
        else if vd.Frame_state.vd_lock <> lock_entries vid then
          report ~rule:"SPEC05" ~site
            "virtual #%d records lock depth %d but the chain's lock stacks hold it %d times" vid
            vd.Frame_state.vd_lock (lock_entries vid))
      virtuals;
    (* SPEC09 + SPEC10 along the chain *)
    let rec walk ~innermost (f : Frame_state.t) =
      let code = f.Frame_state.fs_method.Classfile.mth_code in
      if f.Frame_state.fs_bci < 0 || f.Frame_state.fs_bci >= Array.length code then
        report ~rule:"SPEC09" ~site "frame of %s resumes at bci %d, outside its code (length %d)"
          (Classfile.qualified_name f.Frame_state.fs_method)
          f.Frame_state.fs_bci (Array.length code)
      else if not innermost then begin
        (* an outer frame resumes just after the call it was suspended
           at; [Deopt.handle] pushes the callee's result there *)
        let call = f.Frame_state.fs_bci - 1 in
        if call < 0 || not (is_invoke_bc code.(call)) then
          report ~rule:"SPEC10" ~site
            "outer frame of %s resumes at bci %d, which does not follow an invoke"
            (Classfile.qualified_name f.Frame_state.fs_method)
            f.Frame_state.fs_bci
      end;
      Option.iter (walk ~innermost:false) f.Frame_state.fs_outer
    in
    walk ~innermost:true fs
  in
  let check_state ~site ?dom fs = if not (clean_state ?dom fs) then report_state ~site ?dom fs in

  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        let bid = b.Graph.b_id in
        Option.iter (check_state ~site:(block_site bid "entry")) b.Graph.entry_fs;
        Pea_support.Dyn_array.iteri
          (fun i (n : Node.t) ->
            (* SPEC04 *)
            (match n.Node.op with
            | Node.Invoke _ when n.Node.fs = None ->
                report ~rule:"SPEC04" ~site:(node_site n.Node.id)
                  "invoke has no frame state: a deopt inside the callee cannot rebuild the caller"
            | _ -> ());
            Option.iter
              (check_state ~site:(node_site n.Node.id) ~dom:(bid, i + 1))
              n.Node.fs)
          b.Graph.instrs;
        match b.Graph.term with
        | Graph.Deopt d ->
            let site = block_site bid "deopt" in
            check_state ~site ~dom:(bid, max_int) d.Graph.d_state;
            (* SPEC08: branch provenance must name a conditional branch *)
            Option.iter
              (fun (e : Graph.deopt_edge) ->
                let code = e.Graph.de_method.Classfile.mth_code in
                if e.Graph.de_src < 0 || e.Graph.de_src >= Array.length code then
                  report ~rule:"SPEC08" ~site "deopt edge source bci %d is outside %s"
                    e.Graph.de_src
                    (Classfile.qualified_name e.Graph.de_method)
                else
                  match code.(e.Graph.de_src) with
                  | Classfile.If_true _ | Classfile.If_false _ -> ()
                  | _ ->
                      report ~rule:"SPEC08" ~site
                        "deopt edge source bci %d of %s is not a conditional branch" e.Graph.de_src
                        (Classfile.qualified_name e.Graph.de_method))
              d.Graph.d_edge;
            (* SPEC11: receiver-guard provenance must name an invokevirtual
               and the miss edge must resume the interpreter exactly at it *)
            (match (d.Graph.d_edge, d.Graph.d_guard) with
            | Some _, Some _ ->
                report ~rule:"SPEC11" ~site
                  "deopt carries both branch and receiver-guard provenance"
            | None, Some gd ->
                let code = gd.Graph.dg_method.Classfile.mth_code in
                (if gd.Graph.dg_bci < 0 || gd.Graph.dg_bci >= Array.length code then
                   report ~rule:"SPEC11" ~site "guard call-site bci %d is outside %s"
                     gd.Graph.dg_bci
                     (Classfile.qualified_name gd.Graph.dg_method)
                 else
                   match code.(gd.Graph.dg_bci) with
                   | Classfile.Invokevirtual _ -> ()
                   | _ ->
                       report ~rule:"SPEC11" ~site
                         "guard call-site bci %d of %s is not an invokevirtual" gd.Graph.dg_bci
                         (Classfile.qualified_name gd.Graph.dg_method));
                let inner = d.Graph.d_state in
                if
                  inner.Frame_state.fs_method.Classfile.mth_id
                  <> gd.Graph.dg_method.Classfile.mth_id
                  || inner.Frame_state.fs_bci <> gd.Graph.dg_bci
                then
                  report ~rule:"SPEC11" ~site
                    "guard deopt resumes at %s bci %d, not at its call site %s bci %d"
                    (Classfile.qualified_name inner.Frame_state.fs_method)
                    inner.Frame_state.fs_bci
                    (Classfile.qualified_name gd.Graph.dg_method)
                    gd.Graph.dg_bci
            | _, None -> ())
        | _ -> ()
      end)
    g;

  (* ---- SPEC07: OSR transfer map ----------------------------------- *)
  (match g.Graph.g_osr_entry with
  | None -> ()
  | Some entry_bci ->
      let max_locals = g.Graph.g_method.Classfile.mth_max_locals in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Node.t) ->
          match p.Node.op with
          | Node.Param i ->
              if Hashtbl.mem seen i then
                report ~rule:"SPEC07" ~site:params_site "local slot %d is transferred twice" i
              else Hashtbl.replace seen i ()
          | _ ->
              report ~rule:"SPEC07" ~site:params_site "non-param node v%d in the parameter list"
                p.Node.id)
        g.Graph.params;
      for slot = 0 to max_locals - 1 do
        if not (Hashtbl.mem seen slot) then
          report ~rule:"SPEC07" ~site:params_site
            "OSR entry at bci %d transfers no value for live local slot %d" entry_bci slot
      done);

  (* ---- SPEC06: escape monotonicity along dominator paths ----------- *)
  (* Walk the dominator tree keeping, per virtual id, whether it is
     currently declared (Active) or was declared upstream and has since
     disappeared (Retired — materialized or escaped). A Retired id that
     reappears means a state downstream of the materialization still
     claims the object is virtual: rematerialization would duplicate it. *)
  let status : (Frame_state.virt_id, [ `Active | `Retired ]) Hashtbl.t = Hashtbl.create 8 in
  let track_state ~site fs undo =
    let declared = if has_virtuals fs then chain_virtuals (chain fs) else no_virtuals in
    (* ids that vanish at this state: collected first, then retired, so
       the table is not modified while it is iterated *)
    let vanished =
      Hashtbl.fold
        (fun vid st acc ->
          if st = `Active && not (Hashtbl.mem declared vid) then vid :: acc else acc)
        status []
    in
    List.iter
      (fun vid ->
        Hashtbl.replace status vid `Retired;
        undo := (vid, `Active) :: !undo)
      (List.rev vanished);
    Hashtbl.iter
      (fun vid _ ->
        match Hashtbl.find_opt status vid with
        | Some `Retired ->
            report ~rule:"SPEC06" ~site
              "virtual #%d was materialized on a dominating path but is declared virtual again" vid
        | Some `Active -> ()
        | None ->
            Hashtbl.replace status vid `Active;
            undo := (vid, `Absent) :: !undo)
      declared
  in
  (* with nothing tracked and nothing declared, a state changes no status
     and reports nothing *)
  let visit_state ~site fs undo =
    if Hashtbl.length status > 0 || has_virtuals fs then track_state ~site fs undo
  in
  (* Deoptimization never resumes *at* an allocation: states on
     allocation nodes exist only to attribute the allocation to its
     bytecode site (heap profiling), and PEA value-strips the ones it
     attaches to materializations. They are not resumable states, so
     they take no part in the monotonicity walk — an empty one would
     otherwise falsely retire every live virtual. *)
  let attribution_only (n : Node.t) =
    match n.Node.op with
    | Node.New _ | Node.New_array _ | Node.Alloc _ | Node.Alloc_array _ | Node.Stack_alloc _
    | Node.Stack_alloc_array _ ->
        true
    | _ -> false
  in
  let tree = Dominators.children doms (Graph.n_blocks g) in
  let rec dfs bid =
    let undo = ref [] in
    let b = Graph.block g bid in
    Option.iter
      (fun fs -> visit_state ~site:(block_site bid "entry") fs undo)
      b.Graph.entry_fs;
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        if not (attribution_only n) then
          Option.iter (fun fs -> visit_state ~site:(node_site n.Node.id) fs undo) n.Node.fs)
      b.Graph.instrs;
    (match b.Graph.term with
    | Graph.Deopt d -> visit_state ~site:(block_site bid "deopt") d.Graph.d_state undo
    | _ -> ());
    List.iter dfs tree.(bid);
    List.iter
      (fun (vid, prev) ->
        match prev with
        | `Absent -> Hashtbl.remove status vid
        | `Active -> Hashtbl.replace status vid `Active)
      !undo
  in
  if reachable.(Graph.entry_id) then dfs Graph.entry_id;

  (* ---- SPEC12: stack-allocation confinement ------------------------ *)
  (* A frame-bounded stack allocation ([Stack_alloc Sk_frame]) lives in
     the frame's stack region and is reclaimed when the frame pops, so no
     alias of it may outlive the frame. Compute the possibly-stack value
     set (the allocations themselves, closed over phis, casts, and the
     results of calls whose summary says the argument is reachable from
     the return value) to a fixpoint, then flag every flow into a sink
     that survives the frame. Frame-state references to stack nodes are
     deliberately allowed: deoptimization promotes live stack objects to
     the heap during rematerialization, so deopt metadata cannot dangle. *)
  let stack : (Node.node_id, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_stack id = Hashtbl.mem stack id in
  let changed = ref true in
  while !changed do
    changed := false;
    let add id =
      if not (is_stack id) then begin
        Hashtbl.replace stack id ();
        changed := true
      end
    in
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) then begin
          List.iter
            (fun (n : Node.t) ->
              match n.Node.op with
              | Node.Phi p -> if Array.exists is_stack p.Node.inputs then add n.Node.id
              | _ -> ())
            b.Graph.phis;
          Pea_support.Dyn_array.iter
            (fun (n : Node.t) ->
              match n.Node.op with
              | Node.Stack_alloc (Node.Sk_frame, _, _)
              | Node.Stack_alloc_array (Node.Sk_frame, _, _) ->
                  add n.Node.id
              | Node.Check_cast (a, _) -> if is_stack a then add n.Node.id
              | Node.Invoke (k, m, args) -> (
                  (* an Arg_escape position makes the call result a
                     possible alias of the argument *)
                  match summaries with
                  | None -> ()
                  | Some t ->
                      let cs = Summary.call_summary t k m in
                      Array.iteri
                        (fun j a ->
                          if
                            is_stack a
                            && j < Array.length cs.Summary.s_params
                            && cs.Summary.s_params.(j).Summary.ps_escape = Summary.Arg_escape
                          then add n.Node.id)
                        args)
              | _ -> ())
            b.Graph.instrs
        end)
      g
  done;
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        Pea_support.Dyn_array.iter
          (fun (n : Node.t) ->
            let site = node_site n.Node.id in
            match n.Node.op with
            | Node.Store_static (_, v) when is_stack v ->
                report ~rule:"SPEC12" ~site
                  "stack allocation v%d is stored into a static field and outlives its frame" v
            | Node.Print v when is_stack v ->
                report ~rule:"SPEC12" ~site "stack allocation v%d is printed (retained)" v
            | Node.Store_field (o, _, v) when is_stack v && not (is_stack o) ->
                report ~rule:"SPEC12" ~site
                  "stack allocation v%d is stored into non-stack holder v%d" v o
            | Node.Array_store (a, _, v) when is_stack v && not (is_stack a) ->
                report ~rule:"SPEC12" ~site
                  "stack allocation v%d is stored into non-stack array v%d" v a
            | Node.Alloc (_, fields) | Node.Alloc_array (_, fields) ->
                Array.iter
                  (fun f ->
                    if is_stack f then
                      report ~rule:"SPEC12" ~site
                        "stack allocation v%d is a field of heap materialization v%d" f n.Node.id)
                  fields
            | Node.Invoke (k, m, args) ->
                Array.iteri
                  (fun j a ->
                    if is_stack a then
                      match summaries with
                      | None ->
                          report ~rule:"SPEC12" ~site
                            "stack allocation v%d passed to %s with no summary table" a
                            (Classfile.qualified_name m)
                      | Some t ->
                          let cs = Summary.call_summary t k m in
                          if
                            j >= Array.length cs.Summary.s_params
                            || cs.Summary.s_params.(j).Summary.ps_escape
                               = Summary.Global_escape
                          then
                            report ~rule:"SPEC12" ~site
                              "stack allocation v%d passed to %s at a position that may \
                               globally escape"
                              a
                              (Classfile.qualified_name m))
                  args
            | _ -> ())
          b.Graph.instrs;
        match b.Graph.term with
        | Graph.Return (Some v) when is_stack v ->
            report ~rule:"SPEC12"
              ~site:(block_site b.Graph.b_id "return")
              "stack allocation v%d is returned and outlives its frame" v
        | _ -> ()
      end)
    g;

  List.rev !violations

let check_exn ?summaries ?phase g =
  match check ?summaries ?phase g with
  | [] -> ()
  | vs ->
      failwith
        (Printf.sprintf "speculation-safety check failed for %s:\n  %s"
           (Classfile.qualified_name g.Graph.g_method)
           (String.concat "\n  " (List.map (Fmt.str "%a" pp_violation) vs)))

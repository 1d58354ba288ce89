(* JIT phase timing for the traced run: each compiled method is put again
   through the passes' public [run] functions in the order
   [Pea_vm.Jit.compile] uses, one span per phase, on the VM's warmed
   profile and deopt blacklist. The final node count must equal that of a
   [Jit.compile] call on the same inputs, which is timed as a whole. *)

open Common
module Jit = Pea_vm.Jit
module Graph = Pea_ir.Graph
module Summary = Pea_analysis.Summary
module Spec_check = Pea_analysis.Spec_check
module Classfile = Pea_bytecode.Classfile

type totals = {
  mutable nodes_built : int;
  mutable nodes_final : int;
  mutable virtualized : int;
}

let totals = { nodes_built = 0; nodes_final = 0; virtualized = 0 }

(* The phases of [Jit.compile_graph] for a normal entry. *)
let pipeline ?summaries ~blacklist (config : Jit.config) program profile m =
  let verify g = if config.Jit.verify then Pea_ir.Check.check_exn g in
  let g = Spans.span "ir.build" (fun () -> Pea_ir.Builder.build m) in
  let built = Graph.n_nodes g in
  Spans.span "ir.check" (fun () -> verify g);
  if config.Jit.inline then
    Spans.span "opt.inline" (fun () ->
        let icfg =
          {
            (Pea_opt.Inline.default_config program) with
            Pea_opt.Inline.max_callee_size = config.Jit.max_callee_size;
            speculate =
              (if config.Jit.inlining then Some (fun m ~bci -> Pea_rt.Profile.hot_receiver profile m ~bci)
               else None);
            blacklisted = blacklist;
            stats = Pea_opt.Inline.mk_stats ();
          }
        in
        ignore (Pea_opt.Inline.run icfg g);
        verify g);
  Spans.span "opt.simplify" (fun () ->
      ignore (Pea_opt.Canonicalize.run g);
      ignore (Pea_opt.Gvn.run ?summaries g);
      if config.Jit.read_elim then ignore (Pea_opt.Read_elim.run ?summaries g);
      if config.Jit.cond_elim then ignore (Pea_opt.Cond_elim.run g);
      verify g);
  if config.Jit.prune then
    Spans.span "opt.prune" (fun () ->
        ignore (Pea_opt.Prune.run ~blacklist profile g);
        ignore (Pea_opt.Canonicalize.run g);
        verify g);
  let g, virtualized =
    match config.Jit.opt with
    | Jit.O_none -> (g, 0)
    | Jit.O_ea ->
        Spans.span "core.escape" (fun () ->
            let g', st = Pea_core.Escape.run ?summaries g in
            (g', st.Pea_core.Pea.virtualized_allocs))
    | Jit.O_pea ->
        Spans.span "core.pea" (fun () ->
            let stack_eligible =
              if config.Jit.stackalloc then Pea_core.Escape.frame_bounded ?summaries g else fun _ -> false
            in
            let g', st =
              Pea_core.Pea.run ~stack_eligible ~prune_dead_objects:config.Jit.pea_prune_dead ?summaries g
            in
            (g', st.Pea_core.Pea.virtualized_allocs))
  in
  Spans.span "ir.check" (fun () -> verify g);
  Spans.span "opt.cleanup" (fun () ->
      ignore (Pea_opt.Canonicalize.run g);
      ignore (Pea_opt.Gvn.run ?summaries g);
      if config.Jit.read_elim then ignore (Pea_opt.Read_elim.run ?summaries g);
      verify g);
  if config.Jit.check_level <> Spec_check.No_check then
    Spans.span "analysis.spec_check" (fun () -> Spec_check.check_exn ?summaries ~phase:"final" g);
  ignore (Spans.span "vm.prepare" (fun () -> Pea_vm.Ir_exec.prepare g));
  (built, Graph.n_nodes g, virtualized)

(* Replays every method of [program] that [vm] holds normal-entry code
   for; a node-count mismatch with [Jit.compile] is a run failure. *)
let replay_vm ctx (config : Jit.config) program vm =
  let summaries =
    if config.Jit.summaries then Some (Spans.span "analysis.summary" (fun () -> Summary.analyze program))
    else None
  in
  let sites = Hashtbl.create 16 in
  Array.iter
    (fun m ->
      List.iter (fun bci -> Hashtbl.replace sites (m.Classfile.mth_id, bci) ()) (Vm.blacklisted_sites vm m))
    program.Link.methods;
  let blacklist site = Hashtbl.mem sites site in
  let profile = Vm.profile vm in
  Array.iter
    (fun m ->
      if Vm.compiled_graph vm m <> None then begin
        let built, final, virtualized = pipeline ?summaries ~blacklist config program profile m in
        let whole =
          Spans.span "vm.jit_compile" (fun () -> Jit.compile ?summaries ~blacklist config program profile m)
        in
        let expected = Graph.n_nodes whole.Jit.graph in
        if expected <> final then
          problem ctx
            (Printf.sprintf "JIT replay of %s ends with %d nodes, Jit.compile with %d"
               (Classfile.qualified_name m) final expected);
        totals.nodes_built <- totals.nodes_built + built;
        totals.nodes_final <- totals.nodes_final + final;
        totals.virtualized <- totals.virtualized + virtualized
      end)
    program.Link.methods

(* Per-method medians of each phase, plus the replay totals. *)
let report ctx =
  List.iter
    (fun (metric, span) -> set ctx metric (median (Spans.durations_ms span)))
    [
      ("ir.build_ms", "ir.build");
      ("opt.inline_ms", "opt.inline");
      ("opt.simplify_ms", "opt.simplify");
      ("opt.prune_ms", "opt.prune");
      ("core.pea_ms", "core.pea");
      ("opt.cleanup_ms", "opt.cleanup");
      ("analysis.spec_check_ms", "analysis.spec_check");
      ("vm.jit_compile_ms", "vm.jit_compile");
      ("analysis.summary_ms", "analysis.summary");
      ("mjava.parse_ms", "mjava.parse");
      ("mjava.typecheck_ms", "mjava.typecheck");
      ("bytecode.link_ms", "bytecode.link");
    ];
  set ctx "ir.nodes_built" (float_of_int totals.nodes_built);
  set ctx "ir.nodes_final" (float_of_int totals.nodes_final);
  set ctx "core.virtualized_allocs" (float_of_int totals.virtualized)

(* serve-mixed: [Sessions.mixed_script] traffic on a [Server], as a
   closed loop: each round is one batch from all tenants, and the next
   round is sent only after the previous barrier returns. A request's
   latency is the wall time of its round, timed around
   [Server.run_rounds server [round]]. One pass over the script is one
   session on a server; the sessions repeat, each on a fresh server
   created off the clock, until the time is up, so the server state a
   run holds does not grow with its throughput.

   The timed server runs in Replay mode, which makes the same model
   decisions on one domain. In [Threaded nproc] mode each round spawns
   and joins worker domains, and on a 2-core host whose cores other
   machines' work shares, that wait is bimodal: runs gave 23k and 48k
   requests/s, with p99 rounds of 4.2 and 1.2 ms. The traced run
   replays the first session on a [Threaded nproc] server for the
   per-layer execute, barrier and handoff times, and checks that it
   reports what the Replay session reported. *)

open Common
module Server = Pea_serve.Server
module Sessions = Pea_workloads.Sessions
module Jit = Pea_vm.Jit

let tenants = 8

let requests_per_round = 16

let script_rounds = 2000

let prefix_rounds = 200 (* the fingerprint prefix *)

let setup_reps = 31

let config mode = { Server.default_config with Server.sv_mode = mode; sv_jit = Jit.default_config }

(* The server's and its tenants' deterministic counters. *)
let server_counters server =
  let vms = List.init tenants (Server.tenant_vm server) in
  let s = Server.stats server in
  counters vms
  @ List.map
      (fun (k, m) -> (k, Stats.get s m))
      [
        ("cache_shared_hits", Stats.cache_shared_hits);
        ("cache_epoch_rejects", Stats.cache_epoch_rejects);
        ("compile_dedup_hits", Stats.compile_dedup_hits);
        ("tenant_quarantines", Stats.tenant_quarantines);
        ("compile_installs", Stats.compile_installs);
        ("compile_drops", Stats.compile_drops);
      ]
  @ [ ("compile_stale_discards", Stats.get s Stats.compile_stale_discards + sum vms Stats.compile_stale_discards) ]

(* [Server.run_rounds server [reqs]] split into its two public steps,
   one span each; the result is the execute step's wall ms. *)
let traced_round ~prefix server reqs =
  let (), ns = timed (fun () -> Spans.span (prefix ^ "run_round") (fun () -> Server.run_round server reqs)) in
  Spans.span (prefix ^ "barrier") (fun () -> Server.barrier server reqs);
  server.Server.round <- server.Server.round + 1;
  ms ns

(* Each tenant's requests of the whole script replayed on its own
   interpreter-only VM, in script order: the rendering [Server] uses for
   results. *)
let reference (script : Server.script) =
  let vms =
    List.map
      (fun (_, app) ->
        let program = Link.compile_source ~require_main:false (snd (List.nth script.Server.sc_apps app)) in
        (program, interp_vm program))
      script.Server.sc_tenants
  in
  let results = Array.make tenants [] in
  List.iter
    (fun reqs ->
      List.iter
        (fun (rq : Server.request) ->
          let program, vm = List.nth vms rq.Server.rq_tenant in
          let m = Link.find_method program rq.Server.rq_class rq.Server.rq_method in
          let r =
            match Vm.invoke vm m (List.map (fun i -> Value.Vint i) rq.Server.rq_args) with
            | None -> "void"
            | Some v -> Value.string_of_value v
            | exception Interp.Mj_throw v -> "throw:" ^ Value.string_of_value v
            | exception Interp.Trap msg -> "trap:" ^ msg
          in
          results.(rq.Server.rq_tenant) <- r :: results.(rq.Server.rq_tenant))
        reqs)
    script.Server.sc_rounds;
  (Array.map (fun l -> Array.of_list (List.rev l)) results, sum (List.map snd vms) Stats.interpreted_instrs)

(* Traced-run extras, over the rounds of the first session: the
   frontend on the app sources; the rounds again on a Replay-mode twin
   (execute, executor counters, [Vm.invoke] per request) and on a
   [Threaded nproc] server (execute, barrier, and the handoff: threaded
   minus replay execute per round), both of which must report what the
   first session reported; the JIT replay on the first session's
   tenants. *)
let measure ctx (script : Server.script) server report executed =
  List.iter
    (fun (_, src) ->
      let ast = Spans.span "mjava.parse" (fun () -> Pea_mjava.Parser.parse_program src) in
      let tp = Spans.span "mjava.typecheck" (fun () -> Pea_mjava.Typecheck.check_program ~require_main:false ast) in
      let program = Spans.span "bytecode.link" (fun () -> Link.link_program tp) in
      ignore (Spans.span "analysis.summary" (fun () -> Pea_analysis.Summary.analyze program)))
    script.Server.sc_apps;
  let twin = Server.create ~config:(config Server.Replay) script in
  let acc = exec_acc () in
  let twin_vms = List.init tenants (Server.tenant_vm twin) in
  let replay_exec =
    List.map (fun reqs -> fst (exec_measure acc twin_vms (fun () -> traced_round ~prefix:"serve.replay_" twin reqs))) executed
  in
  report_exec ctx acc;
  let threaded = Server.create ~config:(config (Server.Threaded nproc)) script in
  let threaded_exec = List.map (traced_round ~prefix:"serve." threaded) executed in
  if Server.report twin <> report then problem ctx "two Replay-mode runs of one session disagree";
  if Server.report threaded <> report then
    problem ctx "Threaded-mode and Replay-mode servers disagree on results or counters";
  set ctx "serve.execute_ms_p50" (median threaded_exec);
  set ctx "serve.barrier_ms_p50" (median (Spans.durations_ms "serve.barrier"));
  set ctx "serve.replay_execute_ms_p50" (median replay_exec);
  set ctx "serve.handoff_ms_p50" (median (List.map2 ( -. ) threaded_exec replay_exec));
  let invoke_us = ref [] in
  List.iteri
    (fun i reqs ->
      if i < prefix_rounds then
        List.iter
          (fun (rq : Server.request) ->
            let t = rq.Server.rq_tenant in
            let m = Server.find_app_method twin ~app:(Server.tenant_app_index twin t) rq.Server.rq_class rq.Server.rq_method in
            let args = List.map (fun i -> Value.Vint i) rq.Server.rq_args in
            let _, ns = timed (fun () -> Spans.span "vm.invoke" (fun () -> try ignore (Vm.invoke (Server.tenant_vm twin t) m args) with _ -> ())) in
            invoke_us := (float_of_int ns /. 1e3) :: !invoke_us)
          reqs)
    executed;
  set ctx "vm.invoke_us_p50" (median !invoke_us);
  List.iteri
    (fun t _ ->
      let app = server.Server.apps.(Server.tenant_app_index server t) in
      Replay.replay_vm ctx Jit.default_config app.Server.ap_program (Server.tenant_vm server t))
    script.Server.sc_tenants

(* Each tenant's results of a session that ran the first [n] script
   rounds, against the reference of the whole script. *)
let check_session ctx (rounds : Server.request list array) expected n (report : Server.report) =
  let counts = Array.make tenants 0 in
  for i = 0 to n - 1 do
    List.iter (fun (rq : Server.request) -> counts.(rq.Server.rq_tenant) <- counts.(rq.Server.rq_tenant) + 1) rounds.(i)
  done;
  List.iteri
    (fun t tr ->
      let got = Array.of_list tr.Server.tr_results in
      for j = 0 to max counts.(t) (Array.length got) - 1 do
        check ctx
          ~expected:(if j < counts.(t) then expected.(t).(j) else "no request")
          ~actual:(if j < Array.length got then got.(j) else "raised:missing")
      done)
    report.Server.r_tenants

let run ctx =
  param ctx "tenants" (string_of_int tenants);
  param ctx "requests_per_round" (string_of_int requests_per_round);
  param ctx "session_rounds" (string_of_int script_rounds);
  param ctx "mode" "replay, closed loop";
  param ctx "traced_workers" (string_of_int nproc);
  let create script = Server.create ~config:(config Server.Replay) script in
  (* set-up generates the script and creates the first server *)
  let script, server =
    repeated_setup ctx ~reps:setup_reps (fun () ->
        let script = Sessions.mixed_script ~tenants ~rounds:script_rounds ~requests_per_round ~seed:ctx.seed () in
        (script, Spans.span "serve.create" (fun () -> create script)))
  in
  let rounds = Array.of_list script.Server.sc_rounds in
  let expected =
    Spans.unit "bench.reference" (fun () ->
        let (expected, instrs), ns =
          timed (fun () -> Spans.span "rt.interp_run" (fun () -> reference script))
        in
        report_interp ctx ~ns ~instrs;
        expected)
  in
  let first = ref None (* the first session's server, its report and its length *) in
  let server = ref server and session = ref 0 and k = ref 0 in
  let lat = Array.make script_rounds 0.0 and session_ns = ref 0 and timed_ns = ref 0 in
  (* in a traced run every other session is traced *)
  let traced () = ctx.trace && !session mod 2 = 1 in
  let end_session () =
    record_slice ~units_per_entry:requests_per_round ctx ~ns:!session_ns ~traced:(traced ()) (Array.init !k Fun.id)
      (Array.sub lat 0 !k);
    let report = Server.report !server in
    check_session ctx rounds expected !k report;
    if Option.is_none !first then first := Some (!server, report, !k)
  in
  let min_rounds = if ctx.trace then 2 * script_rounds else prefix_rounds in
  let i = ref 0 in
  while !i < min_rounds || float_of_int !timed_ns /. 1e9 < ctx.seconds do
    if !k = script_rounds then begin
      end_session ();
      server := create script;
      incr session;
      k := 0;
      session_ns := 0
    end;
    Spans.enabled := traced ();
    let (), ns =
      timed (fun () ->
          Spans.unit "bench.round" (fun () ->
              Spans.span "serve.run_rounds" (fun () -> Server.run_rounds !server [ rounds.(!k) ])))
    in
    Spans.enabled := false;
    lat.(!k) <- ms ns;
    session_ns := !session_ns + ns;
    timed_ns := !timed_ns + ns;
    incr k;
    incr i;
    if !i = prefix_rounds then begin
      let c = server_counters !server in
      fingerprint ctx c;
      let requests = prefix_rounds * requests_per_round in
      report_model ctx ~delta:c ~totals:c ~units:requests ~iters:requests;
      List.iter
        (fun (k, metric) -> set ctx metric (float_of_int (List.assoc k c)))
        [
          ("cache_shared_hits", "serve.cache_shared_hits");
          ("cache_epoch_rejects", "serve.cache_epoch_rejects");
          ("compile_dedup_hits", "serve.compile_dedup_hits");
          ("tenant_quarantines", "serve.tenant_quarantines");
          ("compile_installs", "vm.compile_installs");
          ("compile_drops", "vm.compile_drops");
          ("compile_stale_discards", "vm.compile_stale_discards");
        ]
    end
  done;
  end_session ();
  param ctx "rounds_run" (string_of_int !i);
  Spans.enabled := ctx.trace;
  if ctx.trace then begin
    let server, report, n = Option.get !first in
    Spans.unit "bench.measure" (fun () -> measure ctx script server report (Array.to_list (Array.sub rounds 0 n)))
  end

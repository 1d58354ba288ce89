(* table1-steady: the 27 calibrated Table-1 programs in the default VM
   configuration, warmed during set-up; the timed part is steady
   [Vm.run_main_iterations vm 1] calls over the rows in a seed-shuffled
   order, in whole passes. *)

open Common
module Spec = Pea_workloads.Spec
module Codegen = Pea_workloads.Codegen

let warm_iterations = 2

let setup_reps = 1

type row = {
  src : string;
  program : Link.program;
  vm : Vm.t;
  mutable iter : int; (* main calls so far *)
  results : (int, string) Hashtbl.t; (* iteration -> rendered result *)
}

let run_iteration r =
  r.iter <- r.iter + 1;
  let res =
    try render (Spans.span "vm.run_main_iterations" (fun () -> Vm.run_main_iterations r.vm 1))
    with e -> raised e
  in
  Hashtbl.replace r.results r.iter res

let setup sources () =
  List.map
    (fun src ->
      let program = frontend src in
      let vm = Spans.span "vm.create" (fun () -> Vm.create program) in
      let r = { src; program; vm; iter = 0; results = Hashtbl.create 16 } in
      for _ = 1 to warm_iterations do
        run_iteration r
      done;
      r)
    sources

(* Every iteration of every row against an interpreter-only VM that
   runs the same number of main calls. *)
let check_rows ctx rows =
  let ns = ref 0 and instrs = ref 0 in
  let interpret src n =
    let vm = interp_vm (frontend src) in
    let results = ref [] in
    for _ = 1 to n do
      let e, t =
        timed (fun () ->
            try render (Spans.span "rt.interp_run" (fun () -> Vm.run_main_iterations vm 1)) with e -> raised e)
      in
      ns := !ns + t;
      results := e :: !results
    done;
    instrs := !instrs + Stats.get (Vm.stats vm) Stats.interpreted_instrs;
    List.rev !results
  in
  List.iter
    (fun r ->
      List.iteri
        (fun i expected -> check ctx ~expected ~actual:(Hashtbl.find r.results (i + 1)))
        (cached_reference ctx r.src r.iter (interpret r.src)))
    rows;
  report_interp ctx ~ns:!ns ~instrs:!instrs

let run ctx =
  let rows = Spec.all in
  param ctx "rows" (string_of_int (List.length rows));
  param ctx "warm_iterations" (string_of_int warm_iterations);
  param ctx "config" "default (pea, closure tier, sync compile)";
  let sources = List.map Codegen.source_for_row rows in
  let rows = List.mapi (fun i r -> (i, r)) (repeated_setup ctx ~reps:setup_reps (setup sources)) in
  let vms = List.map (fun (_, r) -> r.vm) rows in
  let st = rng ctx 1 in
  let acc = exec_acc () in
  let before = counters vms in
  let min_passes = if ctx.trace then 3 else 1 in
  let t_start = now_ns () in
  let passes = ref 0 in
  while !passes < min_passes || secs_since t_start < ctx.seconds do
    let traced = ctx.trace && !passes mod 2 = 1 in
    Spans.enabled := traced;
    let order = Array.of_list (shuffled st rows) in
    let lat = Array.make (Array.length order) 0.0 in
    let (), pass_ns =
      timed (fun () ->
          Spans.span "bench.pass" (fun () ->
              Array.iteri
                (fun j (_, r) ->
                  let (), ns =
                    Spans.unit "bench.unit" (fun () -> exec_measure acc [ r.vm ] (fun () -> run_iteration r))
                  in
                  lat.(j) <- ms ns)
                order))
    in
    Spans.enabled := false;
    record_slice ctx ~ns:pass_ns ~traced (Array.map fst order) lat;
    if !passes = 0 then begin
      let after = counters vms in
      let delta = List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before in
      fingerprint ctx after;
      report_model ctx ~delta ~totals:after ~units:(List.length rows) ~iters:(List.length rows)
    end;
    incr passes
  done;
  report_exec ctx acc;
  param ctx "passes" (string_of_int !passes);
  let rows = List.map snd rows in
  Spans.enabled := ctx.trace;
  if ctx.trace then
    Spans.unit "bench.measure" (fun () ->
        List.iter (fun r -> Replay.replay_vm ctx Pea_vm.Jit.default_config r.program r.vm) rows);
  Spans.unit "bench.reference" (fun () -> check_rows ctx rows)

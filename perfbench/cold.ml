(* cold-start: the 27 Table-1 rows regenerated with a small per-iteration
   op count (knobs from [Codegen.calibrate]). The op counts are spread
   evenly over [ops_lo, ops_hi] and dealt to the rows in a seed-shuffled
   order, so every seed runs the same total of ops. One unit takes a
   program from source to the end of [main_calls] main calls in a fresh
   VM in the default configuration; a pass runs every row once, in a
   seed-shuffled order. Set-up generates the sources. *)

open Common
module Spec = Pea_workloads.Spec
module Codegen = Pea_workloads.Codegen

let ops_lo = 20

let ops_hi = 50

let main_calls = 12

let setup_reps = 101

(* Every pass runs the same programs, so passes differ only in order
   and in what else the host runs beside them. *)
let setup ops () =
  Array.of_list (List.map2 (fun row ops -> Codegen.source { (Codegen.calibrate row) with Codegen.ops }) Spec.all ops)

(* One program from source to the end of its last main call. *)
let run_program acc src =
  let program = frontend src in
  let vm = Spans.span "vm.create" (fun () -> Vm.create program) in
  let res, _ =
    exec_measure acc [ vm ] (fun () ->
        try render (Spans.span "vm.run_main_iterations" (fun () -> Vm.run_main_iterations vm main_calls))
        with e -> raised e)
  in
  (program, vm, res)

(* Each row's reference: an interpreter-only VM making the same main
   calls. *)
let check_rows ctx sources outcomes =
  let ns = ref 0 and instrs = ref 0 in
  let expected =
    Array.map
      (fun src ->
        let vm = interp_vm (frontend src) in
        let e, t =
          timed (fun () ->
              try render (Spans.span "rt.interp_run" (fun () -> Vm.run_main_iterations vm main_calls))
              with e -> raised e)
        in
        ns := !ns + t;
        instrs := !instrs + Stats.get (Vm.stats vm) Stats.interpreted_instrs;
        e)
      sources
  in
  List.iter (fun (row, actual) -> check ctx ~expected:expected.(row) ~actual) outcomes;
  report_interp ctx ~ns:!ns ~instrs:!instrs

let run ctx =
  let st = rng ctx 2 in
  let n = List.length Spec.all in
  let ops = shuffled st (List.init n (fun i -> ops_lo + (i * (ops_hi - ops_lo) / (n - 1)))) in
  param ctx "rows" (string_of_int (List.length Spec.all));
  param ctx "ops" (Printf.sprintf "%d..%d" ops_lo ops_hi);
  param ctx "row_ops" (String.concat "," (List.map string_of_int ops));
  param ctx "main_calls" (string_of_int main_calls);
  param ctx "config" "default (pea, closure tier, sync compile)";
  let sources = repeated_setup ctx ~reps:setup_reps (setup ops) in
  let rows = List.init (Array.length sources) Fun.id in
  let acc = exec_acc () in
  let outcomes = ref [] (* (row, result) *) in
  let replay_set = ref [] in
  let min_passes = if ctx.trace then 3 else 1 in
  let t_start = now_ns () in
  let passes = ref 0 in
  while !passes < min_passes || secs_since t_start < ctx.seconds do
    let traced = ctx.trace && !passes mod 2 = 1 in
    Spans.enabled := traced;
    let order = Array.of_list (shuffled st rows) in
    let lat = Array.make (Array.length order) 0.0 in
    let ran, pass_ns =
      timed (fun () ->
          Spans.span "bench.pass" (fun () ->
              Array.mapi
                (fun j row ->
                  let (program, vm, res), ns =
                    timed (fun () -> Spans.unit "bench.unit" (fun () -> run_program acc sources.(row)))
                  in
                  lat.(j) <- ms ns;
                  outcomes := (row, res) :: !outcomes;
                  (program, vm))
                order))
    in
    Spans.enabled := false;
    record_slice ctx ~ns:pass_ns ~traced order lat;
    let ran = Array.to_list ran in
    if !passes = 0 then begin
      let c = counters (List.map snd ran) in
      fingerprint ctx c;
      report_model ctx ~delta:c ~totals:c ~units:(List.length ran) ~iters:(List.length ran * main_calls)
    end
    else if traced && !replay_set = [] then replay_set := ran;
    incr passes
  done;
  report_exec ctx acc;
  param ctx "passes" (string_of_int !passes);
  Spans.enabled := ctx.trace;
  if ctx.trace then
    Spans.unit "bench.measure" (fun () ->
        List.iter (fun (program, vm) -> Replay.replay_vm ctx Pea_vm.Jit.default_config program vm) !replay_set);
  Spans.unit "bench.reference" (fun () -> check_rows ctx sources !outcomes)

(* The repository benchmark. Run through run.py, which builds it:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--out-dir DIR] [--rev REV] [--corrupt-reference]

   It prints a header of "# " lines, then, as its last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0 (run.py adds peak_rss_mb), the per-layer
   metrics with --trace 1. Every
   unit is checked against an interpreter-only run; the exit code is 1
   when any unit failed or a run-level check (cost-model fingerprint,
   JIT replay, replay-vs-threaded serving) did not hold. *)

open Common

let workloads = [ ("table1-steady", Table1.run); ("cold-start", Cold.run); ("serve-mixed", Serve.run) ]

(* peak_rss_mb, the last end-to-end metric, is added by run.py, which
   reads the peak resident set size of this process when it exits. *)
let end_to_end = [ ("setup_s", "s"); ("units_per_s", "1/s"); ("unit_ms_p99", "ms"); ("unit_ms_geomean", "ms") ]

let layers = [ "mjava"; "bytecode"; "ir"; "opt"; "core"; "analysis"; "vm"; "rt"; "serve" ]

let per_layer =
  [
    ("mjava.parse_ms", "ms");
    ("mjava.typecheck_ms", "ms");
    ("bytecode.link_ms", "ms");
    ("analysis.summary_ms", "ms");
    ("ir.build_ms", "ms");
    ("opt.inline_ms", "ms");
    ("opt.simplify_ms", "ms");
    ("opt.prune_ms", "ms");
    ("core.pea_ms", "ms");
    ("opt.cleanup_ms", "ms");
    ("analysis.spec_check_ms", "ms");
    ("vm.jit_compile_ms", "ms");
    ("vm.compiled_methods", "count");
    ("ir.nodes_built", "count");
    ("ir.nodes_final", "count");
    ("core.virtualized_allocs", "count");
    ("vm.exec_ns_per_op", "ns");
    ("vm.compiled_ops_per_iter", "count");
    ("rt.ocaml_minor_words_per_op", "words");
    ("vm.ic_hit_ratio", "ratio");
    ("rt.gc_major_collections", "count");
    ("rt.interp_ns_per_bytecode", "ns");
    ("rt.interpreted_instrs", "count");
    ("serve.execute_ms_p50", "ms");
    ("serve.barrier_ms_p50", "ms");
    ("serve.replay_execute_ms_p50", "ms");
    ("serve.handoff_ms_p50", "ms");
    ("vm.invoke_us_p50", "us");
    ("serve.cache_shared_hits", "count");
    ("serve.cache_epoch_rejects", "count");
    ("serve.compile_dedup_hits", "count");
    ("serve.tenant_quarantines", "count");
    ("vm.compile_installs", "count");
    ("vm.compile_drops", "count");
    ("vm.compile_stale_discards", "count");
    ("rt.cycles_per_iter", "count");
    ("rt.allocs_per_iter", "count");
    ("vm.deopts", "count");
    ("vm.rematerialized", "count");
    ("vm.osr_entries", "count");
    ("bench.trace_overhead", "ratio");
  ]
  @ List.map (fun l -> ("self_pct." ^ l, "%")) (layers @ [ "unattributed" ])

(* Self time per layer as a share of the traced wall time (the root
   spans); bench.* spans are the benchmark's own glue, reported as the
   unattributed share. *)
let report_self_times ctx =
  let by_layer, total = Spans.self_times () in
  let pct ns = if total = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int total in
  List.iter (fun l -> set ctx ("self_pct." ^ l) (pct (Option.value (Hashtbl.find_opt by_layer l) ~default:0))) layers;
  set ctx "self_pct.unattributed" (pct (Option.value (Hashtbl.find_opt by_layer "bench") ~default:0))

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let usage () =
  prerr_endline
    "usage: bench.exe --workload (table1-steady|cold-start|serve-mixed) --seed N --seconds S --trace 0|1 \
     [--out-dir DIR] [--rev REV] [--corrupt-reference]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let out_dir = ref "." and rev = ref "unknown" and corrupt = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--out-dir" :: v :: rest -> out_dir := v; parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | "--corrupt-reference" :: rest -> corrupt := true; parse rest
    | arg :: _ -> prerr_endline ("perfbench: unexpected argument " ^ arg); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run, seed, seconds, trace =
    match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
    | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 -> (run, seed, seconds, trace)
    | _ -> usage ()
  in
  let ctx =
    {
      workload = !workload;
      seed;
      seconds;
      trace;
      corrupt_reference = !corrupt;
      out_dir = !out_dir;
      metrics = Hashtbl.create 64;
      params = [];
      attempted = 0;
      failed = 0;
      problems = [];
      slices = [];
    }
  in
  Spans.enabled := trace;
  (try run ctx with e -> problem ctx ("benchmark raised " ^ Printexc.to_string e));
  Spans.enabled := false;
  if trace then begin
    report_overhead ctx;
    Replay.report ctx;
    report_self_times ctx;
    Spans.write (Filename.concat ctx.out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" ctx.workload seed))
  end
  else report_timing ctx;
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) -> if (not trace) && not (Hashtbl.mem ctx.metrics name) then problem ctx (name ^ " was not measured"))
    catalogue;
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" ctx.workload seed seconds (Bool.to_int trace);
  Printf.printf "# host nproc=%d ocaml=%s rev=%s\n" nproc Sys.ocaml_version !rev;
  Printf.printf "# params %s\n" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) ctx.params));
  Printf.printf "# failed_ratio %s (%d of %d units)\n"
    (json_number (ratio ctx.failed (max 1 ctx.attempted)))
    ctx.failed ctx.attempted;
  List.iter
    (fun (name, unit) ->
      Printf.printf "# %-32s %14s %s\n" name
        (json_number (Option.value (Hashtbl.find_opt ctx.metrics name) ~default:0.0))
        unit)
    catalogue;
  let correct = ctx.failed = 0 && ctx.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 ctx.attempted) ctx.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number (Option.value (Hashtbl.find_opt ctx.metrics name) ~default:0.0))
              unit)
          catalogue));
  exit (if correct then 0 else 1)

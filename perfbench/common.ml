(* State shared by the workloads: run options, the metric table, unit
   accounting against the interpreter reference, counters and the
   cost-model fingerprint. *)

module Vm = Pea_vm.Vm
module Stats = Pea_rt.Stats
module Value = Pea_rt.Value
module Interp = Pea_rt.Interp
module Link = Pea_bytecode.Link

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt_reference : bool; (* self-check: every reference is made wrong *)
  out_dir : string;
  metrics : (string, float) Hashtbl.t;
  mutable params : (string * string) list; (* generated parameters, for the header *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list; (* run-level failures besides units *)
  mutable slices : slice list; (* the timed part, newest first *)
}

(* A run times its units in slices: one pass over the rows, or one
   session. Entry [i] of a slice is a row (or a script round, whose
   requests all share its latency) named [sl_groups.(i)] that took
   [sl_lat_ms.(i)]; [sl_units] counts the units of all entries. *)
and slice = { sl_ns : int; sl_traced : bool; sl_units : int; sl_groups : int array; sl_lat_ms : float array }

let nproc = Domain.recommended_domain_count ()

let set ctx name v = Hashtbl.replace ctx.metrics name v

let param ctx key value = ctx.params <- ctx.params @ [ (key, value) ]

let problem ctx msg =
  ctx.problems <- msg :: ctx.problems;
  prerr_endline ("perfbench: " ^ msg)

let now_ns = Spans.now_ns

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* [timed f] is [f ()] and its wall time in ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks of [a], which it sorts;
   0 on no samples. *)
let quantile_of (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(min (lo + 1) (n - 1)) -. a.(lo)))
  end

let quantile xs q = quantile_of (Array.of_list xs) q

let median xs = quantile xs 0.5

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let rng ctx salt = Random.State.make [| ctx.seed; salt |]

let shuffled st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let record_slice ?(units_per_entry = 1) ctx ~ns ~traced groups lat_ms =
  ctx.slices <-
    { sl_ns = ns; sl_traced = traced; sl_units = units_per_entry * Array.length lat_ms; sl_groups = groups; sl_lat_ms = lat_ms }
    :: ctx.slices

let ns_per_unit s = float_of_int s.sl_ns /. float_of_int (max 1 s.sl_units)

(* The end-to-end timing metrics of an untraced run, over all its slices:
   - units_per_s: units over the slices' wall time;
   - unit_ms_p99: the 99th percentile of the unit latencies;
   - unit_ms_geomean: the geometric mean over groups (rows, script
     rounds) of each group's median latency. *)
let report_timing ctx =
  let units = List.fold_left (fun acc s -> acc + s.sl_units) 0 ctx.slices in
  let ns = List.fold_left (fun acc s -> acc + s.sl_ns) 0 ctx.slices in
  set ctx "units_per_s" (float_of_int units /. (float_of_int ns /. 1e9));
  set ctx "unit_ms_p99" (quantile_of (Array.concat (List.map (fun s -> s.sl_lat_ms) ctx.slices)) 0.99);
  let by_group = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Array.iteri
        (fun i g -> Hashtbl.replace by_group g (s.sl_lat_ms.(i) :: Option.value (Hashtbl.find_opt by_group g) ~default:[]))
        s.sl_groups)
    ctx.slices;
  set ctx "unit_ms_geomean" (geomean (Hashtbl.fold (fun _ l acc -> median l :: acc) by_group []));
  param ctx "timed_units" (string_of_int units)

(* Set-up is repeated [reps] times; [setup_s] is the median and the
   state of the last repetition is kept. *)
let repeated_setup ctx ~reps f =
  let rec go i times last =
    if i = reps then begin
      set ctx "setup_s" (median times);
      Option.get last
    end
    else
      let state, ns = timed (fun () -> Spans.unit "bench.setup" f) in
      go (i + 1) ((float_of_int ns /. 1e9) :: times) (Some state)
  in
  go 0 [] None

(* ------------------------------------------------------------------ *)
(* Results and the interpreter reference                               *)
(* ------------------------------------------------------------------ *)

(* What one [main] run observably computed: its return value and
   everything printed so far. A raise never matches a reference. *)
let render (r : Vm.result) =
  Printf.sprintf "%s|%s"
    (match r.Vm.return_value with Some v -> Value.string_of_value v | None -> "void")
    (String.concat "," (List.map Value.string_of_value r.Vm.printed))

let raised e = "raised:" ^ Printexc.to_string e

let is_raise s = String.length s >= 7 && String.sub s 0 7 = "raised:"

let reference ctx s = if ctx.corrupt_reference then s ^ "#corrupted" else s

(* Count one unit; it fails if it raised or differs from the reference. *)
let check ctx ~expected ~actual =
  ctx.attempted <- ctx.attempted + 1;
  if is_raise actual || actual <> reference ctx expected then begin
    if ctx.failed < 5 then
      prerr_endline (Printf.sprintf "perfbench: unit mismatch: got %s, reference %s" actual expected);
    ctx.failed <- ctx.failed + 1
  end

(* A VM on the same program that only ever interprets. *)
let interp_vm program =
  let vm = Vm.create program in
  Vm.set_interp_only vm;
  vm

(* The three frontend stages [Link.compile_source] runs, one span each. *)
let frontend src =
  let ast = Spans.span "mjava.parse" (fun () -> Pea_mjava.Parser.parse_program src) in
  let tp = Spans.span "mjava.typecheck" (fun () -> Pea_mjava.Typecheck.check_program ast) in
  Spans.span "bytecode.link" (fun () -> Link.link_program tp)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let sum vms metric = List.fold_left (fun acc vm -> acc + Stats.get (Vm.stats vm) metric) 0 vms

(* The cost-model counters that must repeat exactly for a seed. *)
let model_counters =
  [
    ("cycles", Stats.cycles);
    ("allocations", Stats.allocations);
    ("compiled_ops", Stats.compiled_ops);
    ("interpreted_instrs", Stats.interpreted_instrs);
    ("deopts", Stats.deopts);
    ("rematerialized", Stats.rematerialized);
    ("osr_entries", Stats.osr_entries);
    ("compiled_methods", Stats.compiled_methods);
  ]

let counters vms = List.map (fun (name, m) -> (name, sum vms m)) model_counters

(* Reports the cost-model metrics of the fingerprint prefix: per-iteration
   rates from [delta] (the prefix's [units] units, [iters] main calls or
   requests) and event counts from [totals]. *)
let report_model ctx ~delta ~totals ~units ~iters =
  let d k = List.assoc k delta and t k = float_of_int (List.assoc k totals) in
  set ctx "rt.cycles_per_iter" (ratio (d "cycles") iters);
  set ctx "rt.allocs_per_iter" (ratio (d "allocations") iters);
  set ctx "vm.compiled_ops_per_iter" (ratio (d "compiled_ops") iters);
  set ctx "rt.interpreted_instrs" (ratio (d "interpreted_instrs") units);
  set ctx "vm.deopts" (t "deopts");
  set ctx "vm.rematerialized" (t "rematerialized");
  set ctx "vm.osr_entries" (t "osr_entries");
  set ctx "vm.compiled_methods" (t "compiled_methods")

(* Files a build keeps across runs in [out_dir] carry its digest. *)
let build_id = lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)

let write_file path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
  Sys.rename tmp path

(* The cost-model fingerprint of this seed's prefix is stored on its
   first run; every later run of the same workload and seed by the same
   build must reproduce it exactly. *)
let fingerprint ctx (c : (string * int) list) =
  let text = String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) c) in
  let path =
    Filename.concat ctx.out_dir
      (Printf.sprintf "fingerprint-%s-seed%d-%s.txt" ctx.workload ctx.seed (Lazy.force build_id))
  in
  if Sys.file_exists path then begin
    let stored = In_channel.with_open_bin path In_channel.input_all in
    if stored <> text then
      problem ctx
        (Printf.sprintf "cost-model fingerprint differs from the stored one in %s:\nstored:\n%snow:\n%s" path
           stored text)
  end
  else write_file path text

(* [cached_reference ctx src n compute] is [compute n]: the first [n]
   interpreter results of program [src]. Such a reference depends only on
   the source and the build, so it is stored in [out_dir] under both
   digests and reused by later runs that need no more results than are
   stored. A traced run always computes it, because it times the
   interpreter. *)
let cached_reference ctx src n compute =
  let path =
    Filename.concat ctx.out_dir
      (Printf.sprintf "reference-%s-%s.txt" (Lazy.force build_id) (Digest.to_hex (Digest.string src)))
  in
  let stored =
    if ctx.trace || not (Sys.file_exists path) then []
    else List.map Scanf.unescaped (In_channel.with_open_bin path In_channel.input_lines)
  in
  if List.length stored >= n then List.filteri (fun i _ -> i < n) stored
  else begin
    let results = compute n in
    write_file path (String.concat "" (List.map (fun r -> String.escaped r ^ "\n") results));
    results
  end

(* Execution-layer metrics over the timed units: wall ns spent running
   code, compiled ops, OCaml minor words, inline-cache hits and misses,
   OCaml major collections. *)
type exec = {
  mutable x_ns : int;
  mutable x_ops : int;
  mutable x_words : float;
  mutable x_ic_hits : int;
  mutable x_ic_misses : int;
  mutable x_majors : int;
}

let exec_acc () = { x_ns = 0; x_ops = 0; x_words = 0.0; x_ic_hits = 0; x_ic_misses = 0; x_majors = 0 }

(* [exec_measure acc vms f] runs [f] and charges its wall time and the
   counter deltas of [vms] to [acc]. *)
let exec_measure acc vms f =
  let get m = sum vms m in
  let ops0 = get Stats.compiled_ops and h0 = get Stats.ic_hits and m0 = get Stats.ic_misses in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let r, ns = timed f in
  acc.x_ns <- acc.x_ns + ns;
  acc.x_ops <- acc.x_ops + (get Stats.compiled_ops - ops0);
  acc.x_words <- acc.x_words +. (Gc.minor_words () -. w0);
  acc.x_ic_hits <- acc.x_ic_hits + (get Stats.ic_hits - h0);
  acc.x_ic_misses <- acc.x_ic_misses + (get Stats.ic_misses - m0);
  acc.x_majors <- acc.x_majors + ((Gc.quick_stat ()).Gc.major_collections - g0);
  (r, ns)

let report_exec ctx acc =
  set ctx "vm.exec_ns_per_op" (ratio acc.x_ns acc.x_ops);
  set ctx "rt.ocaml_minor_words_per_op"
    (if acc.x_ops = 0 then 0.0 else acc.x_words /. float_of_int acc.x_ops);
  set ctx "vm.ic_hit_ratio" (ratio acc.x_ic_hits (acc.x_ic_hits + acc.x_ic_misses));
  set ctx "rt.gc_major_collections" (float_of_int acc.x_majors)

(* Interpreter speed: wall ns over bytecodes of interpreter-only runs. *)
let report_interp ctx ~ns ~instrs = set ctx "rt.interp_ns_per_bytecode" (ratio ns instrs)

(* [bench.trace_overhead]: the median time per unit of the traced slices
   over that of the untraced ones. *)
let report_overhead ctx =
  let traced, untraced = List.partition (fun s -> s.sl_traced) ctx.slices in
  let per_unit ss = median (List.map ns_per_unit ss) in
  set ctx "bench.trace_overhead" (if traced = [] || untraced = [] then 0.0 else per_unit traced /. per_unit untraced)

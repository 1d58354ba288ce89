(* Environment-variable overrides for the test suites, so the whole suite
   can be re-run under a forced VM configuration (see bench/run_matrix.sh):

   - MJVM_TEST_OPT = none | ea | pea   forces the optimization level;
   - MJVM_TEST_SUMMARIES = on | off forces interprocedural summaries;
   - MJVM_TEST_OSR = on | off forces on-stack replacement on or off;
   - MJVM_TEST_COMPILE_MODE = sync | async | replay forces when the
     compile pipeline runs relative to the mutator (background
     compilation; replay is the single-threaded deterministic twin of
     async);
   - MJVM_TEST_CHECK_LEVEL = none | phase-end | every-phase forces when
     the speculation-safety verifier runs in the JIT pipeline;
   - MJVM_TEST_ORACLE = on | off forces the bisimulation deopt oracle;
   - MJVM_TEST_STACKALLOC = on | off forces the stack-allocation tier
     (frame-bounded materializations placed in the frame's stack region
     instead of the heap) on or off;
   - MJVM_TEST_INLINING = on | off forces speculative guarded inlining
     (profile-driven dominant-receiver inlining behind exact-class
     guards) on or off;
   - MJVM_TEST_QCHECK_COUNT = N (positive) scales the qcheck case counts
     (the matrix run uses 500+; the default local counts keep the suite
     fast);
   - MJVM_TEST_TRACE = on | off installs a global tracer for the whole
     suite, so every cell also exercises the instrumentation paths (the
     trace itself is discarded — the point is that results and counters
     must not move);
   - MJVM_TEST_PROFILE = on | off installs the global sampling and heap
     profilers for the whole suite, same discipline as MJVM_TEST_TRACE:
     the profiles are discarded, the point is that profiling must not
     move any result or deterministic counter;

   on | off also accept 1 | 0 and true | false. Unset variables leave the
   test's own configuration untouched. A set MJVM_TEST_* variable this
   module does not read, or a value it does not recognise, fails the run
   at startup: a typo in a matrix cell must not silently run the default
   configuration. *)

open Pea_vm

(* [get ~env var parse] reads [var] through [env]; [None] when unset. A
   value [parse] rejects fails with a message naming the variable. *)
let get ?(env = Sys.getenv_opt) var parse =
  match env var with
  | None -> None
  | Some v -> (
      match parse v with
      | Some x -> Some x
      | None -> failwith (Printf.sprintf "%s=%S: unrecognised value" var v))

let flag = function
  | "on" | "1" | "true" -> Some true
  | "off" | "0" | "false" -> Some false
  | _ -> None

let choice l v = List.assoc_opt v l

let positive s = match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

(* [apply_env env cfg] is [apply] reading the variables through [env]. *)
let apply_env env (cfg : Jit.config) =
  let set var parse f cfg = match get ~env var parse with Some x -> f cfg x | None -> cfg in
  cfg
  |> set "MJVM_TEST_OPT"
       (choice [ ("none", Jit.O_none); ("ea", Jit.O_ea); ("pea", Jit.O_pea) ])
       (fun c opt -> { c with Jit.opt })
  |> set "MJVM_TEST_SUMMARIES" flag (fun c summaries -> { c with Jit.summaries })
  |> set "MJVM_TEST_OSR" flag (fun c osr -> { c with Jit.osr })
  |> set "MJVM_TEST_COMPILE_MODE"
       (choice [ ("sync", Jit.Sync); ("async", Jit.Async); ("replay", Jit.Replay) ])
       (fun c compile_mode -> { c with Jit.compile_mode })
  |> set "MJVM_TEST_CHECK_LEVEL" Pea_analysis.Spec_check.level_of_string (fun c check_level ->
         { c with Jit.check_level })
  |> set "MJVM_TEST_INLINING" flag (fun c inlining -> { c with Jit.inlining })
  |> set "MJVM_TEST_ORACLE" flag (fun c oracle -> { c with Jit.oracle })
  |> set "MJVM_TEST_STACKALLOC" flag (fun c stackalloc -> { c with Jit.stackalloc })

let apply cfg = apply_env Sys.getenv_opt cfg

let known =
  [
    "MJVM_TEST_OPT";
    "MJVM_TEST_SUMMARIES";
    "MJVM_TEST_OSR";
    "MJVM_TEST_COMPILE_MODE";
    "MJVM_TEST_CHECK_LEVEL";
    "MJVM_TEST_INLINING";
    "MJVM_TEST_ORACLE";
    "MJVM_TEST_STACKALLOC";
    "MJVM_TEST_QCHECK_COUNT";
    "MJVM_TEST_TRACE";
    "MJVM_TEST_PROFILE";
  ]

(* [check_env vars] validates an environment given as [(name, value)]
   pairs: every MJVM_TEST_* name must be one this module reads, and every
   value one it recognises.
   @raise Failure naming the offending variable and value. *)
let check_env vars =
  List.iter
    (fun (var, v) ->
      if String.starts_with ~prefix:"MJVM_TEST_" var && not (List.mem var known) then
        failwith (Printf.sprintf "%s=%S: unknown test variable" var v))
    vars;
  let env var = List.assoc_opt var vars in
  ignore (apply_env env Jit.default_config);
  ignore (get ~env "MJVM_TEST_QCHECK_COUNT" positive);
  ignore (get ~env "MJVM_TEST_TRACE" flag);
  ignore (get ~env "MJVM_TEST_PROFILE" flag)

let () =
  check_env
    (List.filter_map
       (fun kv ->
         Option.map
           (fun i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)))
           (String.index_opt kv '='))
       (Array.to_list (Unix.environment ())))

let () = if get "MJVM_TEST_TRACE" flag = Some true then Pea_obs.Trace.install (Pea_obs.Trace.create ())

let () =
  if get "MJVM_TEST_PROFILE" flag = Some true then begin
    Pea_obs.Profile_cpu.install (Pea_obs.Profile_cpu.create ());
    Pea_obs.Profile_heap.install (Pea_obs.Profile_heap.create ())
  end

(* Tests that compare optimization levels against each other are
   meaningless when the level is forced from the outside. *)
let opt_forced () = Sys.getenv_opt "MJVM_TEST_OPT" <> None

(* The forced stack-allocation setting, for suites that sweep both
   halves themselves when it is unset. *)
let stackalloc () = get "MJVM_TEST_STACKALLOC" flag

(* qcheck case count: [default] unless MJVM_TEST_QCHECK_COUNT is set. *)
let qcheck_count default =
  Option.value (get "MJVM_TEST_QCHECK_COUNT" positive) ~default

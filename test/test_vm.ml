(* Differential testing of the tiered VM: for every corpus program, the
   interpreter-only run is the reference semantics; compiled runs under
   every optimization level must produce identical results and prints.
   Additionally, the paper's central invariant is checked: partial escape
   analysis never increases the dynamic number of allocations or monitor
   operations ("there will always be at most as many dynamic allocations
   as in the original code", §4). *)

open Pea_rt
open Pea_vm

let string_of_result = function
  | None -> "void"
  | Some v -> Value.string_of_value v

let config opt ~threshold =
  Test_env.apply { Jit.default_config with Jit.opt; compile_threshold = threshold }

let run_vm src cfg ~iterations =
  let program = Pea_bytecode.Link.compile_source src in
  let vm = Vm.create ~config:cfg program in
  Vm.run_main_iterations vm iterations

let opt_name = function Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea"

(* One corpus program, one optimization level: semantics must match the
   interpreter across repeated iterations (cold -> warm -> compiled). *)
let check_semantics name src opt () =
  let reference = Run.run_source src in
  let iterations = 6 in
  List.iter
    (fun threshold ->
      let r = run_vm src (config opt ~threshold) ~iterations in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s/t%d return" name (opt_name opt) threshold)
        (string_of_result reference.Run.return_value)
        (string_of_result r.Vm.return_value);
      let expected_prints =
        List.concat (List.init iterations (fun _ -> reference.Run.printed))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s/t%d prints" name (opt_name opt) threshold)
        (List.map Value.string_of_value expected_prints)
        (List.map Value.string_of_value r.Vm.printed))
    [ 0; 3 ]

(* Allocation / monitor monotonicity: O_pea <= O_ea <= ... is not required
   in general, but O_pea <= O_none and O_ea <= O_none must hold. *)
let check_monotonicity name src () =
  let iterations = 8 in
  let measure opt = run_vm src (config opt ~threshold:0) ~iterations in
  let none = measure Jit.O_none in
  let ea = measure Jit.O_ea in
  let pea = measure Jit.O_pea in
  let allocs (r : Vm.result) = r.Vm.stats.Stats.s_allocations in
  let monitors (r : Vm.result) = r.Vm.stats.Stats.s_monitor_ops in
  if allocs pea > allocs none then
    Alcotest.failf "%s: PEA increased allocations (%d > %d)" name (allocs pea) (allocs none);
  if allocs ea > allocs none then
    Alcotest.failf "%s: EA increased allocations (%d > %d)" name (allocs ea) (allocs none);
  if monitors pea > monitors none then
    Alcotest.failf "%s: PEA increased monitor ops (%d > %d)" name (monitors pea) (monitors none);
  (* PEA subsumes whole-method EA on allocation removal *)
  if allocs pea > allocs ea then
    Alcotest.failf "%s: PEA removed fewer allocations than EA (%d > %d)" name (allocs pea)
      (allocs ea)

let semantics_cases =
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun opt ->
          Alcotest.test_case (Printf.sprintf "%s [%s]" name (opt_name opt)) `Quick
            (check_semantics name src opt))
        [ Jit.O_none; Jit.O_ea; Jit.O_pea ])
    Programs.corpus

let monotonicity_cases =
  List.map
    (fun (name, src) -> Alcotest.test_case name `Quick (check_monotonicity name src))
    Programs.corpus

(* PEA should fully remove the allocations of the classic fully-local
   example once the method is compiled. *)
let test_scalar_replacement_wins () =
  if Test_env.opt_forced () then ()
  else
  let src =
    "class P { int x; int y; P(int a, int b) { x = a; y = b; } }\n\
     class Main {\n\
    \  static int compute(int i) { P p = new P(i, i * 2); return p.x + p.y; }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 100) { acc = acc + compute(i); i = i + 1; } return acc; }\n\
     }"
  in
  let none = run_vm src (config Jit.O_none ~threshold:0) ~iterations:2 in
  let pea = run_vm src (config Jit.O_pea ~threshold:0) ~iterations:2 in
  Alcotest.(check string)
    "same result"
    (string_of_result none.Vm.return_value)
    (string_of_result pea.Vm.return_value);
  if pea.Vm.stats.Stats.s_allocations >= none.Vm.stats.Stats.s_allocations then
    Alcotest.failf "expected PEA to remove allocations (%d vs %d)"
      pea.Vm.stats.Stats.s_allocations none.Vm.stats.Stats.s_allocations

(* Lock elision: a synchronized method on a non-escaping receiver loses its
   monitor operations under PEA. *)
let test_lock_elision () =
  if Test_env.opt_forced () then ()
  else
  let src =
    "class G { int v; synchronized int addTo(int x) { v = v + x; return v; } }\n\
     class Main {\n\
    \  static int once(int i) { G g = new G(); g.addTo(i); return g.addTo(i); }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 50) { acc = acc + once(i); i = i + 1; } return acc; }\n\
     }"
  in
  let none = run_vm src (config Jit.O_none ~threshold:0) ~iterations:2 in
  let pea = run_vm src (config Jit.O_pea ~threshold:0) ~iterations:2 in
  Alcotest.(check string)
    "same result"
    (string_of_result none.Vm.return_value)
    (string_of_result pea.Vm.return_value);
  if pea.Vm.stats.Stats.s_monitor_ops >= none.Vm.stats.Stats.s_monitor_ops then
    Alcotest.failf "expected PEA to elide monitors (%d vs %d)" pea.Vm.stats.Stats.s_monitor_ops
      none.Vm.stats.Stats.s_monitor_ops

(* The env-driven matrix fails loudly on a typo: an unrecognised value
   of a known axis, or a set MJVM_TEST_* variable nothing reads (a
   misspelt or retired axis), names the variable and the value instead
   of silently running the default configuration. *)
let test_env_rejects_unknown () =
  let rejects what vars ~needles =
    match Test_env.check_env vars with
    | () -> Alcotest.failf "%s accepted" what
    | exception Failure msg ->
        List.iter
          (fun needle ->
            if not (Test_support.contains msg needle) then
              Alcotest.failf "%s: message %S does not name %S" what msg needle)
          needles
  in
  rejects "misspelt opt level" [ ("MJVM_TEST_OPT", "paa") ] ~needles:[ "MJVM_TEST_OPT"; "paa" ];
  rejects "non-boolean summaries" [ ("MJVM_TEST_SUMMARIES", "yes") ]
    ~needles:[ "MJVM_TEST_SUMMARIES"; "yes" ];
  rejects "zero qcheck count" [ ("MJVM_TEST_QCHECK_COUNT", "0") ]
    ~needles:[ "MJVM_TEST_QCHECK_COUNT" ];
  rejects "unread axis" [ ("MJVM_TEST_OSRR", "on") ] ~needles:[ "MJVM_TEST_OSRR"; "on" ];
  (* retired axes stay rejected: threaded serving always runs now *)
  rejects "retired serving axis" [ ("MJVM_TEST_SERVE", "real") ]
    ~needles:[ "MJVM_TEST_SERVE"; "real" ];
  (* recognised values and unrelated variables pass *)
  Test_env.check_env
    [
      ("MJVM_TEST_OPT", "ea");
      ("MJVM_TEST_SUMMARIES", "off");
      ("MJVM_TEST_CHECK_LEVEL", "every-phase");
      ("MJVM_TEST_QCHECK_COUNT", "500");
      ("PATH", "/bin");
    ]

let () =
  Alcotest.run "vm"
    [
      ("semantics", semantics_cases);
      ("monotonicity", monotonicity_cases);
      ( "wins",
        [
          Alcotest.test_case "scalar replacement removes allocations" `Quick
            test_scalar_replacement_wins;
          Alcotest.test_case "lock elision removes monitor ops" `Quick test_lock_elision;
        ] );
      ("test-env", [ Alcotest.test_case "rejects unknown values" `Quick test_env_rejects_unknown ]);
    ]

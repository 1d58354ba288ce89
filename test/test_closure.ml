(* Closure execution tier tests: inline-cache behavior (monomorphic hit,
   polymorphic rebias, deopt invalidation), frame pooling, typed frames
   (int/boolean parameters, OSR entry, boxing traps, no allocation on
   int paths), and cost-model parity of virtual dispatch with the
   {!Ir_exec} reference.
   Parity on generated programs is a graph-level property in
   test_properties.ml. *)

open Pea_bytecode
open Pea_rt
open Pea_vm

let vint n = Value.Vint n

let vbool b = Value.Vbool b

let as_int = function
  | Some (Value.Vint n) -> n
  | other ->
      Alcotest.failf "expected an int result, got %s"
        (match other with None -> "void" | Some v -> Value.string_of_value v)

(* Inlining is off so the virtual calls survive to the IR (an inlined call
   has no dispatch and would never exercise the inline cache); escape
   analysis is off so receivers are real heap objects. *)
let ic_config =
  { Jit.default_config with Jit.opt = Jit.O_none; inline = false; compile_threshold = 5 }

let setup ?(config = ic_config) src =
  let program = Link.compile_source ~require_main:false src in
  (program, Vm.create ~config program)

let ic_src = Programs.ic_dispatch

(* A single receiver class: the cache is seeded from the interpreter's
   receiver profile, so once compiled, every dispatch is a fast-path hit —
   not even a first-call miss. *)
let test_ic_monomorphic () =
  let program, vm = setup ic_src in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 7 ]) in
  Vm.warm_up vm f [ a; vint 10 ] 10;
  let before = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "closure-compiled" true (before.Stats.s_closure_compiled_methods >= 1);
  Alcotest.(check int) "monomorphic result" 70 (as_int (Vm.invoke vm f [ a; vint 10 ]));
  let after = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "ic hits" true (after.Stats.s_ic_hits - before.Stats.s_ic_hits >= 10);
  Alcotest.(check int) "no ic misses for the profiled receiver" 0
    (after.Stats.s_ic_misses - before.Stats.s_ic_misses)

(* Alternating receiver classes: each flip misses once and rebiases the
   cache, so the calls within one invocation after the flip hit again.
   Results must reflect the dynamic type throughout. *)
let test_ic_polymorphic_rebias () =
  let program, vm = setup ic_src in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 3 ]) in
  let b = Option.get (Vm.invoke vm (Link.find_method program "C" "mkB") [ vint 3 ]) in
  Vm.warm_up vm f [ a; vint 10 ] 10;
  let before = Stats.snapshot (Vm.stats vm) in
  (* B.get doubles: 10 * 3 * 2 *)
  Alcotest.(check int) "B receiver" 60 (as_int (Vm.invoke vm f [ b; vint 10 ]));
  Alcotest.(check int) "A receiver" 30 (as_int (Vm.invoke vm f [ a; vint 10 ]));
  Alcotest.(check int) "B again" 60 (as_int (Vm.invoke vm f [ b; vint 10 ]));
  let after = Stats.snapshot (Vm.stats vm) in
  let misses = after.Stats.s_ic_misses - before.Stats.s_ic_misses in
  let hits = after.Stats.s_ic_hits - before.Stats.s_ic_hits in
  (* one miss per receiver flip (3 flips), the other 27 dispatches hit on
     the rebiased cache *)
  Alcotest.(check int) "one miss per receiver flip" 3 misses;
  Alcotest.(check int) "rebiased cache serves the rest" 27 hits

(* A deopt invalidates the compiled code and with it the cached dispatch
   targets; the recompiled closure code must still dispatch correctly for
   every receiver. *)
let test_ic_deopt_invalidation () =
  let src =
    "class A { int v; int get() { return v; } }\n\
     class B extends A { int get() { return v * 2; } }\n\
     class C {\n\
    \  static A global;\n\
    \  static A mkA(int v) { A a = new A(); a.v = v; return a; }\n\
    \  static A mkB(int v) { B b = new B(); b.v = v; return b; }\n\
    \  static int f(A a, boolean cold) {\n\
    \    if (cold) { C.global = a; }\n\
    \    return a.get() + 1;\n\
    \  }\n\
     }"
  in
  let config = { ic_config with Jit.compile_threshold = 25; prune = true } in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 5 ]) in
  let b = Option.get (Vm.invoke vm (Link.find_method program "C" "mkB") [ vint 5 ]) in
  Vm.warm_up vm f [ a; vbool false ] 40;
  let s0 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "closure-compiled" true (s0.Stats.s_closure_compiled_methods >= 1);
  (* trigger the pruned branch: deopt, invalidation, recompilation *)
  Alcotest.(check int) "deopt call result" 6 (as_int (Vm.invoke vm f [ a; vbool true ]));
  let s1 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "one deopt" 1 (s1.Stats.s_deopts - s0.Stats.s_deopts);
  (* the recompiled code re-seeds its caches and dispatches correctly *)
  Alcotest.(check int) "A after recompile" 6 (as_int (Vm.invoke vm f [ a; vbool true ]));
  Alcotest.(check int) "B after recompile" 11 (as_int (Vm.invoke vm f [ b; vbool true ]));
  let s2 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "no further deopts" 0 (s2.Stats.s_deopts - s1.Stats.s_deopts);
  Alcotest.(check bool) "recompiled for the closure tier" true
    (s2.Stats.s_closure_compiled_methods > s0.Stats.s_closure_compiled_methods)

(* Register files are pooled: one invocation acquires the file, a normal
   return releases it, and the next invocation reuses it (the pool never
   grows beyond the call depth). *)
let test_register_file_pool () =
  let program = Link.compile_source ~require_main:false "class C { static int f(int x) { int y = x * 3; return y + 1; } }" in
  let stats = Stats.create () in
  let heap = Heap.create stats in
  let profile = Profile.create program in
  let globals = Array.make (max program.Link.n_statics 1) Value.Vnull in
  let env =
    {
      Interp.heap;
      stats;
      profile;
      globals;
      on_invoke = (fun _ _ -> Alcotest.fail "no calls in this graph");
      on_print = ignore;
      on_back_edge = (fun _ ~header:_ ~locals:_ -> Interp.No_osr);
      hooks = None;
    }
  in
  let m = Link.find_method program "C" "f" in
  let compiled =
    Jit.compile { Jit.default_config with Jit.prune = false } program profile m
  in
  let code = Closure_compile.compile env compiled.Jit.graph in
  Alcotest.(check int) "empty pool after translation" 0 (Closure_compile.pool_depth code);
  Alcotest.(check int) "first run" 16 (as_int (Closure_compile.run code [ vint 5 ]));
  Alcotest.(check int) "file released on return" 1 (Closure_compile.pool_depth code);
  Alcotest.(check int) "second run reuses the file" 31
    (as_int (Closure_compile.run code [ vint 10 ]));
  Alcotest.(check int) "pool does not grow" 1 (Closure_compile.pool_depth code)

(* A deopt must not leak the register file: with an in-frame deopt handler
   the file goes back to the pool once rematerialization and re-entrant
   interpretation finish, so the pool depth recovers to the call depth. *)
let test_pool_recovers_after_deopt () =
  let src =
    "class C {\n\
    \  static int g;\n\
    \  static int f(int x, boolean cold) {\n\
    \    int y = x * 3;\n\
    \    if (cold) { C.g = y; }\n\
    \    return y + 1;\n\
    \  }\n\
     }"
  in
  let program = Link.compile_source ~require_main:false src in
  let stats = Stats.create () in
  let heap = Heap.create stats in
  let profile = Profile.create program in
  let globals = Array.make (max program.Link.n_statics 1) Value.Vnull in
  let env =
    {
      Interp.heap;
      stats;
      profile;
      globals;
      on_invoke = (fun _ _ -> Alcotest.fail "no calls in this graph");
      on_print = ignore;
      on_back_edge = (fun _ ~header:_ ~locals:_ -> Interp.No_osr);
      hooks = None;
    }
  in
  let m = Link.find_method program "C" "f" in
  (* let the interpreter profile the branch as never-taken, so compilation
     prunes it to a Deopt terminator *)
  for _ = 1 to 30 do
    ignore (Interp.run env m [ vint 2; vbool false ])
  done;
  let compiled = Jit.compile Jit.default_config program profile m in
  let code = Closure_compile.compile env compiled.Jit.graph in
  let deopt d lookup = Deopt.handle env d lookup in
  Alcotest.(check int) "hot path" 16 (as_int (Closure_compile.run ~deopt code [ vint 5; vbool false ]));
  Alcotest.(check int) "pool holds the file" 1 (Closure_compile.pool_depth code);
  let before = Stats.get stats Stats.deopts in
  Alcotest.(check int) "deopting call result" 22
    (as_int (Closure_compile.run ~deopt code [ vint 7; vbool true ]));
  Alcotest.(check int) "deopt actually fired" (before + 1) (Stats.get stats Stats.deopts);
  Alcotest.(check int) "file released after deopt" 1 (Closure_compile.pool_depth code);
  Alcotest.(check int) "escaped value visible" 21 (as_int (Some globals.(0)))

(* The inline cache is a closure-tier fast path: its hits, misses and
   rebiases must charge exactly the cycles of {!Ir_exec}'s plain
   dispatch. The graph-level property in test_properties.ml compiles with
   inlining on, so its calls rarely survive to the IR; this pins the
   virtual-dispatch path. Two fresh envs are warmed identically, C.f is
   compiled from each env's profile with inlining off, and the graph runs
   through both executors with the receiver flipping A, B, A, B. *)
let test_dispatch_cost_matches_ir_exec () =
  let program = Link.compile_source ~require_main:false ic_src in
  let find = Link.find_method program "C" in
  let f = find "f" in
  let observe exec =
    let env = Run.make_env program ~printed:(ref []) in
    let mk name = Option.get (Interp.run env (find name) [ vint 3 ]) in
    let a = mk "mkA" and b = mk "mkB" in
    for _ = 1 to 10 do
      ignore (Interp.run env f [ a; vint 10 ])
    done;
    let g = (Jit.compile ic_config program env.Interp.profile f).Jit.graph in
    let run = exec env g in
    let results = List.map (fun r -> as_int (run [ r; vint 10 ])) [ a; b; a; b ] in
    let s = Stats.snapshot env.Interp.stats in
    ( results,
      [
        ("cycles", s.Stats.s_cycles);
        ("compiled ops", s.Stats.s_compiled_ops);
        ("interpreted instrs", s.Stats.s_interpreted_instrs);
        ("invocations", s.Stats.s_invocations);
        ("allocations", s.Stats.s_allocations);
        ("allocated bytes", s.Stats.s_allocated_bytes);
        ("monitor ops", s.Stats.s_monitor_ops);
      ],
      s.Stats.s_ic_hits )
  in
  let rc, kc, hits = observe (fun env g -> Closure_compile.run (Closure_compile.compile env g)) in
  let ri, ki, _ = observe Ir_exec.run in
  Alcotest.(check (list int)) "results" [ 30; 60; 30; 60 ] rc;
  Alcotest.(check (list int)) "same results" ri rc;
  Alcotest.(check bool) "closure tier used its inline cache" true (hits > 0);
  Alcotest.(check (list (pair string int))) "cost-model counters" ki kc

(* ------------------------------------------------------------------ *)
(* Typed frames                                                        *)
(* ------------------------------------------------------------------ *)

(* A compiled callee with [int] and [boolean] parameters, called from
   compiled code: the caller boxes the arguments where they leave its
   frame and the callee unboxes them into its int file at entry. *)
let test_typed_params () =
  let src =
    "class C {\n\
    \  static int g(int x, boolean neg) { if (neg) { return 0 - x; } return x * 2; }\n\
    \  static int f(int n) {\n\
    \    int s = 0;\n\
    \    int i = 0;\n\
    \    while (i < n) { s = s + C.g(i, i % 3 == 0); i = i + 1; }\n\
    \    return s;\n\
    \  }\n\
     }"
  in
  let config = { ic_config with Jit.opt = Jit.O_pea; osr = false } in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" and g = Link.find_method program "C" "g" in
  let expected n =
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + if i mod 3 = 0 then -i else i * 2
    done;
    !s
  in
  Vm.warm_up vm f [ vint 10 ] 6;
  Alcotest.(check bool) "caller compiled" true (Vm.compiled_graph vm f <> None);
  Alcotest.(check bool) "callee compiled" true (Vm.compiled_graph vm g <> None);
  let before = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "result" (expected 40) (as_int (Vm.invoke vm f [ vint 40 ]));
  let after = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "caller and callee ran compiled" 0
    (after.Stats.s_interpreted_instrs - before.Stats.s_interpreted_instrs)

(* An OSR entry at a loop header where a local is not yet assigned: the
   interpreter passes [Vnull] for it, so OSR parameters live in the ref
   file whatever the local's declared type. *)
let test_osr_unassigned_local () =
  let src =
    "class Main {\n\
    \  static int main() {\n\
    \    int s = 0;\n\
    \    int i = 0;\n\
    \    while (i < 600) { s = s + i; i = i + 1; }\n\
    \    int r = s * 2;\n\
    \    boolean odd = r % 2 == 1;\n\
    \    if (odd) { return r; }\n\
    \    return r + 1;\n\
    \  }\n\
     }"
  in
  let reference = Run.run_source src in
  let config =
    { Jit.default_config with Jit.compile_threshold = max_int; osr = true; osr_threshold = 50 }
  in
  let r = Vm.run (Vm.create ~config (Link.compile_source src)) in
  Alcotest.(check bool) "osr entry happened" true (r.Vm.stats.Stats.s_osr_entries >= 1);
  Alcotest.(check int) "same result as the interpreter"
    (as_int reference.Run.return_value) (as_int r.Vm.return_value)

(* A corrupted graph where a Bool node feeds [Arith]: the closure tier
   boxes the boolean and traps with exactly {!Ir_exec}'s text. *)
let test_bool_into_arith_trap () =
  let src = "class C { static int f(int x, boolean b) { return x * 3 + 1; } }" in
  let config = { Jit.default_config with Jit.compile_threshold = 5; osr = false } in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  let args = [ vint 7; vbool true ] in
  Vm.warm_up vm f args config.Jit.compile_threshold;
  let mutated = ref 0 in
  let g =
    Test_support.serve_mutated vm config program f (fun g ->
        let b = (List.nth g.Pea_ir.Graph.params 1).Pea_ir.Node.id in
        Pea_ir.Graph.iter_blocks
          (fun blk ->
            Pea_support.Dyn_array.iter
              (fun (n : Pea_ir.Node.t) ->
                match n.Pea_ir.Node.op with
                | Pea_ir.Node.Arith (k, a, _) when !mutated = 0 ->
                    n.Pea_ir.Node.op <- Pea_ir.Node.Arith (k, a, b);
                    incr mutated
                | _ -> ())
              blk.Pea_ir.Graph.instrs)
          g)
  in
  Alcotest.(check int) "one Arith rewired" 1 !mutated;
  let trap_of run = match run () with _ -> "no trap" | exception Interp.Trap msg -> msg in
  let reference =
    trap_of (fun () -> Ir_exec.run (Run.make_env program ~printed:(ref [])) g args)
  in
  Alcotest.(check string) "Ir_exec traps" "expected int, found true" reference;
  Alcotest.(check string) "closure tier traps alike" reference
    (trap_of (fun () -> Vm.invoke vm f args))

(* No boxing on int paths: a warmed int-only loop (an inlined static
   helper, a boolean toggle, arithmetic) allocates nothing per compiled
   op. The counters are charged through cells the closure code resolved
   at translation, so [Stats.reset] must zero them in place: what the
   code charges after the reset is what [Stats.get] reports. *)
let test_int_loop_allocates_nothing () =
  let src =
    "class C {\n\
    \  static int step(int x, boolean t) { if (t) { return x + 3; } return x * 2 - 7; }\n\
    \  static int loop(int n) {\n\
    \    int acc = 1;\n\
    \    boolean t = true;\n\
    \    int i = 0;\n\
    \    while (i < n) { acc = C.step(acc, t) % 100003; t = !t; i = i + 1; }\n\
    \    return acc;\n\
    \  }\n\
     }"
  in
  let config = { Jit.default_config with Jit.compile_threshold = 2; osr = false } in
  let program, vm = setup ~config src in
  let loop = Link.find_method program "C" "loop" in
  let args = [ vint 2000 ] in
  Vm.warm_up vm loop args 3;
  let stats = Vm.stats vm in
  Alcotest.(check bool) "compiled" true (Stats.get stats Stats.closure_compiled_methods >= 1);
  let ops0 = Stats.get stats Stats.compiled_ops and cycles0 = Stats.get stats Stats.cycles in
  ignore (Vm.invoke vm loop args);
  let ops_per_call = Stats.get stats Stats.compiled_ops - ops0 in
  let cycles_per_call = Stats.get stats Stats.cycles - cycles0 in
  Alcotest.(check bool) "the loop runs compiled" true (ops_per_call > 2000);
  Stats.reset stats;
  let iters = 20 in
  let words0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Vm.invoke vm loop args)
  done;
  let words = Gc.minor_words () -. words0 in
  let ops = Stats.get stats Stats.compiled_ops in
  Alcotest.(check int) "compiled ops after reset" (iters * ops_per_call) ops;
  Alcotest.(check int) "cycles after reset" (iters * cycles_per_call)
    (Stats.get stats Stats.cycles);
  let per_op = words /. float_of_int ops in
  if per_op >= 0.01 then Alcotest.failf "%.4f minor words per compiled op (limit 0.01)" per_op

let () =
  Alcotest.run "closure"
    [
      ( "inline-caches",
        [
          Alcotest.test_case "monomorphic hit" `Quick test_ic_monomorphic;
          Alcotest.test_case "polymorphic rebias" `Quick test_ic_polymorphic_rebias;
          Alcotest.test_case "deopt invalidation" `Quick test_ic_deopt_invalidation;
        ] );
      ( "register-files",
        [
          Alcotest.test_case "pooling" `Quick test_register_file_pool;
          Alcotest.test_case "pool recovers after deopt" `Quick test_pool_recovers_after_deopt;
        ] );
      ( "typed-frames",
        [
          Alcotest.test_case "int and boolean params across compiled calls" `Quick
            test_typed_params;
          Alcotest.test_case "OSR entry with an unassigned local" `Quick test_osr_unassigned_local;
          Alcotest.test_case "Bool into Arith traps like Ir_exec" `Quick test_bool_into_arith_trap;
          Alcotest.test_case "int loop allocates nothing; cells survive reset" `Quick
            test_int_loop_allocates_nothing;
        ] );
      ( "parity",
        [
          Alcotest.test_case "dispatch cost matches Ir_exec" `Quick
            test_dispatch_cost_matches_ir_exec;
        ] );
    ]

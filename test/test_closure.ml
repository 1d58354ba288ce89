(* Closure execution tier tests: inline-cache behavior (monomorphic hit,
   polymorphic rebias, deopt invalidation), frame pooling, typed frames
   (int/boolean parameters, OSR entry, boxing traps, no allocation on
   int paths), cost-model parity with the {!Ir_exec} reference (virtual
   dispatch, traps between the pure operations of a segment, constant
   operands, the fused compare-and-branch, direct phi moves), and a
   golden of the full counter registry that pins the cost model across
   builds.
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

(* ------------------------------------------------------------------ *)
(* Segments and constant operands                                      *)
(* ------------------------------------------------------------------ *)

let outcome run args =
  match run args with
  | Some v -> Value.string_of_value v
  | None -> "void"
  | exception Interp.Trap msg -> "trap: " ^ msg

(* [C.meth] of [src] is compiled in a fresh env; [check_graph] sees the
   graph after [mutate]. The graph then runs through the closure tier
   and through {!Ir_exec}, in two identically prepared envs, on each
   argument list of [runs]. Unless mutated, it must compute what the
   interpreter computes; the two executors must agree on every outcome
   (result or trap text), on what was printed and on the whole counter
   registry after the last run, which for a trapping last run is the
   registry at the moment of the trap. Returns the outcomes. *)
let check_parity ?(config = ic_config) ?mutate ~check_graph src meth runs =
  let program = Link.compile_source ~require_main:false src in
  let m = Link.find_method program "C" meth in
  let observe exec =
    let printed = ref [] in
    let env = Run.make_env program ~printed in
    let g = (Jit.compile config program env.Interp.profile m).Jit.graph in
    Option.iter (fun f -> f g) mutate;
    check_graph g;
    let run = exec env g in
    let outcomes = List.map (outcome run) runs in
    (outcomes, List.rev_map Value.string_of_value !printed, Stats.to_json env.Interp.stats)
  in
  let co, cp, cc = observe (fun env g -> Closure_compile.run (Closure_compile.compile env g)) in
  let ro, rp, rc = observe Ir_exec.run in
  (* the interpreter names a field as Owner.field in its trap texts, so
     only results are compared with it *)
  if mutate = None then begin
    let env = Run.make_env program ~printed:(ref []) in
    let result o = if String.starts_with ~prefix:"trap: " o then "trap" else o in
    Alcotest.(check (list string)) "interpreter results"
      (List.map (fun args -> result (outcome (Interp.run env m) args)) runs)
      (List.map result co)
  end;
  Alcotest.(check (list string)) "outcomes" ro co;
  Alcotest.(check (list string)) "printed" rp cp;
  Alcotest.(check string) "counter registry" rc cc;
  co

let instrs (b : Pea_ir.Graph.block) = Pea_support.Dyn_array.to_list b.Pea_ir.Graph.instrs

let exists_node p (g : Pea_ir.Graph.t) =
  let found = ref false in
  Pea_ir.Graph.iter_blocks (fun b -> if List.exists p (instrs b) then found := true) g;
  !found

let const_of (g : Pea_ir.Graph.t) id =
  match (Pea_ir.Graph.node g id).Pea_ir.Node.op with Pea_ir.Node.Const c -> Some c | _ -> None

(* Int/Int arithmetic, which the closure tier treats as pure *)
let typed_arith (n : Pea_ir.Node.t) =
  match n.Pea_ir.Node.op with
  | Pea_ir.Node.Arith ((Pea_ir.Node.Add | Pea_ir.Node.Sub | Pea_ir.Node.Mul), _, _) -> true
  | _ -> false

(* some block holds a node matching [is_trap] with pure arithmetic both
   before and after it *)
let mid_block is_trap (g : Pea_ir.Graph.t) =
  let found = ref false in
  Pea_ir.Graph.iter_blocks
    (fun b ->
      let rec scan before = function
        | [] -> ()
        | n :: after ->
            if is_trap n && List.exists typed_arith before && List.exists typed_arith after then
              found := true;
            scan (n :: before) after
      in
      scan [] (instrs b))
    g;
  if not !found then Alcotest.fail "the trapping op is not between pure ops of one block"

(* A trap in the middle of a block: the segment that ends with the
   trapping op has already charged the pure ops before it and itself,
   and the pure ops after it belong to a segment that never starts. The
   trap text and every counter must be {!Ir_exec}'s. *)
let test_mid_block_trap (name, body, is_trap, args, expected) () =
  let src =
    "class A { int v; }\n\
     class C {\n\
    \  static int f(int x, int y, A a) {\n\
    \    int[] arr = new int[4];\n\
    \    int p = x * 3 + 7;\n" ^ body
    ^ "\n    int r = q * 5 + p - 2;\n    return r;\n  }\n}"
  in
  let outcomes = check_parity ~check_graph:(mid_block is_trap) src "f" [ args ] in
  Alcotest.(check (list string)) (name ^ " traps") [ "trap: " ^ expected ] outcomes

let mid_block_traps =
  let open Pea_ir.Node in
  [
    ( "runtime divide by zero",
      "    int q = p / y;",
      (fun n -> match n.op with Arith (Div, _, _) -> true | _ -> false),
      [ vint 4; vint 0; Value.Vnull ],
      "division by zero" );
    ( "null field load",
      "    int q = a.v;",
      (fun n -> match n.op with Load_field _ -> true | _ -> false),
      [ vint 4; vint 0; Value.Vnull ],
      "null dereference reading v" );
    ( "array index out of bounds",
      "    int q = arr[x];",
      (fun n -> match n.op with Array_load _ -> true | _ -> false),
      [ vint 9; vint 1; Value.Vnull ],
      "array index 9 out of bounds" );
    ( "remainder by a literal 0",
      "    int q = p % 0;",
      (fun n -> match n.op with Arith (Rem, _, _) -> true | _ -> false),
      [ vint 4; vint 1; Value.Vnull ],
      "division by zero" );
  ]

(* Constants feed Int, Bool and Ref phis, [null] included: edges moving
   one or two Int/Bool phis, and the general move mixing constants with
   slots across both files. *)
let test_const_phis () =
  let src =
    "class A { int v; }\n\
     class C {\n\
    \  static int f(int x) {\n\
    \    int s = 0;\n\
    \    if (x < 5) { s = 1; }\n\
    \    A o = null;\n\
    \    int k = 3;\n\
    \    boolean t = false;\n\
    \    if (x > 2) { o = new A(); o.v = x; k = 9; t = true; }\n\
    \    if (o == null) { s = s + 4; } else { s = s + o.v; }\n\
    \    if (t) { s = s + k; }\n\
    \    boolean u = true;\n\
    \    int w = 7;\n\
    \    if (x == 4) { u = false; w = x; }\n\
    \    if (u) { s = s * w; }\n\
    \    return s;\n\
    \  }\n\
     }"
  in
  let phi_const_kinds (g : Pea_ir.Graph.t) =
    let kinds = ref [] in
    Pea_ir.Graph.iter_blocks
      (fun b ->
        List.iter
          (fun (p : Pea_ir.Node.t) ->
            match p.Pea_ir.Node.op with
            | Pea_ir.Node.Phi ph ->
                Array.iter
                  (fun id ->
                    match const_of g id with
                    | Some (Pea_ir.Node.Cint _) -> kinds := "int" :: !kinds
                    | Some (Pea_ir.Node.Cbool _) -> kinds := "bool" :: !kinds
                    | Some Pea_ir.Node.Cnull -> kinds := "null" :: !kinds
                    | _ -> ())
                  ph.Pea_ir.Node.inputs
            | _ -> ())
          b.Pea_ir.Graph.phis)
      g;
    List.iter
      (fun k ->
        if not (List.mem k !kinds) then Alcotest.failf "no %s constant feeds a phi" k)
      [ "int"; "bool"; "null" ]
  in
  ignore
    (check_parity ~config:{ ic_config with Jit.prune = false } ~check_graph:phi_const_kinds src "f"
       (List.init 8 (fun x -> [ vint x ])))

(* The direct two-phi move is a parallel move: on the back edge of this
   loop each Int phi takes the other's value. *)
let test_two_phi_swap () =
  let src =
    "class C {\n\
    \  static int f(int a, int b) {\n\
    \    while (a < b) { int t = a; a = b; b = t; }\n\
    \    return a * 100 + b;\n\
    \  }\n\
     }"
  in
  let swapping g =
    let found = ref false in
    Pea_ir.Graph.iter_blocks
      (fun b ->
        match b.Pea_ir.Graph.phis with
        | [ p; q ] -> (
            match (p.Pea_ir.Node.op, q.Pea_ir.Node.op) with
            | Pea_ir.Node.Phi pp, Pea_ir.Node.Phi qp ->
                Array.iteri
                  (fun i x ->
                    if x = q.Pea_ir.Node.id && qp.Pea_ir.Node.inputs.(i) = p.Pea_ir.Node.id then
                      found := true)
                  pp.Pea_ir.Node.inputs
            | _ -> ())
        | _ -> ())
      g;
    if not !found then Alcotest.fail "no edge swaps two phis"
  in
  let outcomes =
    check_parity ~config:{ ic_config with Jit.osr = false } ~check_graph:swapping src "f"
      [ [ vint 3; vint 8 ]; [ vint 8; vint 3 ] ]
  in
  Alcotest.(check (list string)) "results" [ "803"; "803" ] outcomes

(* An [If] on a constant boolean (a corrupted-looking but legal graph:
   the condition's compare is rewritten into the constant) branches the
   constant's way and still charges the branch. *)
let test_const_if_condition () =
  let src =
    "class C { static int f(int x) { int s = x * 2; if (x < 5) { s = s + 1; } return s + 3; } }"
  in
  List.iter
    (fun (b, expected) ->
      let rewritten = ref 0 in
      let mutate g =
        rewritten := 0;
        Pea_ir.Graph.iter_blocks
          (fun blk ->
            match blk.Pea_ir.Graph.term with
            | Pea_ir.Graph.If { cond; _ } ->
                let n = Pea_ir.Graph.node g cond in
                n.Pea_ir.Node.op <- Pea_ir.Node.Const (Pea_ir.Node.Cbool b);
                incr rewritten
            | _ -> ())
          g
      in
      let check_graph _ = Alcotest.(check int) "one If rewritten" 1 !rewritten in
      let outcomes =
        check_parity ~config:{ ic_config with Jit.prune = false } ~mutate ~check_graph src "f"
          [ [ vint 2 ]; [ vint 9 ] ]
      in
      Alcotest.(check (list string)) (Printf.sprintf "if (%b)" b) expected outcomes)
    [ (true, [ "8"; "22" ]); (false, [ "7"; "21" ]) ]

(* Every compare kind with the constant on the right and on the left:
   as a branch condition (the fused compare-and-branch), as a value read
   after that branch (the slot the fused branch still writes), and as a
   plain value. *)
let test_cmp_constant_sides () =
  let ops = [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
  let body =
    List.mapi
      (fun i op ->
        Printf.sprintf
          "    boolean r%d = x %s 5;\n\
          \    if (r%d) { s = s + %d; }\n\
          \    print(r%d);\n\
          \    boolean l%d = 5 %s x;\n\
          \    if (l%d) { s = s + %d; }\n\
          \    print(l%d);\n\
          \    print(x %s 6);\n\
          \    print(6 %s x);\n"
          i op i (1 lsl (2 * i)) i i op i (1 lsl ((2 * i) + 1)) i op op)
      ops
  in
  let src =
    "class C {\n  static int f(int x) {\n    int s = 0;\n" ^ String.concat "" body
    ^ "    return s;\n  }\n}"
  in
  let check_graph g =
    List.iter
      (fun (c : Classfile.cmp) ->
        List.iter
          (fun const_left ->
            let found =
              exists_node
                (fun n ->
                  match n.Pea_ir.Node.op with
                  | Pea_ir.Node.Cmp (c', a, b) when c' = c ->
                      const_of g (if const_left then a else b) <> None
                      && const_of g (if const_left then b else a) = None
                  | _ -> false)
                g
            in
            if not found then Alcotest.fail "a compare kind and constant side is missing")
          [ true; false ])
      Classfile.[ Clt; Cle; Cgt; Cge; Ceq; Cne ]
  in
  let xs = [ -3; 4; 5; 6; 11 ] in
  let outcomes =
    check_parity ~config:{ ic_config with Jit.prune = false } ~check_graph src "f"
      (List.map (fun x -> [ vint x ]) xs)
  in
  let expected x =
    List.fold_left
      (fun (s, i) (f : int -> int -> bool) ->
        let s = if f x 5 then s + (1 lsl (2 * i)) else s in
        let s = if f 5 x then s + (1 lsl ((2 * i) + 1)) else s in
        (s, i + 1))
      (0, 0)
      [ ( < ); ( <= ); ( > ); ( >= ); ( = ); ( <> ) ]
    |> fst |> string_of_int
  in
  Alcotest.(check (list string)) "results" (List.map expected xs) outcomes

(* A deopt whose frame state names a [Const]: the lookup the closure tier
   hands the deopt handler returns the constant, the rebuilt interpreter
   local holds it, and the bisimulation oracle stays silent. *)
let test_deopt_names_const () =
  let src =
    "class C {\n\
    \  static int g;\n\
    \  static int f(int x, boolean cold) {\n\
    \    int k = 41;\n\
    \    int y = x * 3;\n\
    \    if (cold) { C.g = y; }\n\
    \    return y + k;\n\
    \  }\n\
     }"
  in
  (* without escape analysis: PEA rewrites constant state entries into
     [F_const], the builder's states name the [Const] node *)
  let config =
    { Jit.default_config with Jit.opt = Jit.O_none; compile_threshold = 25; oracle = true }
  in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 2; vbool false ] 40;
  let g = Option.get (Vm.compiled_graph vm f) in
  let deopt_consts = ref [] in
  Pea_ir.Graph.iter_blocks
    (fun b ->
      match b.Pea_ir.Graph.term with
      | Pea_ir.Graph.Deopt d ->
          Array.iter
            (function
              | Pea_ir.Frame_state.F_node id -> (
                  match const_of g id with
                  | Some (Pea_ir.Node.Cint 41) -> deopt_consts := id :: !deopt_consts
                  | _ -> ())
              | _ -> ())
            d.Pea_ir.Graph.d_state.Pea_ir.Frame_state.fs_locals
      | _ -> ())
    g;
  let id =
    match !deopt_consts with
    | id :: _ -> id
    | [] -> Alcotest.fail "no deopt frame state names the constant 41"
  in
  (* the lookup itself, outside the VM: no handler, so the exception
     carries it out *)
  let env = Run.make_env program ~printed:(ref []) in
  (match Closure_compile.run (Closure_compile.compile env g) [ vint 5; vbool true ] with
  | _ -> Alcotest.fail "the cold branch did not deopt"
  | exception Ir_exec.Deoptimize (_, lookup) ->
      Alcotest.(check string) "lookup returns the constant" "41"
        (Value.string_of_value (lookup id)));
  (* through the VM: the rebuilt local feeds the interpreter's return *)
  let before = Stats.get (Vm.stats vm) Stats.deopts in
  Alcotest.(check int) "cold result under the oracle" 56
    (as_int (Vm.invoke vm f [ vint 5; vbool true ]));
  Alcotest.(check int) "deopt fired" (before + 1) (Stats.get (Vm.stats vm) Stats.deopts)

(* ------------------------------------------------------------------ *)
(* Cost-model golden                                                   *)
(* ------------------------------------------------------------------ *)

(* The full counter registry after 3 [main] calls of three Table-1 rows,
   under PEA and without escape analysis, in the harness configuration
   (compile threshold 2, so the runs cover interpretation, OSR entries,
   deopts and steady compiled code). The expected JSON was captured
   from the closure tier before segment charging and constant operands:
   any change to how compiled code charges cycles or [compiled_ops], or
   to what it computes, moves at least one of these numbers. *)
let cost_model_golden =
  [
    ( "fop", Jit.O_pea,
      {|{"counters":{"allocations":6809,"allocated_bytes":353240,"monitor_ops":3600,"stack_allocs":0,"stack_reclaimed":0,"stack_promotions":0,"cycles":1125810,"deopts":2,"rematerialized":0,"interpreted_instrs":4060,"compiled_ops":431740,"invocations":118,"compiled_methods":9,"closure_compiled_methods":10,"ic_hits":0,"ic_misses":0,"osr_compiles":3,"osr_entries":3,"site_blacklists":2,"speculative_inlines":0,"guard_deopts":0,"inline_blacklist_skips":0,"compile_enqueues":0,"compile_dedup_hits":0,"compile_drops":0,"compile_installs":0,"compile_stale_discards":0,"compile_failures":0,"compile_stall_cycles":127800,"serve_requests":0,"cache_shared_hits":0,"cache_epoch_rejects":0,"tenant_quarantines":0},"histograms":{"remat_per_deopt":{"count":2,"sum":0,"min":0,"max":0},"compiled_graph_nodes":{"count":12,"sum":557,"min":4,"max":94},"compile_queue_depth":{"count":0,"sum":0,"min":0,"max":0},"compile_latency":{"count":0,"sum":0,"min":0,"max":0}}}|} );
    ( "fop", Jit.O_none,
      {|{"counters":{"allocations":7201,"allocated_bytes":365784,"monitor_ops":3600,"stack_allocs":0,"stack_reclaimed":0,"stack_promotions":0,"cycles":1201130,"deopts":2,"rematerialized":0,"interpreted_instrs":4060,"compiled_ops":445866,"invocations":118,"compiled_methods":9,"closure_compiled_methods":10,"ic_hits":0,"ic_misses":0,"osr_compiles":3,"osr_entries":3,"site_blacklists":2,"speculative_inlines":0,"guard_deopts":0,"inline_blacklist_skips":0,"compile_enqueues":0,"compile_dedup_hits":0,"compile_drops":0,"compile_installs":0,"compile_stale_discards":0,"compile_failures":0,"compile_stall_cycles":127800,"serve_requests":0,"cache_shared_hits":0,"cache_epoch_rejects":0,"tenant_quarantines":0},"histograms":{"remat_per_deopt":{"count":2,"sum":0,"min":0,"max":0},"compiled_graph_nodes":{"count":12,"sum":999,"min":5,"max":155},"compile_queue_depth":{"count":0,"sum":0,"min":0,"max":0},"compile_latency":{"count":0,"sum":0,"min":0,"max":0}}}|} );
    ( "jython", Jit.O_pea,
      {|{"counters":{"allocations":2039,"allocated_bytes":128600,"monitor_ops":1200,"stack_allocs":0,"stack_reclaimed":0,"stack_promotions":0,"cycles":8694810,"deopts":2,"rematerialized":0,"interpreted_instrs":3565,"compiled_ops":7608537,"invocations":117,"compiled_methods":8,"closure_compiled_methods":9,"ic_hits":0,"ic_misses":0,"osr_compiles":3,"osr_entries":3,"site_blacklists":2,"speculative_inlines":0,"guard_deopts":0,"inline_blacklist_skips":0,"compile_enqueues":0,"compile_dedup_hits":0,"compile_drops":0,"compile_installs":0,"compile_stale_discards":0,"compile_failures":0,"compile_stall_cycles":122200,"serve_requests":0,"cache_shared_hits":0,"cache_epoch_rejects":0,"tenant_quarantines":0},"histograms":{"remat_per_deopt":{"count":2,"sum":0,"min":0,"max":0},"compiled_graph_nodes":{"count":11,"sum":518,"min":4,"max":94},"compile_queue_depth":{"count":0,"sum":0,"min":0,"max":0},"compile_latency":{"count":0,"sum":0,"min":0,"max":0}}}|} );
    ( "jython", Jit.O_none,
      {|{"counters":{"allocations":2401,"allocated_bytes":140184,"monitor_ops":1200,"stack_allocs":0,"stack_reclaimed":0,"stack_promotions":0,"cycles":8733778,"deopts":2,"rematerialized":0,"interpreted_instrs":3565,"compiled_ops":7613935,"invocations":117,"compiled_methods":8,"closure_compiled_methods":9,"ic_hits":0,"ic_misses":0,"osr_compiles":3,"osr_entries":3,"site_blacklists":2,"speculative_inlines":0,"guard_deopts":0,"inline_blacklist_skips":0,"compile_enqueues":0,"compile_dedup_hits":0,"compile_drops":0,"compile_installs":0,"compile_stale_discards":0,"compile_failures":0,"compile_stall_cycles":122200,"serve_requests":0,"cache_shared_hits":0,"cache_epoch_rejects":0,"tenant_quarantines":0},"histograms":{"remat_per_deopt":{"count":2,"sum":0,"min":0,"max":0},"compiled_graph_nodes":{"count":11,"sum":985,"min":5,"max":155},"compile_queue_depth":{"count":0,"sum":0,"min":0,"max":0},"compile_latency":{"count":0,"sum":0,"min":0,"max":0}}}|} );
    ( "factorie", Jit.O_pea,
      {|{"counters":{"allocations":27787,"allocated_bytes":972696,"monitor_ops":34800,"stack_allocs":0,"stack_reclaimed":0,"stack_promotions":0,"cycles":9521873,"deopts":2,"rematerialized":0,"interpreted_instrs":2834,"compiled_ops":5945587,"invocations":111,"compiled_methods":6,"closure_compiled_methods":7,"ic_hits":0,"ic_misses":0,"osr_compiles":3,"osr_entries":3,"site_blacklists":2,"speculative_inlines":0,"guard_deopts":0,"inline_blacklist_skips":0,"compile_enqueues":0,"compile_dedup_hits":0,"compile_drops":0,"compile_installs":0,"compile_stale_discards":0,"compile_failures":0,"compile_stall_cycles":113100,"serve_requests":0,"cache_shared_hits":0,"cache_epoch_rejects":0,"tenant_quarantines":0},"histograms":{"remat_per_deopt":{"count":2,"sum":0,"min":0,"max":0},"compiled_graph_nodes":{"count":9,"sum":421,"min":4,"max":94},"compile_queue_depth":{"count":0,"sum":0,"min":0,"max":0},"compile_latency":{"count":0,"sum":0,"min":0,"max":0}}}|} );
    ( "factorie", Jit.O_none,
      {|{"counters":{"allocations":69601,"allocated_bytes":2310744,"monitor_ops":34800,"stack_allocs":0,"stack_reclaimed":0,"stack_promotions":0,"cycles":12531809,"deopts":2,"rematerialized":0,"interpreted_instrs":2834,"compiled_ops":6196303,"invocations":111,"compiled_methods":6,"closure_compiled_methods":7,"ic_hits":0,"ic_misses":0,"osr_compiles":3,"osr_entries":3,"site_blacklists":2,"speculative_inlines":0,"guard_deopts":0,"inline_blacklist_skips":0,"compile_enqueues":0,"compile_dedup_hits":0,"compile_drops":0,"compile_installs":0,"compile_stale_discards":0,"compile_failures":0,"compile_stall_cycles":113100,"serve_requests":0,"cache_shared_hits":0,"cache_epoch_rejects":0,"tenant_quarantines":0},"histograms":{"remat_per_deopt":{"count":2,"sum":0,"min":0,"max":0},"compiled_graph_nodes":{"count":9,"sum":940,"min":5,"max":155},"compile_queue_depth":{"count":0,"sum":0,"min":0,"max":0},"compile_latency":{"count":0,"sum":0,"min":0,"max":0}}}|} );
  ]

let test_cost_model_golden (row, opt, expected) () =
  let src = Pea_workloads.Codegen.source_for_row (Option.get (Pea_workloads.Spec.find row)) in
  let config = { Jit.default_config with Jit.opt; compile_threshold = 2 } in
  let vm = Vm.create ~config (Link.compile_source src) in
  ignore (Vm.run_main_iterations vm 3);
  Alcotest.(check string) "counter registry" expected (Stats.to_json (Vm.stats vm))

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
      ( "segments",
        List.map
          (fun ((name, _, _, _, _) as case) ->
            Alcotest.test_case ("mid-block trap: " ^ name) `Quick (test_mid_block_trap case))
          mid_block_traps
        @ [
            Alcotest.test_case "constants feed Int, Bool and Ref phis" `Quick test_const_phis;
            Alcotest.test_case "two Int phis swap on one edge" `Quick test_two_phi_swap;
            Alcotest.test_case "constant If condition" `Quick test_const_if_condition;
            Alcotest.test_case "every compare kind, constant on either side" `Quick
              test_cmp_constant_sides;
            Alcotest.test_case "deopt frame state names a constant" `Quick
              test_deopt_names_const;
          ] );
      ( "cost-model-golden",
        List.map
          (fun ((row, opt, _) as case) ->
            let o = match opt with Jit.O_pea -> "pea" | Jit.O_ea -> "ea" | Jit.O_none -> "none" in
            Alcotest.test_case (row ^ " " ^ o) `Quick (test_cost_model_golden case))
          cost_model_golden );
    ]

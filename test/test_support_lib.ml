(* Unit and property tests for the support library. *)

open Pea_support

let test_dyn_array_basic () =
  let t = Dyn_array.create () in
  Alcotest.(check int) "empty length" 0 (Dyn_array.length t);
  let i0 = Dyn_array.push t 10 in
  let i1 = Dyn_array.push t 20 in
  Alcotest.(check int) "first index" 0 i0;
  Alcotest.(check int) "second index" 1 i1;
  Alcotest.(check int) "get 0" 10 (Dyn_array.get t 0);
  Alcotest.(check int) "get 1" 20 (Dyn_array.get t 1);
  Dyn_array.set t 0 99;
  Alcotest.(check int) "after set" 99 (Dyn_array.get t 0);
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Dyn_array.to_list t)

let test_dyn_array_growth () =
  let t = Dyn_array.create () in
  for i = 0 to 999 do
    ignore (Dyn_array.push t i)
  done;
  Alcotest.(check int) "length" 1000 (Dyn_array.length t);
  for i = 0 to 999 do
    Alcotest.(check int) (Printf.sprintf "elem %d" i) i (Dyn_array.get t i)
  done

let test_dyn_array_bounds () =
  let t = Dyn_array.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Dyn_array: index 3 out of bounds (len 3)") (fun () ->
      ignore (Dyn_array.get t 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Dyn_array: index -1 out of bounds (len 3)") (fun () ->
      ignore (Dyn_array.get t (-1)))

let test_dyn_array_truncate () =
  let t = Dyn_array.of_list [ 1; 2; 3; 4 ] in
  Dyn_array.truncate t 2;
  Alcotest.(check (list int)) "after truncate" [ 1; 2 ] (Dyn_array.to_list t);
  let i = Dyn_array.push t 9 in
  Alcotest.(check int) "push reuses index" 2 i

let test_union_find_basic () =
  let u = Union_find.create 5 in
  Alcotest.(check int) "initially 5 sets" 5 (Union_find.n_sets u);
  Alcotest.(check bool) "0 and 1 initially separate" false (Union_find.same_set u 0 1);
  Union_find.union u 0 1;
  Alcotest.(check bool) "0 and 1 merged" true (Union_find.same_set u 0 1);
  Alcotest.(check int) "4 sets after one union" 4 (Union_find.n_sets u);
  Union_find.union u 1 2;
  Alcotest.(check bool) "0 and 2 transitively merged" true (Union_find.same_set u 0 2)

let test_union_find_escape_propagation () =
  let u = Union_find.create 4 in
  Union_find.mark_escaped u 0;
  Alcotest.(check bool) "0 escaped" true (Union_find.escaped u 0);
  Alcotest.(check bool) "1 not escaped" false (Union_find.escaped u 1);
  (* merging a non-escaped set into an escaped one taints it *)
  Union_find.union u 0 1;
  Alcotest.(check bool) "1 escaped after union with 0" true (Union_find.escaped u 1);
  (* and the other direction *)
  Union_find.union u 2 3;
  Union_find.mark_escaped u 3;
  Alcotest.(check bool) "2 escaped via set flag" true (Union_find.escaped u 2)

let test_union_find_idempotent_union () =
  let u = Union_find.create 3 in
  Union_find.union u 0 1;
  Union_find.union u 0 1;
  Union_find.union u 1 0;
  Alcotest.(check int) "sets" 2 (Union_find.n_sets u)

let prop_union_find_transitive =
  QCheck.Test.make ~name:"union-find: same_set is an equivalence" ~count:200
    QCheck.(pair (list (pair (int_bound 19) (int_bound 19))) (pair (int_bound 19) (int_bound 19)))
    (fun (unions, (a, b)) ->
      let u = Union_find.create 20 in
      List.iter (fun (x, y) -> Union_find.union u x y) unions;
      (* reflexive, symmetric *)
      Union_find.same_set u a a
      && Union_find.same_set u a b = Union_find.same_set u b a)

let prop_union_find_escape_monotone =
  QCheck.Test.make ~name:"union-find: escaped is monotone under unions" ~count:200
    QCheck.(pair (list (pair (int_bound 9) (int_bound 9))) (int_bound 9))
    (fun (unions, esc) ->
      let u = Union_find.create 10 in
      Union_find.mark_escaped u esc;
      List.iter (fun (x, y) -> Union_find.union u x y) unions;
      (* everything now in esc's set must report escaped *)
      List.for_all
        (fun x -> (not (Union_find.same_set u x esc)) || Union_find.escaped u x)
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let test_fresh () =
  let f = Fresh.create () in
  Alcotest.(check int) "first" 0 (Fresh.next f);
  Alcotest.(check int) "second" 1 (Fresh.next f);
  Alcotest.(check int) "peek" 2 (Fresh.peek f);
  Fresh.reserve f 10;
  Alcotest.(check int) "after reserve" 10 (Fresh.next f);
  Fresh.reserve f 5;
  Alcotest.(check int) "reserve never goes backwards" 11 (Fresh.next f)

let test_dot () =
  let d = Dot.create "g" in
  Dot.node d ~id:"a" ~label:"hello \"world\"" ~shape:"box" ();
  Dot.edge d ~src:"a" ~dst:"b" ~label:"x" ();
  let s = Dot.contents d in
  Alcotest.(check bool) "has digraph" true (String.length s > 0 && String.sub s 0 7 = "digraph");
  Alcotest.(check bool) "escapes quotes" true
    (let sub = "\\\"world\\\"" in
     let rec contains i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

exception Boom of int

let[@inline never] boom n = raise (Boom n)

let test_pool_reraises () =
  Printexc.record_backtrace true;
  let check_boom what p =
    match Pool.await p with
    | () -> Alcotest.failf "%s: await returned" what
    | exception Boom n ->
        (* read first: any exception raised meanwhile replaces it *)
        let bt = Printexc.get_backtrace () in
        Alcotest.(check int) (what ^ ": the job's exception, unchanged") 7 n;
        (* "Raised at <Module>.boom in file ..." *)
        let raised_in =
          match String.split_on_char ' ' bt with "Raised" :: "at" :: fn :: _ -> fn | _ -> ""
        in
        Alcotest.(check bool)
          (what ^ ": backtrace starts at the raise in [boom]")
          true
          (String.ends_with ~suffix:".boom" raised_in)
  in
  (* the caller does not await until a worker has taken the job *)
  let taken = Atomic.make false in
  let on_worker =
    Pool.submit (fun () ->
        Atomic.set taken true;
        boom 7)
  in
  while not (Atomic.get taken) do
    Domain.cpu_relax ()
  done;
  check_boom "on a worker" on_worker;
  check_boom "deferred" (Pool.deferred (fun () -> boom 7))

let test_pool_deferred_runs_on_caller () =
  Alcotest.(check bool) "earlier workers retired" true (Test_support.pool_retired ());
  let p = Pool.deferred (fun () -> Domain.self ()) in
  Alcotest.(check bool) "ran on the awaiting domain" true (Pool.await p = Domain.self ());
  Alcotest.(check int) "deferred spawns nothing" 0 (Pool.size ())

(* With every worker busy, a queued job still completes at [await]:
   a new worker or the caller runs it, never a busy one. *)
let test_pool_await_behind_busy () =
  let started = Atomic.make 0 and release = Atomic.make false in
  let blockers =
    List.init 2 (fun _ ->
        Pool.submit (fun () ->
            Atomic.incr started;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let queued = Pool.submit (fun () -> 42) in
  Alcotest.(check int) "queued job completed while the others spin" 42 (Pool.await queued);
  Atomic.set release true;
  List.iter Pool.await blockers

(* [k] jobs that only finish once all [k] run at once. *)
let barrier_batch k =
  let arrived = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let jobs =
    List.init k (fun _ ->
        Pool.submit (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < k && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            Atomic.get arrived >= k))
  in
  List.for_all Fun.id (List.map Pool.await jobs)

let test_pool_spawns_per_job () =
  Alcotest.(check bool) "earlier workers retired" true (Test_support.pool_retired ());
  let before = Pool.spawned () in
  Pool.hold 2 (fun () ->
      Alcotest.(check bool) "4 jobs ran at once" true (barrier_batch 4);
      Alcotest.(check int) "one worker per job" 4 (Pool.spawned () - before);
      Alcotest.(check bool) "the two workers the hold does not keep exit" true
        (Test_support.pool_shrinks_to 2);
      (* the parked pair takes every later batch of two *)
      for _ = 1 to 50 do
        Alcotest.(check bool) "2 jobs ran at once" true (barrier_batch 2)
      done;
      Alcotest.(check int) "later batches spawned nothing" 4 (Pool.spawned () - before);
      Alcotest.(check int) "the parked pair is still live" 2 (Pool.size ()));
  Alcotest.(check bool) "parked workers exit once the hold ends" true
    (Test_support.pool_retired ())

(* More jobs than workers, of uneven length: each promise still yields
   its own job's result, whatever order the workers finish in. *)
let test_pool_results_in_order () =
  let n = 11 in
  let spin k =
    let acc = ref 0 in
    for i = 1 to (n - k) * 2_000 do
      acc := !acc lxor i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let jobs =
    List.init n (fun k ->
        Pool.submit (fun () ->
            spin k;
            k * 3))
  in
  Alcotest.(check (list int)) "each promise holds its own job's result"
    (List.init n (fun k -> k * 3))
    (List.map Pool.await jobs)

let test_pool_await_twice () =
  let runs = Atomic.make 0 in
  let p =
    Pool.submit (fun () ->
        Atomic.incr runs;
        "done")
  in
  Alcotest.(check string) "first await" "done" (Pool.await p);
  Alcotest.(check string) "second await, same value" "done" (Pool.await p);
  Alcotest.(check int) "the job ran once" 1 (Atomic.get runs);
  let failing = Pool.deferred (fun () -> boom 3) in
  List.iter
    (fun what ->
      match Pool.await failing with
      | () -> Alcotest.failf "%s await returned" what
      | exception Boom n -> Alcotest.(check int) (what ^ " await re-raises") 3 n)
    [ "first"; "second" ]

(* Jobs that submit and await jobs of their own finish: a nested await
   runs its job itself unless a worker has already claimed it. *)
let test_pool_nested_submit () =
  let outer = 3 in
  let jobs =
    List.init outer (fun i ->
        Pool.submit (fun () ->
            let inner = List.init 3 (fun j -> Pool.submit (fun () -> (10 * i) + j)) in
            List.fold_left ( + ) 0 (List.map Pool.await inner)))
  in
  Alcotest.(check (list int)) "every nested batch completed"
    (List.init outer (fun i -> (30 * i) + 3))
    (List.map Pool.await jobs)

let () =
  Alcotest.run "support"
    [
      ( "dyn_array",
        [
          Alcotest.test_case "basic" `Quick test_dyn_array_basic;
          Alcotest.test_case "growth" `Quick test_dyn_array_growth;
          Alcotest.test_case "bounds" `Quick test_dyn_array_bounds;
          Alcotest.test_case "truncate" `Quick test_dyn_array_truncate;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "escape propagation" `Quick test_union_find_escape_propagation;
          Alcotest.test_case "idempotent union" `Quick test_union_find_idempotent_union;
          QCheck_alcotest.to_alcotest prop_union_find_transitive;
          QCheck_alcotest.to_alcotest prop_union_find_escape_monotone;
        ] );
      ("fresh", [ Alcotest.test_case "sequence" `Quick test_fresh ]);
      ("dot", [ Alcotest.test_case "render" `Quick test_dot ]);
      ( "pool",
        [
          Alcotest.test_case "await re-raises the job's exception" `Quick test_pool_reraises;
          Alcotest.test_case "deferred runs on the caller" `Quick test_pool_deferred_runs_on_caller;
          Alcotest.test_case "await never waits behind busy workers" `Quick
            test_pool_await_behind_busy;
          Alcotest.test_case "one worker per unclaimed job; hold n parks n" `Quick
            test_pool_spawns_per_job;
          Alcotest.test_case "results in submission order" `Quick test_pool_results_in_order;
          Alcotest.test_case "await twice runs the job once" `Quick test_pool_await_twice;
          Alcotest.test_case "jobs submit and await jobs" `Quick test_pool_nested_submit;
        ] );
    ]

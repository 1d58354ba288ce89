(* Bounded background-compilation queue (the Async/Replay compile modes).

   Tasks are keyed by (mth_id, osr_bci option) and deduplicated: the
   stream of "this is hot" requests the interpreter produces between the
   threshold and the install collapses into one queued task. The queue is
   bounded; the VM turns a refused request into drop-and-reprofile
   backpressure (resetting the hotness counter that fired it).

   Determinism contract: a task's install point is its *deadline* —
   enqueue cycles + Cost.compile_latency — on the injected VM clock, in
   both modes. Replay compiles on the mutator when the deadline is
   reached; Async starts the real compile immediately on the process's
   domain pool and the mutator awaits it at the deadline. Either way
   every queue decision (enqueue, dedup, drop, install, stale-discard)
   happens at the same deterministic cycle, so Async and Replay agree
   bit-for-bit on all model counters, and Async's only divergence is
   wall-clock: the compile overlapped with interpretation instead of
   stalling it.

   Thread-safety: the compile thunk closes over snapshots owned by the
   task (profile copy, blacklist copy) — a pool worker never touches
   live VM state. Pool.submit/Pool.await are the only synchronization;
   submit publishes the snapshots to the worker, await publishes the
   compiled code back to the mutator. Async compiles run under
   Trace.suppress so their events cannot interleave with the mutator's. *)

module Trace = Pea_obs.Trace
module Pool = Pea_support.Pool

type key = int * int option * bool
(* (mth_id, osr loop-header bci option, speculative-inlining bit). The
   inlining bit keys dedup to the config variant the task compiles under,
   so a toggled config can never be satisfied by the other variant. *)

type outcome =
  | Done of Jit.compiled
  | Failed of string (* the pipeline raised; never installed, never retried *)

type task = {
  t_key : key;
  t_epoch : int; (* the method's invalidation epoch at enqueue *)
  t_enqueued_at : int; (* VM cycles at enqueue *)
  t_deadline : int; (* t_enqueued_at + Cost.compile_latency *)
  t_compile : unit -> Jit.compiled; (* closed over snapshots, domain-safe *)
}

(* Test-only fault injection: raised exceptions surface as [Failed] and
   must leave the VM interpreting the method, never crashed or wedged. *)
let test_hook : (key -> unit) ref = ref (fun _ -> ())

type entry = {
  en_task : task;
  en_outcome : outcome Pool.promise;
}

type t = {
  cap : int;
  threaded : bool; (* Async: compile on the domain pool; Replay: inline *)
  mutable inflight : entry list; (* enqueue order, oldest first; |..| <= cap *)
}

let create ~threaded ~cap =
  if cap <= 0 then invalid_arg "Compile_queue.create: cap must be positive";
  { cap; threaded; inflight = [] }

let depth q = List.length q.inflight

let is_full q = depth q >= q.cap

let mem q key = List.exists (fun e -> e.en_task.t_key = key) q.inflight

let has_inflight q = q.inflight <> []

let run_task task =
  match
    !test_hook task.t_key;
    task.t_compile ()
  with
  | code -> Done code
  | exception e -> Failed (Printexc.to_string e)

(* Replay compiles on the mutator at the deadline, which puts compile
   spans in replay traces at that cycle. An Async task still unclaimed
   then compiles there too: the model already charged the latency. *)
let enqueue q task =
  if mem q task.t_key then invalid_arg "Compile_queue.enqueue: duplicate key";
  if is_full q then invalid_arg "Compile_queue.enqueue: full";
  let en_outcome =
    if q.threaded then Pool.submit (fun () -> Trace.suppress (fun () -> run_task task))
    else Pool.deferred (fun () -> run_task task)
  in
  q.inflight <- q.inflight @ [ { en_task = task; en_outcome } ]

(* [due q ~now] removes and resolves every task whose deadline has been
   reached, in enqueue order. *)
let due q ~now =
  if q.inflight = [] then []
  else begin
    let ready, rest = List.partition (fun e -> e.en_task.t_deadline <= now) q.inflight in
    q.inflight <- rest;
    List.map (fun e -> (e.en_task, Pool.await e.en_outcome)) ready
  end

(* One mutex guards the job queue, the counts and every promise's state;
   jobs run outside it, on whichever domain claims them first. *)

type 'a state =
  | Waiting of bool * (unit -> 'a) (* queued (not deferred), the job *)
  | Claimed
  | Done of ('a, exn * Printexc.raw_backtrace) result

type 'a promise = { mutable state : 'a state }

let lock = Mutex.create ()

let work = Condition.create () (* a job was queued or a hold ended *)

let finished = Condition.create () (* a promise got its result *)

(* Each entry claims its promise and returns the job to run, or [None]
   when [await] claimed it first. *)
let jobs : (unit -> (unit -> unit) option) Queue.t = Queue.create ()

let unclaimed = ref 0 (* queued jobs nobody has claimed *)

let workers = ref 0 (* live worker domains *)

let idle = ref 0 (* workers not running a job *)

let parked = ref 0 (* idle workers waiting for a job *)

let held = ref 0 (* workers the open holds keep parked *)

let spawns = ref 0

let claim p =
  match p.state with
  | Waiting (queued, f) ->
      if queued then decr unclaimed;
      p.state <- Claimed;
      Some f
  | Claimed | Done _ -> None

(* [after] runs under the lock, once the result is published *)
let run ?(after = ignore) p f =
  let r = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
  Mutex.protect lock (fun () ->
      p.state <- Done r;
      after ();
      Condition.broadcast finished)

(* A worker takes jobs until the queue is empty, then parks if the open
   {!hold}s want more parked workers, and exits otherwise. *)
let rec worker () =
  let rec next () =
    match Queue.take_opt jobs with
    | Some entry -> ( match entry () with None -> next () | job -> job)
    | None when !parked < !held ->
        incr parked;
        Condition.wait work lock;
        decr parked;
        next ()
    | None ->
        decr workers;
        None
  in
  match
    Mutex.protect lock (fun () ->
        let job = next () in
        decr idle;
        job)
  with
  | Some job ->
      job ();
      worker ()
  | None -> ()

let deferred f = { state = Waiting (false, f) }

let submit f =
  let p = { state = Waiting (true, f) } in
  let record = Printexc.backtrace_status () (* new domains do not inherit it *) in
  (* the worker counts as idle again before [await] can return, so the
     caller's next batch finds it *)
  let entry () =
    claim p
    |> Option.map (fun f () ->
           Printexc.record_backtrace record;
           run ~after:(fun () -> incr idle) p f)
  in
  Mutex.protect lock (fun () ->
      Queue.push entry jobs;
      incr unclaimed;
      if !idle >= !unclaimed then Condition.signal work
      else begin
        ignore (Domain.spawn worker : unit Domain.t);
        incr workers;
        incr idle;
        incr spawns
      end);
  p

let await p =
  Option.iter (run p) (Mutex.protect lock (fun () -> claim p));
  let rec result () =
    match p.state with
    | Done r -> r
    | Waiting _ | Claimed ->
        Condition.wait finished lock;
        result ()
  in
  match Mutex.protect lock result with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let hold n f =
  Mutex.protect lock (fun () -> held := !held + n);
  Fun.protect f ~finally:(fun () ->
      Mutex.protect lock (fun () ->
          held := !held - n;
          Condition.broadcast work))

let size () = Mutex.protect lock (fun () -> !workers)

let spawned () = Mutex.protect lock (fun () -> !spawns)

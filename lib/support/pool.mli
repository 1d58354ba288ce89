(** One process-wide pool of worker domains, sized by the work itself. A
    job queued while no worker is idle spawns one; a worker that finds
    the queue empty exits, unless an open {!hold} wants it parked until
    the next job. So a process that never calls {!submit} spawns no
    domain, and one that has stopped using the pool keeps no idle domain
    in its stop-the-world collections. Workers take jobs in
    submission order; the pool publishes a job's inputs to whoever runs
    it and its result back to {!await}, and nothing else. *)

type 'a promise

(** [submit f] queues [f] for a worker, spawning one if none is idle. *)
val submit : (unit -> 'a) -> 'a promise

(** [deferred f] is never queued: {!await} runs [f] on the caller. *)
val deferred : (unit -> 'a) -> 'a promise

(** [await p] blocks until [p]'s result is ready. If no worker has
    claimed [p] yet, the caller runs it, so [await] never waits on a
    queued job. A job that raised re-raises the same exception, with its
    backtrace, at every [await]. *)
val await : 'a promise -> 'a

(** [hold n f] runs [f] with up to [n] more idle workers parked rather
    than exiting, so a caller that submits batches of [n] jobs (a
    server's rounds) spawns its workers once. Parked workers take part in
    every stop-the-world collection, so no more park than the open holds
    add up to, and the ones a hold kept exit when it ends. *)
val hold : int -> (unit -> 'a) -> 'a

(** [size ()] is the number of live worker domains. *)
val size : unit -> int

(** [spawned ()] is the number of worker domains spawned so far. *)
val spawned : unit -> int

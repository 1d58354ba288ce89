(** Bounded background-compilation queue backing the [Async] and [Replay]
    compile modes (see {!Jit.compile_mode}).

    Tasks are keyed by [(mth_id, osr_bci option)] and never duplicated in
    flight; the queue is bounded (the VM turns refusals into
    drop-and-reprofile backpressure). A task resolves at its {e deadline}
    — enqueue cycles + {!Pea_rt.Cost.compile_latency} — on the injected
    VM clock in both modes: Replay compiles on the mutator when the
    deadline is polled, Async compiles eagerly on the process's
    {!Pea_support.Pool} and awaits the result at the deadline. Every
    queue decision therefore lands at the same deterministic cycle in
    both modes; Async's gain is pure wall-clock overlap.

    Compile thunks must close only over task-owned snapshots (profile
    copy, blacklist copy): a pool worker never reads live VM state.
    Async compiles run under {!Pea_obs.Trace.suppress}. *)

type key = int * int option * bool
(** [(mth_id, osr loop-header bci option, speculative-inlining bit)]. The
    inlining bit keys the dedup check to the config variant the task was
    compiled under, so toggling speculative inlining between enqueue and
    install can never satisfy a request with code of the other variant. *)

type outcome =
  | Done of Jit.compiled
  | Failed of string  (** the pipeline raised; never installed or retried *)

type task = {
  t_key : key;
  t_epoch : int; (* the method's invalidation epoch at enqueue *)
  t_enqueued_at : int; (* VM cycles at enqueue *)
  t_deadline : int; (* t_enqueued_at + Cost.compile_latency *)
  t_compile : unit -> Jit.compiled;
}

val test_hook : (key -> unit) ref
(** Test-only fault injection, called (on the compiling domain) before
    each compile; a raised exception surfaces as {!Failed}. Default is a
    no-op. *)

type t

(** [create ~threaded ~cap] — [threaded] selects Async (the domain pool)
    over Replay (inline at the deadline). *)
val create : threaded:bool -> cap:int -> t

val depth : t -> int

val is_full : t -> bool

val mem : t -> key -> bool
(** Whether a task with this key is in flight (the dedup check). *)

val has_inflight : t -> bool

val enqueue : t -> task -> unit
(** Queue a task (Async: submits it to the domain pool).
    @raise Invalid_argument on a duplicate key or a full queue — callers
    must check {!mem} and {!is_full} first and apply their own dedup /
    backpressure policy. *)

val due : t -> now:int -> (task * outcome) list
(** [due q ~now] removes and resolves every task whose deadline has been
    reached, in enqueue order — awaiting the pool (Async) or compiling
    inline (Replay) as needed. Pass [now:max_int] to drain the queue
    completely. *)

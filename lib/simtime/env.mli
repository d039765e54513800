(** Simulation environment: one clock + one cost model + one counter set,
    plus the slot that holds the environment's trace buffer.

    A single [Env.t] is threaded through a whole simulated world (all ranks of
    one run share the clock; per-rank state lives in the VM and MPI layers).
    The [charge_*] helpers are the only way subsystems spend virtual time, so
    every cost is attributable to a named mechanism. *)

type journal
(** What the open scheduler pass did to this environment (see
    {!pass_begin}). *)

type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  trace : Ring.t option Atomic.t;
      (** The attached trace buffer, [None] while tracing is off.
          [Mpi_core.Trace.enable]/[disable] set it; {!Probe} reads it on
          every emission. Atomic because under parallel execution a
          spawned domain may read it while the main domain attaches or
          detaches one. *)
  journal : journal;
}

val create : ?cost:Cost.t -> unit -> t
(** Fresh environment with tracing off; the cost model defaults to
    {!Cost.motor}. *)

val now_us : t -> float
val now_ns : t -> float
(** Read the clock. A read inside a scheduler pass makes that pass
    depend on the time it ran at, so the pass is never fast-forwarded
    (see {!pass_end}). *)

val charge : t -> float -> unit
(** Charge raw nanoseconds. *)

val charge_per_byte : t -> float -> int -> unit
(** [charge_per_byte env ns_per_byte n] charges [ns_per_byte *. n]. *)

val count : t -> string -> unit
val count_n : t -> string -> int -> unit

val observe : t -> string -> float -> unit
(** Record a virtual-time sample (ns) into the named {!Stats} histogram.
    {!Probe.with_span} [~key] times a scope into a histogram and traces
    it as a span in one call. *)

(** {1 Idle fast-forward}

    A rank blocked on an in-flight message spends virtual time by
    polling: every scheduler pass over the blocked fibers charges each
    wait predicate's safepoint and progress polls. A pass that wakes
    nobody and changes nothing but the clock and the counters repeats
    identically until the earliest in-flight arrival, so the cooperative
    scheduler brackets each pass with {!pass_begin}/{!pass_end} and,
    when the pass qualifies, this module applies it again as the same
    float additions in the same order instead of re-running it
    (DESIGN.md §9). *)

val charge_poll : t -> float -> unit
(** {!charge} from a poll site (a GC safepoint poll, a progress-engine
    pump); recorded into the open pass, if any. *)

val count_poll : t -> string -> unit
(** {!count} from a poll site; recorded into the open pass, if any. *)

val arrived : t -> float -> bool
(** [arrived env at] is [at <= now]: whether a message due at [at] has
    arrived. A pending arrival is recorded into the open pass as a bound
    for the fast-forward. Does not count as a clock read. *)

val vouch : t -> unit
(** Called by a wait predicate that found nothing to do: its progress
    pump moved nothing and its request is still incomplete, so the same
    evaluation at a later time repeats exactly. *)

val pass_begin : t -> unit
(** Open a scheduler pass (passes may nest; an inner one spoils the
    outer one). *)

val pass_end : t -> preds:int -> idle:bool -> unit
(** Close the pass that evaluated [preds] wait predicates. When [idle]
    (nobody woke and the run goes on) and the pass qualifies, fast-forward
    over every identical later pass that ends strictly before the
    earliest recorded arrival: the clock takes the recorded poll charges
    again, in order, and every recorded counter is bumped once per
    skipped pass. A pass qualifies when all [preds] predicates vouched;
    nothing read the clock or wrote a counter or histogram outside the
    recorded poll sites; an arrival is pending; and the recorded charges
    re-added from the pass's start clock give exactly its end clock. *)

val skipped_passes : t -> int
(** How many passes have been fast-forwarded in this environment. *)

(** Simulation environment: one clock + one cost model + one counter set,
    plus the slot that holds the environment's trace buffer.

    A single [Env.t] is threaded through a whole simulated world (all ranks of
    one run share the clock; per-rank state lives in the VM and MPI layers).
    The [charge_*] helpers are the only way subsystems spend virtual time, so
    every cost is attributable to a named mechanism. *)

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
}

val create : ?cost:Cost.t -> unit -> t
(** Fresh environment with tracing off; the cost model defaults to
    {!Cost.motor}. *)

val now_us : t -> float
val now_ns : t -> float
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

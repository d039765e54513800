(** The per-environment trace buffer: a bounded ring of events in which
    the oldest are overwritten once it is full. {!Probe} writes it through
    the environment's [trace] slot; [Mpi_core.Trace] attaches, reads and
    exports it. *)

type kind = Instant | Span_begin | Span_end

type event = {
  t_us : float;
  rank : int;
  op : string;
  detail : string;
  kind : kind;
  cat : string;
  args : (string * string) list;
  span_id : int option;
}
(** Re-exported, with its fields documented, as [Mpi_core.Trace.event]. *)

type t = {
  capacity : int;
  buf : event option array;
  mutable next : int;  (** total events ever pushed *)
  mutable open_spans : int;  (** span begins minus span ends, ever *)
}

val create : int -> t
(** An empty ring holding at most [capacity] events. *)

val push : t -> event -> unit

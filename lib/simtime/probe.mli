(** The one emission API for trace events.

    Every layer — the VM and serializer below the MPI library as much as
    the device and the schedule engine — emits spans and instants here.
    Each call reads the environment's [trace] slot ({!Env.t}) and pushes
    into the attached buffer, so everything lands in one time-ordered
    ring; [Mpi_core.Trace] attaches, reads and exports it. With no buffer
    attached, emission is a slot read and nothing else: no event is built
    and no detail string is formatted (a span's [args] are still
    evaluated by the caller).

    Spans come in two flavours, mirroring the Chrome trace format they
    export to: {e sync} spans (no [id]) must nest properly per rank —
    begin/end brackets around a scope on one fiber; {e async} spans carry
    an [id] and may overlap freely (a rendezvous in flight, a collective
    schedule trickling forward). Rank [-1] denotes the runtime itself
    (GC, serializer) rather than a communicating rank. *)

val span_begin :
  Env.t ->
  ?id:int ->
  rank:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  unit ->
  unit

val span_end :
  Env.t ->
  ?id:int ->
  rank:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  unit ->
  unit

val with_span :
  Env.t ->
  key:string ->
  rank:int ->
  cat:string ->
  name:string ->
  (unit -> 'a) ->
  'a
(** Sync span around a scope that also observes the virtual time the
    scope charged into the {!Stats} histogram [key] — the standard way to
    attribute a pause or a pass to a mechanism. The end event and the
    sample are recorded even on raise; the sample is recorded whether or
    not a buffer is attached. *)

val instant :
  Env.t ->
  rank:int ->
  name:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** [instant env ~rank ~name fmt ...] records a point event whose detail
    is [fmt] applied to the arguments. The detail is formatted only when
    a buffer is attached: without one, no [%a] printer runs. *)

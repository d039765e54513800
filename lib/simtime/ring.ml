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

type t = {
  capacity : int;
  buf : event option array;
  mutable next : int;
  mutable open_spans : int;
}

let create capacity =
  { capacity; buf = Array.make capacity None; next = 0; open_spans = 0 }

let push t ev =
  (match ev.kind with
  | Span_begin -> t.open_spans <- t.open_spans + 1
  | Span_end -> t.open_spans <- t.open_spans - 1
  | Instant -> ());
  t.buf.(t.next mod t.capacity) <- Some ev;
  t.next <- t.next + 1

(* The one emission path: every layer reads its environment's trace slot
   and pushes straight into the attached ring. With the slot empty, no
   event is built and no detail is formatted — safe on hot paths. *)

let push r env ~kind ~id ~rank ~cat ~name ~args ~detail =
  Ring.push r
    {
      Ring.t_us = Env.now_us env;
      rank;
      op = name;
      detail;
      kind;
      cat;
      args;
      span_id = id;
    }

let pp_args args = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) args)

let span kind env ?id ~rank ~cat ~name ?(args = []) () =
  match Atomic.get env.Env.trace with
  | None -> ()
  | Some r -> push r env ~kind ~id ~rank ~cat ~name ~args ~detail:(pp_args args)

let span_begin env = span Ring.Span_begin env
let span_end env = span Ring.Span_end env

let with_span env ~key ~rank ~cat ~name f =
  let t0 = Env.now_ns env in
  span_begin env ~rank ~cat ~name ();
  Fun.protect f ~finally:(fun () ->
      span_end env ~rank ~cat ~name ();
      Env.observe env key (Env.now_ns env -. t0))

let instant env ~rank ~name fmt =
  match Atomic.get env.Env.trace with
  | None -> Format.ikfprintf ignore Format.str_formatter fmt
  | Some r ->
      Format.kasprintf
        (fun detail ->
          push r env ~kind:Ring.Instant ~id:None ~rank ~cat:"" ~name ~args:[]
            ~detail)
        fmt

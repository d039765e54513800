type t = { mutable now : float }

let create () = { now = 0.0 }
let now_ns t = t.now
let now_us t = t.now /. 1e3

(* A finite non-negative charge is the only kind that moves the clock:
   a NaN or +inf charge would poison every later arrival comparison, so
   it is refused with its value. The bound is [max_float] written as a
   literal, which keeps the check to two register comparisons on the
   interpreter's per-instruction path. *)
let advance t ns =
  if ns >= 0.0 && ns <= 0x1.fffffffffffffp1023 then t.now <- t.now +. ns
  else if ns < 0.0 then invalid_arg "Clock.advance: negative charge"
  else invalid_arg (Printf.sprintf "Clock.advance: non-finite charge %g" ns)

let reset t = t.now <- 0.0
let elapsed_since t t0 = t.now -. t0

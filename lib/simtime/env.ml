(* The idle journal: what one scheduler pass over the blocked fibers did
   to this environment. Only the two poll sites record into it (every
   [charge] does not: that branch would sit on the interpreter's hot
   path); everything else that could make a pass unrepeatable is caught
   by a guard in [pass_end]. *)
type journal = {
  mutable depth : int;  (* > 0 while a pass is open *)
  mutable start : float;  (* clock at the pass's start *)
  mutable charges : float array;  (* poll charges, in order *)
  mutable n_charges : int;
  mutable counts : string array;  (* poll counter bumps, in order *)
  mutable n_counts : int;
  mutable writes0 : int;  (* Stats.writes at the pass's start *)
  mutable vouched : int;  (* predicates that vouched for quiet *)
  mutable tainted : bool;  (* clock read or nested pass *)
  mutable earliest : float;  (* earliest arrival polled, not yet reached *)
  mutable skipped : int;  (* passes fast-forwarded so far *)
}

type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  trace : Ring.t option Atomic.t;
  journal : journal;
}

let create ?(cost = Cost.motor) () =
  {
    clock = Clock.create ();
    cost;
    stats = Stats.create ();
    trace = Atomic.make None;
    journal =
      {
        depth = 0;
        start = 0.0;
        charges = Array.make 16 0.0;
        n_charges = 0;
        counts = Array.make 16 "";
        n_counts = 0;
        writes0 = 0;
        vouched = 0;
        tainted = false;
        earliest = Float.infinity;
        skipped = 0;
      };
  }

(* A clock read makes a pass depend on the time it ran at. The store is
   unconditional (cheaper than a branch); [pass_begin] clears it. *)
let now_ns t =
  t.journal.tainted <- true;
  Clock.now_ns t.clock

let now_us t =
  t.journal.tainted <- true;
  Clock.now_us t.clock

let charge t ns = Clock.advance t.clock ns

let charge_per_byte t ns_per_byte n =
  if n < 0 then invalid_arg "Env.charge_per_byte: negative byte count";
  Clock.advance t.clock (ns_per_byte *. float_of_int n)

let count t key = Stats.incr t.stats key
let count_n t key n = Stats.add t.stats key n
let observe t key v = Stats.observe t.stats key v

(* ------------------------------------------------------------------ *)
(* Idle fast-forward                                                   *)
(* ------------------------------------------------------------------ *)

(* [a], or a copy twice its size once its [n] used slots fill it. *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let bigger = Array.make (2 * n) fill in
    Array.blit a 0 bigger 0 n;
    bigger
  end

let charge_poll t ns =
  Clock.advance t.clock ns;
  let j = t.journal in
  if j.depth > 0 then begin
    j.charges <- room j.charges j.n_charges 0.0;
    j.charges.(j.n_charges) <- ns;
    j.n_charges <- j.n_charges + 1
  end

let count_poll t key =
  Stats.incr t.stats key;
  let j = t.journal in
  if j.depth > 0 then begin
    j.counts <- room j.counts j.n_counts "";
    j.counts.(j.n_counts) <- key;
    j.n_counts <- j.n_counts + 1
  end

let arrived t at =
  if at <= Clock.now_ns t.clock then true
  else begin
    let j = t.journal in
    if at < j.earliest then j.earliest <- at;
    false
  end

let vouch t =
  let j = t.journal in
  j.vouched <- j.vouched + 1

let pass_begin t =
  let j = t.journal in
  j.depth <- j.depth + 1;
  if j.depth = 1 then begin
    j.start <- Clock.now_ns t.clock;
    j.n_charges <- 0;
    j.n_counts <- 0;
    j.writes0 <- Stats.writes t.stats;
    j.vouched <- 0;
    j.tainted <- false;
    j.earliest <- Float.infinity
  end
  else
    (* A scheduler run from inside a predicate: the outer pass is no
       longer a plain poll loop. *)
    j.tainted <- true

(* The clock after re-adding the recorded charges, in order, from [x]. *)
let replay_from j x =
  let x = ref x in
  for i = 0 to j.n_charges - 1 do
    x := !x +. j.charges.(i)
  done;
  !x

(* Every later pass is this one again until the earliest arrival: apply
   it for as many whole passes as end strictly before that arrival. A
   pass that does not move the clock is never repeated (the real loop
   would spin on it forever too). *)
let fast_forward t j =
  let rec passes k x =
    let next = replay_from j x in
    if next < j.earliest && next > x then passes (k + 1) next else k
  in
  let k = passes 0 (Clock.now_ns t.clock) in
  for _ = 1 to k do
    for i = 0 to j.n_charges - 1 do
      Clock.advance t.clock j.charges.(i)
    done
  done;
  for i = 0 to j.n_counts - 1 do
    Stats.add t.stats j.counts.(i) k
  done;
  j.skipped <- j.skipped + k

let pass_end t ~preds ~idle =
  let j = t.journal in
  j.depth <- j.depth - 1;
  if
    j.depth = 0 && idle && j.vouched = preds && (not j.tainted)
    && j.earliest < Float.infinity
    && Stats.writes t.stats - j.writes0 = j.n_counts
    && Float.equal (replay_from j j.start) (Clock.now_ns t.clock)
  then fast_forward t j

let skipped_passes t = t.journal.skipped

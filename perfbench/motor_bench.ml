(* Motor's end-to-end benchmark: three closed-loop workloads driven by rank 0
   in deterministic cooperative mode, each reported in both of Motor's
   clocks. Virtual time is the paper's modelled result; host time is how
   fast the simulator runs. See README.md for the metric definitions and
   run.py for the command-line contract. *)

module World = Motor.World
module Ot = Motor.Object_transport
module Smp = Motor.System_mp
module Om = Vm.Object_model
module Types = Vm.Types
module Classes = Vm.Classes
module Env = Simtime.Env
module Stats = Simtime.Stats
module Key = Simtime.Stats.Key

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Untimed ops before the first timed one: fills the buffer pool and
   reaches the steady GC state, so set-up absorbs one-off costs. *)
let warmup_ops = 20

(* Virtual metrics and per-op counts cover exactly the first [prefix_ops]
   timed ops of a session, so they repeat bit for bit however many ops the
   host clock admits. A session never stops inside its prefix, which also
   leaves ten samples beyond the host p99. *)
let prefix_ops = 1000

(* A session is one world: set-up, warm-up, then timed ops. No session
   outlives [session_ops] timed ops; a run strings fresh sessions together
   until its time is up. In [stencil], every young collection that finds a
   halo buffer pinned turns its 256 KiB block into elder space for good, so
   a rank's 32 MiB arena runs out after about 14,700 iterations
   (Heap.Out_of_memory); a session stays well below that.
   [vm.heap.blocks_promoted_per_op] measures the rate. *)
let session_ops = 3000

(* Set-up is measured at least this many times per untraced run; the median
   is reported. *)
let setup_sessions = 24

(* The paper's configuration, as in Figures 9 and 10. *)
let channel : [ `Shm | `Sock | `Rdma ] = `Sock
let cost = Simtime.Cost.motor

(* ------------------------------------------------------------------ *)
(* Reference kernel                                                     *)
(* ------------------------------------------------------------------ *)

(* Other tenants of a shared machine slow everything on it by up to 60%,
   in phases that last from seconds to many minutes, so two runs of the
   same code can read host times a quarter apart. Rank 0 therefore also
   times a fixed reference kernel before every [ref_every]-th timed op, and
   host op times are reported at the reference speed: scaled by
   [ref_nominal_us] over a kernel pass ([ref_op_us], [calm_op_us],
   [own_op_us]). The kernel uses no Motor code and allocates nothing on the
   OCaml heap but its clock reads, so neither a change to the program nor
   the size of its heap changes the kernel's work. It mixes the kinds of
   work the simulator does: opcode dispatch over a small stack machine,
   float sweeps, a pointer chase and buffer fills. The load slows the
   sweeps and fills most, and they weigh enough that the kernel slows about
   as much as the workloads do. *)
let ref_every = 50
let ref_nominal_us = 1000.0
let ref_passes = 6
let ref_sweeps = 30
let ref_hops = 2_000
let ref_fills = 10
let ref_code =
  let st = Random.State.make [| 5 |] in
  Array.init 4096 (fun _ -> Random.State.int st 8)
let ref_stack = Array.make 64 0
let ref_floats = Array.init 4096 float_of_int
let ref_tmp = Array.make 4096 0.0
let ref_fill = Bytes.make (256 lsl 10) '\000'

(* One cycle through every slot (Sattolo's algorithm). *)
let ref_chain =
  let n = 1 lsl 18 in
  let a = Array.init n Fun.id in
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let ref_sink = ref 0

(* [ref_passes] runs of a branchy stack machine over [ref_code]. *)
let ref_dispatch () =
  let sp = ref 8 and acc = ref 1 in
  let stack = ref_stack in
  for _ = 1 to ref_passes do
    for pc = 0 to Array.length ref_code - 1 do
      match ref_code.(pc) with
      | 0 ->
          stack.(!sp) <- !acc;
          if !sp < 60 then incr sp
      | 1 ->
          if !sp > 1 then decr sp;
          acc := !acc + stack.(!sp)
      | 2 -> acc := !acc * 3
      | 3 -> acc := !acc lxor pc
      | 4 -> acc := !acc lsr 1
      | 5 -> if !acc land 1 = 0 then acc := !acc + 7 else acc := !acc - 3
      | 6 -> stack.(!sp) <- stack.(!sp) + !acc
      | _ -> acc := !acc + stack.(pc land 63)
    done
  done;
  !acc

(* Host ns of one pass of the kernel. The stack machine starts from the
   same state every time, and a linear field is a fixed point of the sweep,
   so both repeat the same work on the same values. The chase resumes where
   the last pass stopped, so it keeps leaving the cache. *)
let ref_kernel_ns () =
  let t0 = now_ns () in
  Array.fill ref_stack 0 (Array.length ref_stack) 0;
  let acc = ref_dispatch () in
  let a = ref_floats and b = ref_tmp in
  let n = Array.length a in
  for _ = 1 to ref_sweeps do
    for i = 1 to n - 2 do
      b.(i) <- a.(i) +. (0.25 *. ((a.(i - 1) -. (2.0 *. a.(i))) +. a.(i + 1)))
    done;
    Array.blit b 1 a 1 (n - 2)
  done;
  let j = ref !ref_sink in
  for _ = 1 to ref_hops do
    j := ref_chain.(!j)
  done;
  for f = 1 to ref_fills do
    Bytes.fill ref_fill 0 (Bytes.length ref_fill) (Char.unsafe_chr ((!j + acc + f) land 0xff))
  done;
  ref_sink := !j;
  now_ns () -. t0

(* ------------------------------------------------------------------ *)
(* Host spans around calls into each layer (traced runs only)           *)
(* ------------------------------------------------------------------ *)

let tracing = ref false
let spans : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let record name ns =
  match Hashtbl.find_opt spans name with
  | Some l -> l := ns :: !l
  | None -> Hashtbl.add spans name (ref [ ns ])

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> record name (now_ns () -. t0)) f
  end

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type instance = {
  start_rank : World.rank_ctx -> int -> unit;
      (** Allocates the rank's inputs inside its fiber and returns the op:
          [op k] runs op [k] on that rank. *)
  check : unit -> bool;
      (** The oracle, run by rank 0 after each op outside its timing. *)
  digest : unit -> string;  (** Digest of the seed-derived inputs. *)
  interps : Vm.Interp.t option array;
  load_ns : float ref;  (** MIL assembly + verification, all ranks. *)
}

type workload = {
  name : string;
  why : string;
  ranks : int;
  instantiate : seed:int -> instance;
}

let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))
let i8 = Types.Eprim Types.I1
let r8 = Types.Eprim Types.R8

let no_interp ranks = (Array.make ranks None, ref 0.0)

(* --- pingpong: Figure 9's regular zero-copy path ------------------- *)

(* 8 B to 64 KiB go eager, 256 KiB goes rendezvous (the Motor preset's
   eager threshold is 64 KiB inclusive). *)
let ladder = [| 8; 1024; 65_536; 262_144 |]

let pingpong ~seed =
  let st = Random.State.make [| seed; 1 |] in
  let expected = Array.map (random_bytes st) ladder in
  let zeros = Array.map (fun n -> Bytes.make n '\000') ladder in
  let rank0 = ref None in
  let start_rank ctx =
    let gc = World.gc ctx in
    let comm = Smp.comm_world ctx in
    if World.rank ctx = 0 then begin
      let sends =
        Array.map
          (fun b ->
            let a = Om.alloc_array gc i8 (Bytes.length b) in
            Om.fill_array_bytes gc a b;
            a)
          expected
      in
      let recvs = Array.map (Om.alloc_array gc i8) ladder in
      rank0 := Some (gc, recvs);
      fun _ ->
        Array.iteri
          (fun i s ->
            span "motor.ot.send" (fun () -> Ot.send ctx ~comm ~dst:1 ~tag:i s);
            span "motor.ot.recv" (fun () ->
                ignore (Ot.recv ctx ~comm ~src:1 ~tag:i recvs.(i))))
          sends
    end
    else begin
      let bufs = Array.map (Om.alloc_array gc i8) ladder in
      fun _ ->
        Array.iteri
          (fun i b ->
            ignore (Ot.recv ctx ~comm ~src:0 ~tag:i b);
            Ot.send ctx ~comm ~dst:0 ~tag:i b)
          bufs
    end
  in
  (* The echo must match what was sent at every size; receive buffers are
     zeroed again so the next op cannot pass on stale data. *)
  let check () =
    let gc, recvs = Option.get !rank0 in
    let ok = ref true in
    Array.iteri
      (fun i r ->
        if not (Bytes.equal (Om.read_array_bytes gc r) expected.(i)) then
          ok := false;
        Om.fill_array_bytes gc r zeros.(i))
      recvs;
    !ok
  in
  let digest () =
    Digest.to_hex (Digest.string (String.concat "" (List.map Bytes.to_string (Array.to_list expected))))
  in
  let interps, load_ns = no_interp 2 in
  { start_rank; check; digest; interps; load_ns }

(* --- objects: Figure 10's serializer path at 512 objects ------------ *)

let list_elems = 256 (* each element is a node plus its int8 array *)
let list_data_bytes = 4096 (* Figure 10's fixed payload *)

(* Walks a LinkedArray list, optionally refilling each data array from
   [fill], and digests the object count and the data bytes in order. *)
let list_digest ?fill gc head =
  let mt = Om.class_of gc head in
  let farray = Classes.field mt "array" and fnext = Classes.field mt "next" in
  let data = Buffer.create list_data_bytes in
  let count = ref 0 in
  let rec walk node ~owned =
    incr count;
    (match Om.get_ref gc node farray with
    | Some arr ->
        incr count;
        Option.iter
          (fun st ->
            Om.fill_array_bytes gc arr (random_bytes st (Om.array_length gc arr)))
          fill;
        Buffer.add_bytes data (Om.read_array_bytes gc arr);
        Om.free gc arr
    | None -> ());
    let next = Om.get_ref gc node fnext in
    if owned then Om.free gc node;
    Option.iter (fun n -> walk n ~owned:true) next
  in
  walk head ~owned:false;
  Digest.to_hex
    (Digest.string (Printf.sprintf "%d:%s" !count (Buffer.contents data)))

let objects ~seed =
  let expected = ref "" in
  let echoed = ref None in
  let start_rank ctx =
    let gc = World.gc ctx in
    let comm = Smp.comm_world ctx in
    let registry = World.registry ctx in
    if World.rank ctx = 0 then begin
      let head =
        Harness.Workloads.make_linked_list gc registry ~elems:list_elems
          ~total_data_bytes:list_data_bytes
      in
      expected := list_digest ~fill:(Random.State.make [| seed; 2 |]) gc head;
      fun _ ->
        span "motor.smp.osend" (fun () -> Smp.osend ctx ~comm ~dst:1 ~tag:0 head);
        let obj, _ =
          span "motor.smp.orecv" (fun () -> Smp.orecv ctx ~comm ~src:1 ~tag:0)
        in
        echoed := Some (gc, obj)
    end
    else begin
      (* Registers the LinkedArray class in this rank's registry, which
         deserialization resolves names against. *)
      Om.free gc
        (Harness.Workloads.make_linked_list gc registry ~elems:1
           ~total_data_bytes:0);
      fun _ ->
        let obj, _ = Smp.orecv ctx ~comm ~src:0 ~tag:0 in
        Smp.osend ctx ~comm ~dst:0 ~tag:0 obj;
        Om.free gc obj
    end
  in
  let check () =
    match !echoed with
    | None -> false
    | Some (gc, obj) ->
        echoed := None;
        let d = list_digest gc obj in
        Om.free gc obj;
        String.equal d !expected
  in
  let interps, load_ns = no_interp 2 in
  { start_rank; check; digest = (fun () -> !expected); interps; load_ns }

(* --- stencil: managed 1-D Jacobi heat solve ------------------------- *)

let stencil_ranks = 4
let cells = 256 (* per rank *)
let alpha = 0.25

(* Interior update of one strip into a freshly allocated array; the two
   edge cells are left for the caller, which owns the halo values. *)
let sweep_mil =
  {|
.method float64[] sweep(float64[] u, float64 a) {
  .locals (float64[] v, int64 i, int64 last)
  ldarg u
  ldlen
  dup
  newarr float64
  stloc v
  ldc.i8 1
  sub
  stloc last
  ldc.i8 1
  stloc i
loop:
  ldloc i
  ldloc last
  clt
  brfalse done
  ldloc v
  ldloc i
  ldarg u
  ldloc i
  ldelem float64
  ldarg a
  ldarg u
  ldloc i
  ldc.i8 1
  sub
  ldelem float64
  ldc.r8 2.0
  ldarg u
  ldloc i
  ldelem float64
  fmul
  fsub
  ldarg u
  ldloc i
  ldc.i8 1
  add
  ldelem float64
  fadd
  fmul
  fadd
  stelem float64
  ldloc i
  ldc.i8 1
  add
  stloc i
  br loop
done:
  ldloc v
  ret
}
|}

(* The same update as [sweep_mil] plus the edge cells, in plain OCaml. *)
let update ~l ~c ~r = c +. (alpha *. ((l -. (2.0 *. c)) +. r))

let reference_step ~bl ~br u =
  let n = Array.length u in
  Array.init n (fun g ->
      let l = if g = 0 then bl else u.(g - 1) in
      let r = if g = n - 1 then br else u.(g + 1) in
      update ~l ~c:u.(g) ~r)

let stencil_inputs seed =
  let st = Random.State.make [| seed; 3 |] in
  let field = Array.init (stencil_ranks * cells) (fun _ -> Random.State.float st 1.0) in
  let bl = Random.State.float st 100.0 in
  let br = Random.State.float st 100.0 in
  (field, bl, br)

let floats_to_bytes a ~off ~len =
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float a.(off + i))
  done;
  b

let stencil ~seed =
  let field, bl, br = stencil_inputs seed in
  let reference = ref (Array.copy field) in
  (* Each rank queues a copy of its strip after every update; rank 0's
     check compares op k's strips with the reference. A rank may already
     be one iteration ahead when rank 0 checks, hence a queue. *)
  let produced = Array.init stencil_ranks (fun _ -> Queue.create ()) in
  let interps = Array.make stencil_ranks None in
  let load_ns = ref 0.0 in
  let start_rank ctx =
    let r = World.rank ctx in
    let gc = World.gc ctx in
    let comm = Smp.comm_world ctx in
    let t0 = now_ns () in
    let interp = Vm.Runtime.load ctx.World.rt ~entry:"sweep" sweep_mil in
    load_ns := !load_ns +. (now_ns () -. t0);
    interps.(r) <- Some interp;
    let u = ref (Om.alloc_array gc r8 cells) in
    Om.fill_array_bytes gc !u (floats_to_bytes field ~off:(r * cells) ~len:cells);
    let left = r - 1 and right = r + 1 in
    (* Host spans of the waiting calls come from the driving rank only. *)
    let rank0_span name f = if r = 0 then span name f else f () in
    fun _ ->
      let cell a i = Om.get_elem_float gc a i in
      let one () = Om.alloc_array gc r8 1 in
      let held = ref [] in
      let gl, gr =
        rank0_span "motor.ot.halo_post" (fun () ->
            let post neighbour ~ghost_tag ~edge_tag ~edge =
              if neighbour < 0 || neighbour >= stencil_ranks then None
              else begin
                let ghost = one () and out = one () in
                Om.set_elem_float gc out 0 (cell !u edge);
                held := ghost :: out :: !held;
                let rq = Ot.irecv ctx ~comm ~src:neighbour ~tag:ghost_tag ghost in
                let sq = Ot.isend ctx ~comm ~dst:neighbour ~tag:edge_tag out in
                Some (ghost, [ rq; sq ])
              end
            in
            (* A value travelling right carries tag 2, left tag 1. *)
            let gl = post left ~ghost_tag:2 ~edge_tag:1 ~edge:0 in
            let gr = post right ~ghost_tag:1 ~edge_tag:2 ~edge:(cells - 1) in
            (gl, gr))
      in
      let v =
        match
          span "vm.interp.run" (fun () ->
              Vm.Interp.run interp "sweep"
                [ Vm.Il.V_ref (Om.addr_of gc !u); Vm.Il.V_float alpha ])
        with
        | Some (Vm.Il.V_ref a) -> Vm.Gc.Handle.alloc gc a
        | _ -> failwith "sweep: expected an array"
      in
      let all = List.concat_map (fun g -> Option.fold ~none:[] ~some:snd g) [ gl; gr ] in
      rank0_span "motor.ot.halo_wait" (fun () -> Ot.wait_all ctx all);
      let ghost g ~boundary =
        match g with Some (o, _) -> cell o 0 | None -> boundary
      in
      let last = cells - 1 in
      Om.set_elem_float gc v 0
        (update ~l:(ghost gl ~boundary:bl) ~c:(cell !u 0) ~r:(cell !u 1));
      Om.set_elem_float gc v last
        (update ~l:(cell !u (last - 1)) ~c:(cell !u last)
           ~r:(ghost gr ~boundary:br));
      let local = ref 0.0 in
      for i = 0 to last do
        let d = cell v i -. cell !u i in
        local := !local +. (d *. d)
      done;
      List.iter (Om.free gc) !held;
      Om.free gc !u;
      u := v;
      Queue.push (Om.read_array_bytes gc v) produced.(r);
      let res = one () in
      Om.set_elem_float gc res 0 !local;
      rank0_span "motor.smp.allreduce" (fun () -> Smp.allreduce_sum_f64 ctx ~comm res);
      if not (Float.is_finite (cell res 0)) then failwith "stencil: residual is not finite";
      Om.free gc res
  in
  let check () =
    reference := reference_step ~bl ~br !reference;
    let ok = ref true in
    Array.iteri
      (fun r q ->
        match Queue.take_opt q with
        | Some got ->
            if not (Bytes.equal got (floats_to_bytes !reference ~off:(r * cells) ~len:cells))
            then ok := false
        | None -> ok := false)
      produced;
    !ok
  in
  let digest () =
    Digest.to_hex
      (Digest.bytes (floats_to_bytes (Array.append field [| bl; br |]) ~off:0
         ~len:(Array.length field + 2)))
  in
  { start_rank; check; digest; interps; load_ns }

let workloads =
  [
    {
      name = "pingpong";
      why = "regular zero-copy transport across eager and rendezvous: FCall gate, deferred pinning, CH3, sock channel";
      ranks = 2;
      instantiate = pingpong;
    };
    {
      name = "objects";
      why = "OSend/ORecv of a 512-object list: serializer, visited list, deserialization allocation, young GCs, buffer pool";
      ranks = 2;
      instantiate = objects;
    };
    {
      name = "stencil";
      why = "managed Jacobi solve: interpreter, GC with conditional pins on in-flight halos, allreduce schedule";
      ranks = stencil_ranks;
      instantiate = stencil;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile; 0 for an empty sample. *)
let pct p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))
  end

let median xs = pct 0.5 (Array.of_list xs)
let sum = Array.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let prefix_of n xs = Array.sub xs 0 (min n (Array.length xs))
let of_rev_list l = Array.of_list (List.rev l)

(* A session stops after its warm-up, after [prefix_ops] timed ops (plus
   the last), or once its time is up. *)
type mode = Warmup_only | Prefix_only | Timed of float

type session = {
  setups : float list;  (** start of each session to its first timed op, s *)
  timed_s : float;  (** host seconds of the timed phase, checks included *)
  create_ns : float;
  load_ns : float;
  host_ns : float array;  (** per timed op *)
  ref_ns : float array;  (** reference kernel passes, timed phase *)
  op_ref_ns : float array;  (** per timed op, the reference pass before it *)
  virt_us : float array;  (** per timed op *)
  failed : int;  (** timed ops whose oracle failed *)
  error : string option;  (** exception, or a failed warm-up oracle *)
  prefix : Stats.snapshot;  (** activity over the first [prefix_ops] timed ops *)
  prefix_instrs : int;
  prefix_young : int;
  prefix_full : int;
  spans : (string * float array) list;  (** host ns, timed phase *)
  digest : string;
}

let run_session wl ~seed ~mode ~traced =
  tracing := false;
  (* Frees the previous session's arenas, so peak RSS is that of one
     world and set-up starts from the same heap state every time. *)
  Stdlib.Gc.compact ();
  let t_start = now_ns () in
  let world = World.create ~channel ~cost ~n:wl.ranks () in
  let create_ns = now_ns () -. t_start in
  let inst = wl.instantiate ~seed in
  let env = World.env world in
  let gcs = Array.init wl.ranks (fun r -> World.gc (World.rank_ctx world r)) in
  let totals () =
    let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
    ( sum (function Some i -> Vm.Interp.instructions_executed i | None -> 0) inst.interps,
      sum Vm.Gc.minor_count gcs,
      sum Vm.Gc.full_count gcs )
  in
  let limit = ref max_int in
  let t_setup = ref nan in
  let host = ref [] and virt = ref [] and refs = ref [] and op_refs = ref [] in
  let failed = ref 0 and error = ref None in
  let prefix_from = ref (Stats.snapshot env.Env.stats, totals ()) in
  let prefix_to = ref !prefix_from in
  let body ctx =
    let rank = World.rank ctx in
    let op = inst.start_rank ctx in
    let k = ref 0 in
    while !k < !limit do
      if rank = 0 then begin
        let i = !k - warmup_ops in
        if i = 0 then prefix_from := (Stats.snapshot env.Env.stats, totals ());
        (* The last op differs from the others in virtual time, since its
           peers do not go on to post the next one; it never falls inside
           the prefix. *)
        let last =
          match mode with
          | Warmup_only -> i = -1
          | Prefix_only -> i = prefix_ops
          | Timed s ->
              i >= prefix_ops
              && (i + 1 = session_ops || (now_ns () -. !t_setup) /. 1e9 >= s)
        in
        if last then limit := !k + 1;
        if i >= 0 && i mod ref_every = 0 then refs := ref_kernel_ns () :: !refs;
        let pass = match !refs with p :: _ -> p | [] -> nan in
        let h0 = now_ns () and v0 = Env.now_us env in
        op !k;
        let h1 = now_ns () and v1 = Env.now_us env in
        if i = prefix_ops - 1 then prefix_to := (Stats.snapshot env.Env.stats, totals ());
        let ok = inst.check () in
        if i >= 0 then begin
          host := (h1 -. h0) :: !host;
          op_refs := pass :: !op_refs;
          virt := (v1 -. v0) :: !virt;
          if not ok then incr failed
        end
        else if not ok then error := Some (Printf.sprintf "oracle failed in warm-up op %d" !k);
        if i = -1 then begin
          t_setup := now_ns ();
          tracing := traced
        end
      end
      else op !k;
      incr k
    done
  in
  (try World.run world body
   with e -> error := Some (Printexc.to_string e));
  tracing := false;
  let t_end = now_ns () in
  let (s0, (i0, y0, f0)), (s1, (i1, y1, f1)) = (!prefix_from, !prefix_to) in
  {
    setups = [ (!t_setup -. t_start) /. 1e9 ];
    timed_s = (t_end -. !t_setup) /. 1e9;
    create_ns;
    load_ns = !(inst.load_ns);
    host_ns = of_rev_list !host;
    ref_ns = of_rev_list !refs;
    op_ref_ns = of_rev_list !op_refs;
    virt_us = of_rev_list !virt;
    failed = !failed;
    error = !error;
    prefix = Stats.diff s1 s0;
    prefix_instrs = i1 - i0;
    prefix_young = y1 - y0;
    prefix_full = f1 - f0;
    spans = [];
    digest = inst.digest ();
  }

(* Sessions on fresh worlds until [seconds] of timed ops have passed,
   merged into one: host samples, failures, set-ups and spans from all of
   them; the prefix and digest from the first, which every later session
   must repeat in virtual time. *)
let run_phase wl ~seed ~seconds ~traced =
  Hashtbl.reset spans;
  let rec go acc elapsed =
    let s = run_session wl ~seed ~mode:(Timed (seconds -. elapsed)) ~traced in
    let elapsed = elapsed +. s.timed_s in
    if elapsed >= seconds || Option.is_some s.error then List.rev (s :: acc)
    else go (s :: acc) elapsed
  in
  let ss = go [] 0.0 in
  let first = List.hd ss in
  let virt s = prefix_of prefix_ops s.virt_us in
  let errors =
    List.filter_map (fun s -> s.error) ss
    @
    if List.for_all (fun s -> s.error <> None || virt s = virt first) ss then []
    else [ "virtual times differ between sessions of one seed" ]
  in
  {
    first with
    setups = List.concat_map (fun s -> s.setups) ss;
    timed_s = List.fold_left (fun acc s -> acc +. s.timed_s) 0.0 ss;
    create_ns = median (List.map (fun s -> s.create_ns) ss);
    load_ns = median (List.map (fun s -> s.load_ns) ss);
    host_ns = Array.concat (List.map (fun s -> s.host_ns) ss);
    ref_ns = Array.concat (List.map (fun s -> s.ref_ns) ss);
    op_ref_ns = Array.concat (List.map (fun s -> s.op_ref_ns) ss);
    failed = List.fold_left (fun acc s -> acc + s.failed) 0 ss;
    error = (match errors with [] -> None | e :: _ -> Some e);
    spans = Hashtbl.fold (fun k v acc -> (k, of_rev_list !v) :: acc) spans [];
  }

(* ------------------------------------------------------------------ *)
(* Statistics and metrics                                               *)
(* ------------------------------------------------------------------ *)

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

(* Host ns of the run's median reference kernel pass. *)
let ref_median_ns (s : session) = pct 0.5 s.ref_ns

(* Host µs of every timed op at the reference speed. *)
let ref_op_us (s : session) =
  let k = ratio ref_nominal_us (ref_median_ns s) in
  Array.map (fun ns -> ns *. k) s.host_ns

(* Host µs at the reference speed of the ops in the run's calm quarter:
   those whose reference pass is at or below the 25th percentile of the
   passes, scaled by the median of those passes. Some ops slow more than
   the kernel under load (pingpong's buffer copies), so the scaled per-op
   times of a whole run can form a calm and a loaded mode, and a plain
   median flips between them with the share of the run each covers. *)
let calm_op_us (s : session) =
  let th = pct 0.25 s.ref_ns in
  let calm = List.filter (fun r -> r <= th) (Array.to_list s.ref_ns) in
  let k = ratio ref_nominal_us (median calm) in
  let ops = ref [] in
  Array.iteri (fun i ns -> if s.op_ref_ns.(i) <= th then ops := (ns *. k) :: !ops) s.host_ns;
  Array.of_list !ops

(* Host µs of every timed op, each at the speed of the reference pass
   before it. In a mostly calm run the slowest ops come from the loaded
   bursts, which the run's median pass would not scale down. *)
let own_op_us (s : session) =
  Array.mapi (fun i ns -> ns *. ratio ref_nominal_us s.op_ref_ns.(i)) s.host_ns

let end_to_end (s : session) =
  let host_us = ref_op_us s and calm_us = calm_op_us s in
  let virt = prefix_of prefix_ops s.virt_us in
  [
    m "host_ops_per_s" "1/ref_s" (ratio (float_of_int (Array.length host_us)) (sum host_us /. 1e6));
    m "host_op_us_p50" "ref_us" (pct 0.5 calm_us);
    m "host_op_us_p99" "ref_us" (pct 0.99 (own_op_us s));
    m "virt_op_us_p50" "virt_us" (pct 0.5 virt);
    m "virt_op_us_p99" "virt_us" (pct 0.99 virt);
  ]

let counter (s : session) key = float_of_int (Stats.counter_value s.prefix key)

let hist (s : session) key =
  match Stats.hist_summary s.prefix key with
  | Some h -> h
  | None -> { Stats.n = 0; sum = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p99 = 0.0 }

let span_of (s : session) name =
  Option.value ~default:[||] (List.assoc_opt name s.spans)

(* Per-layer metrics of the traced phase; counts and virtual times cover
   the prefix, host spans every timed op. *)
let per_layer (s : session) =
  let p = float_of_int prefix_ops in
  let per_op key = counter s key /. p in
  let virt_per_op key = (hist s key).Stats.sum /. 1e3 /. p in
  let ops = float_of_int (Array.length s.host_ns) in
  let interp_ns = sum (span_of s "vm.interp.run") in
  let instrs_per_op = float_of_int s.prefix_instrs /. p in
  let p50_us name = pct 0.5 (span_of s name) /. 1e3 in
  let halo =
    let post = span_of s "motor.ot.halo_post" and wait = span_of s "motor.ot.halo_wait" in
    Array.init (min (Array.length post) (Array.length wait)) (fun i -> post.(i) +. wait.(i))
  in
  let pins = counter s Key.pins and avoided = counter s Key.pins_avoided in
  let cond = counter s Key.conditional_pins in
  let eager = counter s Key.eager_sends and rndv = counter s Key.rndv_sends in
  let reused = counter s Key.buffers_reused in
  [
    m "world.create_host_ms" "ms" (s.create_ns /. 1e6);
    m "vm.interp.load_host_ms" "ms" (s.load_ns /. 1e6);
    m "vm.interp.run_host_ms_per_op" "ms" (interp_ns /. 1e6 /. ops);
    m "vm.interp.instrs_per_op" "count" instrs_per_op;
    m "vm.interp.minstr_per_host_s" "Minstr/s"
      (ratio (instrs_per_op *. ops) (interp_ns /. 1e9) /. 1e6);
    m "vm.heap.blocks_promoted_per_op" "count" (per_op Key.young_blocks_promoted);
    m "vm.gc.young_per_op" "count" (float_of_int s.prefix_young /. p);
    m "vm.gc.full_per_op" "count" (float_of_int s.prefix_full /. p);
    m "vm.gc.bytes_copied_per_op" "B" (per_op Key.gc_bytes_copied);
    m "vm.gc.young_pause_virt_us_p99" "virt_us" ((hist s Key.h_gc_young_pause).Stats.p99 /. 1e3);
    m "vm.gc.pin_poll_virt_us_per_op" "virt_us" (virt_per_op Key.h_gc_pin_poll);
    m "vm.gc.safepoint_polls_per_op" "count" (per_op Key.safepoint_polls);
    m "motor.fcall.calls_per_op" "count" (per_op Key.fcalls);
    m "motor.fcall.virt_us_per_op" "virt_us" (virt_per_op Key.h_fcall_gate);
    m "motor.pinning.pins_per_op" "count" (pins /. p);
    m "motor.pinning.deferred_per_op" "count" (per_op Key.pins_deferred);
    m "motor.pinning.avoided_ratio" "ratio" (ratio avoided (pins +. avoided));
    m "motor.pinning.cond_pins_per_op" "count" (cond /. p);
    m "motor.pinning.cond_dropped_ratio" "ratio"
      (ratio (counter s Key.conditional_pins_dropped) cond);
    m "motor.serializer.objects_per_op" "count" (per_op Key.ser_objects);
    m "motor.serializer.visited_probes_per_object" "count"
      (ratio (counter s Key.visited_probes) (counter s Key.ser_objects));
    m "motor.serializer.encode_virt_us_per_op" "virt_us" (virt_per_op Key.h_ser_encode);
    m "motor.serializer.decode_virt_us_per_op" "virt_us" (virt_per_op Key.h_ser_decode);
    m "motor.buffer_pool.reuse_ratio" "ratio"
      (ratio reused (reused +. counter s Key.buffers_created));
    m "motor.ot.send_host_us_p50" "us" (p50_us "motor.ot.send");
    m "motor.ot.recv_host_us_p50" "us" (p50_us "motor.ot.recv");
    m "motor.smp.osend_host_us_p50" "us" (p50_us "motor.smp.osend");
    m "motor.smp.orecv_host_us_p50" "us" (p50_us "motor.smp.orecv");
    m "motor.ot.halo_host_us_p50" "us" (pct 0.5 halo /. 1e3);
    m "motor.smp.allreduce_host_us_p50" "us" (p50_us "motor.smp.allreduce");
    m "mpi.ch3.msgs_per_op" "count" (per_op Key.msgs_sent);
    m "mpi.ch3.bytes_per_op" "B" (per_op Key.bytes_sent);
    m "mpi.ch3.rndv_ratio" "ratio" (ratio rndv (eager +. rndv));
    m "mpi.ch3.unexpected_ratio" "ratio"
      (ratio (counter s Key.unexpected_msgs) (counter s Key.msgs_sent));
    m "mpi.ch3.send_virt_us_p50" "virt_us" ((hist s Key.h_ch3_send).Stats.p50 /. 1e3);
    m "mpi.coll_sched.steps_per_op" "count"
      (float_of_int (hist s Key.h_sched_step).Stats.n /. p);
    m "mpi.coll_sched.step_virt_us_per_op" "virt_us" (virt_per_op Key.h_sched_step);
    m "fiber.residual_host_ms_per_op" "ms" ((sum s.host_ns -. interp_ns) /. 1e6 /. ops);
    m "bench.ref_kernel_host_us" "us" (ref_median_ns s /. 1e3);
  ]

(* The counts each workload's bypassed layers must leave at zero. *)
let separation wl (s : session) =
  let zero what v = if v = 0.0 then [] else [ Printf.sprintf "%s = %g (want 0)" what v ] in
  let ser () =
    zero "serializer objects" (counter s Key.ser_objects +. counter s Key.deser_objects)
  in
  let rndv () = zero "rendezvous sends" (counter s Key.rndv_sends) in
  let interp () = zero "interpreter instructions" (float_of_int s.prefix_instrs) in
  let coll () = zero "collective steps" (float_of_int (hist s Key.h_sched_step).Stats.n) in
  match wl.name with
  | "pingpong" -> ser () @ interp () @ coll ()
  | "objects" -> rndv () @ interp () @ coll ()
  | _ -> ser () @ rndv ()

(* Two seeds must give the same virtual times and counts over the prefix,
   and different inputs. *)
let seed_check (a : session) (b : session) =
  let va = prefix_of prefix_ops a.virt_us and vb = prefix_of prefix_ops b.virt_us in
  let problems =
    [
      (va <> vb, "per-op virtual times differ");
      ( Stats.snapshot_counters a.prefix <> Stats.snapshot_counters b.prefix,
        "per-op counters differ" );
      ( List.map (fun (k, h) -> (k, h.Stats.n, h.Stats.sum)) (Stats.snapshot_hists a.prefix)
        <> List.map (fun (k, h) -> (k, h.Stats.n, h.Stats.sum)) (Stats.snapshot_hists b.prefix),
        "virtual histograms differ" );
      ( (a.prefix_instrs, a.prefix_young, a.prefix_full)
        <> (b.prefix_instrs, b.prefix_young, b.prefix_full),
        "instruction or collection counts differ" );
      (String.equal a.digest b.digest, "input digests are equal");
    ]
  in
  List.filter_map (fun (bad, msg) -> if bad then Some msg else None) problems

(* Host time of the plain-OCaml reference solve over the prefix. *)
let native_stencil_ms seed =
  let field, bl, br = stencil_inputs seed in
  let once () =
    let t0 = now_ns () in
    let u = ref field in
    for _ = 1 to prefix_ops do
      u := reference_step ~bl ~br !u
    done;
    ignore (Sys.opaque_identity !u);
    (now_ns () -. t0) /. 1e6
  in
  median (List.init 5 (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_float v = Printf.sprintf "%.17g" v
let json_string s = Printf.sprintf "%S" s

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.m_name)
             (json_float x.value) (json_string x.unit_))
         ms)
  ^ "}"

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-44s %16.4f %s\n" x.m_name x.value x.unit_) ms

(* The host figures before scaling to the reference speed. *)
let print_raw (s : session) =
  let host_us = Array.map (fun ns -> ns /. 1e3) s.host_ns in
  Printf.printf
    "unscaled host: %.1f ops/s, op p50 %.1f us, p99 %.1f us; reference kernel p50 %.1f us over %d passes (scaled to %.0f us); %d ops in the calm quarter\n"
    (ratio (float_of_int (Array.length host_us)) (sum host_us /. 1e6))
    (pct 0.5 host_us) (pct 0.99 host_us) (ref_median_ns s /. 1e3) (Array.length s.ref_ns)
    ref_nominal_us (Array.length (calm_op_us s))

(* Human-readable per-layer breakdown: host busy/waiting, virtual, counts. *)
let print_layers (s : session) layer =
  let v name = (List.find (fun x -> x.m_name = name) layer).value in
  let ops = float_of_int (Array.length s.host_ns) in
  let op_ms = sum s.host_ns /. 1e6 /. ops in
  let instr_ns = cost.Simtime.Cost.managed_instr_ns in
  Printf.printf "per-layer (host per op %.4f ms; virtual per op p50 %.3f virt_us)\n" op_ms
    (pct 0.5 (prefix_of prefix_ops s.virt_us));
  Printf.printf "  %-18s %14s %14s %14s  %s\n" "layer" "host busy ms" "host wait us" "virt us/op" "counts per op";
  let row layer busy wait virt counts =
    let f = function None -> "-" | Some x -> Printf.sprintf "%.4f" x in
    Printf.printf "  %-18s %14s %14s %14s  %s\n" layer (f busy) (f wait) (f virt) counts
  in
  row "vm.heap" None None None (Printf.sprintf "World.create %.3f ms (set-up)" (v "world.create_host_ms"));
  row "vm.interp" (Some (v "vm.interp.run_host_ms_per_op")) None
    (Some (v "vm.interp.instrs_per_op" *. instr_ns /. 1e3))
    (Printf.sprintf "instrs %.1f; load %.3f ms (set-up)" (v "vm.interp.instrs_per_op")
       (v "vm.interp.load_host_ms"));
  row "vm.gc" None None
    (Some (((hist s Key.h_gc_young_pause).Stats.sum +. (hist s Key.h_gc_full_pause).Stats.sum
           +. (hist s Key.h_gc_pin_poll).Stats.sum) /. 1e3 /. float_of_int prefix_ops))
    (Printf.sprintf "young %.4f full %.4f copied %.1f B polls %.1f"
       (v "vm.gc.young_per_op") (v "vm.gc.full_per_op") (v "vm.gc.bytes_copied_per_op")
       (v "vm.gc.safepoint_polls_per_op"));
  row "motor.fcall" None None (Some (v "motor.fcall.virt_us_per_op"))
    (Printf.sprintf "calls %.2f" (v "motor.fcall.calls_per_op"));
  row "motor.pinning" None None None
    (Printf.sprintf "pins %.3f deferred %.3f avoided %.3f cond %.3f dropped %.3f"
       (v "motor.pinning.pins_per_op") (v "motor.pinning.deferred_per_op")
       (v "motor.pinning.avoided_ratio") (v "motor.pinning.cond_pins_per_op")
       (v "motor.pinning.cond_dropped_ratio"));
  row "motor.serializer" None None
    (Some (v "motor.serializer.encode_virt_us_per_op" +. v "motor.serializer.decode_virt_us_per_op"))
    (Printf.sprintf "objects %.1f probes/object %.1f pool reuse %.3f"
       (v "motor.serializer.objects_per_op") (v "motor.serializer.visited_probes_per_object")
       (v "motor.buffer_pool.reuse_ratio"));
  List.iter
    (fun (layer, metric) ->
      let x = v metric in
      if x > 0.0 then row layer None (Some x) None "p50 per call, includes peers' work")
    [
      ("motor.ot.send", "motor.ot.send_host_us_p50");
      ("motor.ot.recv", "motor.ot.recv_host_us_p50");
      ("motor.smp.osend", "motor.smp.osend_host_us_p50");
      ("motor.smp.orecv", "motor.smp.orecv_host_us_p50");
      ("motor.ot.halo", "motor.ot.halo_host_us_p50");
      ("motor.smp.allreduce", "motor.smp.allreduce_host_us_p50");
    ];
  row "mpi.ch3" None None (Some ((hist s Key.h_ch3_send).Stats.sum /. 1e3 /. float_of_int prefix_ops))
    (Printf.sprintf "msgs %.2f bytes %.0f rndv %.3f unexpected %.3f"
       (v "mpi.ch3.msgs_per_op") (v "mpi.ch3.bytes_per_op") (v "mpi.ch3.rndv_ratio")
       (v "mpi.ch3.unexpected_ratio"));
  row "mpi.coll_sched" None None (Some (v "mpi.coll_sched.step_virt_us_per_op"))
    (Printf.sprintf "steps %.2f" (v "mpi.coll_sched.steps_per_op"));
  row "fiber+residual" (Some (v "fiber.residual_host_ms_per_op")) None None
    "host per op minus never-yielding spans (Interp.run)"

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let revision = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pingpong | objects | stencil");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--revision", Arg.Set_string revision, "REV source revision for the manifest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "motor_bench --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("motor_bench: unknown workload '" ^ !workload ^ "'");
        exit 2
  in
  let seed = !seed and traced = !trace = 1 in
  let timed = if traced then !seconds /. 2.0 else !seconds in
  let fails = ref [] in
  let note_errors (s : session) = Option.iter (fun e -> fails := e :: !fails) s.error in
  (* Peak RSS is read after the timed phase, before the extra set-up-only
     sessions. *)
  let main, rss, setups, checked_against =
    if not traced then begin
      let main = run_phase wl ~seed ~seconds:timed ~traced:false in
      let rss = peak_rss_mib () in
      let more = max 0 (setup_sessions - List.length main.setups) in
      let warm = List.init more (fun _ -> run_session wl ~seed ~mode:Warmup_only ~traced:false) in
      (main, rss, main :: warm, None)
    end
    else begin
      let base = run_phase wl ~seed ~seconds:timed ~traced:false in
      let traced_s = run_phase wl ~seed ~seconds:timed ~traced:true in
      let other = run_session wl ~seed:(seed + 1) ~mode:Prefix_only ~traced:false in
      (traced_s, 0.0, [ base; traced_s; other ], Some (base, other))
    end
  in
  List.iter note_errors setups;
  let setup_samples = List.concat_map (fun (s : session) -> s.setups) setups in
  (* An op that raised counts as attempted and failed. *)
  let raised = if Option.is_some main.error then 1 else 0 in
  let attempted = Array.length main.host_ns + raised in
  let failed = main.failed + raised in
  let manifest =
    [
      ("revision", json_string !revision);
      ("ocaml", json_string Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("cost_preset", json_string cost.Simtime.Cost.name);
      ( "channel",
        json_string (match channel with `Shm -> "shm" | `Sock -> "sock" | `Rdma -> "rdma") );
      ("mode", json_string "cooperative");
      ("policy", json_string (Fiber.policy_name Fiber.Round_robin));
      ("workload", json_string wl.name);
      ("seed", string_of_int seed);
      ("ranks", string_of_int wl.ranks);
      ("warmup_ops", string_of_int warmup_ops);
      ("timed_ops", string_of_int attempted);
      ("session_ops_max", string_of_int session_ops);
      ("prefix_ops", string_of_int prefix_ops);
      ("traced", string_of_bool traced);
    ]
  in
  Printf.printf "manifest %s\n" (json_obj manifest);
  Printf.printf "workload %s: %s\n" wl.name wl.why;
  let e2e = end_to_end main in
  let error_rate = ratio (float_of_int failed) (float_of_int attempted) in
  let metrics =
    match checked_against with
    | None ->
      let ms =
        m "setup_s" "s" (median setup_samples)
        :: e2e
        @ [ m "peak_rss_mib" "MiB" rss; m "success_rate" "ratio" (1.0 -. error_rate) ]
      in
      print_table
        (Printf.sprintf "end-to-end (%d timed ops; virtual over the first %d; set-up median of %d)"
           attempted prefix_ops (List.length setup_samples))
        ms;
      Printf.printf "  %-44s %16.4f ratio\n" "error_rate" error_rate;
      print_raw main;
      ms
    | Some (base, other) ->
      let layer = per_layer main in
      print_layers main layer;
      let host_p50 s = pct 0.5 (calm_op_us s) in
      let overhead = 100.0 *. (ratio (host_p50 main) (host_p50 base) -. 1.0) in
      let native = if wl.name = "stencil" then native_stencil_ms seed else 0.0 in
      let sep = separation wl main in
      let seeds = seed_check main other in
      List.iter (fun p -> fails := ("layer separation: " ^ p) :: !fails) sep;
      List.iter (fun p -> fails := (Printf.sprintf "seeds %d/%d: %s" seed (seed + 1) p) :: !fails) seeds;
      Printf.printf "tracing overhead: host op p50 %.2f ref_us traced vs %.2f ref_us untraced (%+.2f%%)\n"
        (host_p50 main) (host_p50 base) overhead;
      Printf.printf "layer separation: %s\n" (if sep = [] then "ok" else String.concat "; " sep);
      Printf.printf "seed check (%d vs %d): %s (digests %s / %s)\n" seed (seed + 1)
        (if seeds = [] then "ok" else String.concat "; " seeds)
        main.digest other.digest;
      print_table "end-to-end of the traced phase" e2e;
      let ms =
        layer
        @ [
            m "baseline.native_stencil_host_ms" "ms" native;
            m "trace.overhead_pct" "%" overhead;
            m "error_rate" "ratio" error_rate;
          ]
      in
      print_table "per-layer metrics" ms;
      ms
  in
  let correct = !fails = [] && failed = 0 in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !fails);
  Printf.printf "RESULT %s\n"
    (json_obj
       [
         ("manifest", json_obj manifest);
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 attempted));
         ("failed", string_of_int (max failed (1 - attempted)));
         ("metrics", json_metrics metrics);
         ("end_to_end", json_metrics e2e);
       ])

module Env = Simtime.Env
module Cost = Simtime.Cost
module World = Motor.World
module Ot = Motor.Object_transport
module Smp = Motor.System_mp
module Om = Vm.Object_model
module Gc = Vm.Gc
module Classes = Vm.Classes
module Types = Vm.Types
module Mpi = Mpi_core.Mpi
module Std = Baselines.Std_serializer
module Wt = Baselines.Wrapper_transport

type protocol = { iters : int; timed : int; trials : int }

let paper_protocol = { iters = 200; timed = 100; trials = 3 }

let fig10_protocol ~total_objects =
  if total_objects <= 256 then { iters = 20; timed = 10; trials = 1 }
  else if total_objects <= 2048 then { iters = 8; timed = 4; trials = 1 }
  else { iters = 4; timed = 2; trials = 1 }

(* Shared ping-pong skeleton: rank 0 initiates and is timed; rank 1
   echoes. The round-trip count includes warmup, only the tail is
   measured. *)
let pingpong_skeleton ~env ~protocol ~rank ~send ~recv result =
  let warmup = protocol.iters - protocol.timed in
  if rank = 0 then begin
    for _ = 1 to warmup do
      send ();
      recv ()
    done;
    let t0 = Env.now_us env in
    for _ = 1 to protocol.timed do
      send ();
      recv ()
    done;
    result := ((Env.now_us env -. t0) /. float_of_int protocol.timed) :: !result
  end
  else
    for _ = 1 to protocol.iters do
      recv ();
      send ()
    done

let average = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Figure 9: regular buffer-to-buffer ping-pong                        *)
(* ------------------------------------------------------------------ *)

let bytes_trial_native ~protocol ~size =
  let env = Env.create ~cost:Cost.native_cpp () in
  let w = Mpi.create_world ~env ~n:2 () in
  let comm = Mpi.comm_world w in
  let result = ref [] in
  let body rank () =
    let p = Mpi.proc w rank in
    let buf = Bytes.create size in
    let other = 1 - rank in
    pingpong_skeleton ~env ~protocol ~rank
      ~send:(fun () -> Baselines.Native.send p ~comm ~dst:other ~tag:0 buf)
      ~recv:(fun () ->
        ignore (Baselines.Native.recv p ~comm ~src:other ~tag:0 buf))
      result
  in
  Mpi.run_fibers w [ ("pp0", body 0); ("pp1", body 1) ];
  average !result

let bytes_trial_motor ~protocol ~size =
  let w = World.create ~cost:Cost.motor ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
      pingpong_skeleton ~env ~protocol ~rank
        ~send:(fun () -> Ot.send ctx ~comm ~dst:other ~tag:0 buf)
        ~recv:(fun () -> ignore (Ot.recv ctx ~comm ~src:other ~tag:0 buf))
        result);
  average !result

let bytes_trial_wrapper ~protocol ~size ~cost ~mech =
  let w = World.create ~cost ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
      pingpong_skeleton ~env ~protocol ~rank
        ~send:(fun () -> Wt.send ~mech ctx ~comm ~dst:other ~tag:0 buf)
        ~recv:(fun () ->
          ignore (Wt.recv ~mech ctx ~comm ~src:other ~tag:0 buf))
        result);
  average !result

let pingpong_bytes ?(protocol = paper_protocol) system ~size =
  let trial () =
    match system with
    | Systems.Native_cpp -> bytes_trial_native ~protocol ~size
    | Systems.Motor_sys -> bytes_trial_motor ~protocol ~size
    | Systems.Indiana_sscli | Systems.Indiana_sscli_fastchecked
    | Systems.Indiana_dotnet | Systems.Mpijava ->
        let mech = Option.get (Systems.gate system) in
        bytes_trial_wrapper ~protocol ~size ~cost:(Systems.cost system) ~mech
  in
  average (List.init protocol.trials (fun _ -> trial ()))

(* ------------------------------------------------------------------ *)
(* Figure 10: linked-list (structured data) ping-pong                  *)
(* ------------------------------------------------------------------ *)

(* The benchmark structure of Section 8: a linked list whose elements each
   hold a data buffer; the total payload is spread evenly; total objects =
   2 x elements (each element's array is itself an object). *)
let linked_array_class registry =
  match Classes.find_by_name registry "LinkedArray" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"LinkedArray" in
      let arr = Classes.array_class registry (Types.Eprim Types.I1) in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("array", Types.Ref arr.Classes.c_id, true);
            ("next", Types.Ref id, true);
          ]
        ()

let make_linked_list gc registry ~elems ~total_data_bytes =
  if elems < 1 then invalid_arg "make_linked_list: need at least 1 element";
  let mt = linked_array_class registry in
  let farray = Classes.field mt "array" in
  let fnext = Classes.field mt "next" in
  let base = total_data_bytes / elems in
  let extra = total_data_bytes mod elems in
  let head = ref (Om.null gc) in
  for i = elems - 1 downto 0 do
    let node = Om.alloc_instance gc mt in
    let bytes = base + (if i < extra then 1 else 0) in
    let arr = Om.alloc_array gc (Types.Eprim Types.I1) bytes in
    for j = 0 to min (bytes - 1) 7 do
      Om.set_elem_int gc arr j ((i + j) land 0x7f)
    done;
    Om.set_ref gc node farray (Some arr);
    Om.free gc arr;
    if not (Om.is_null gc !head) then begin
      Om.set_ref gc node fnext (Some !head);
      Om.free gc !head
    end;
    head := node
  done;
  !head

module Bv = Mpi_core.Buffer_view

(* ------------------------------------------------------------------ *)
(* Fault-tolerance workloads                                           *)
(* ------------------------------------------------------------------ *)

(* A ring exchange whose payload evolves every round as a function of what
   was received, so any lost, duplicated or corrupted delivery the
   transport fails to mask changes the final digest. Deterministic: the
   same n/rounds/size/fault seed always produces the same digest. *)
let ring ?fault ?reliable ?parallel ~n ~rounds ~size () =
  if n < 2 then invalid_arg "Workloads.ring: need at least two ranks";
  if size < 1 then invalid_arg "Workloads.ring: need a positive size";
  let finals = Array.make n Bytes.empty in
  let w =
    Mpi.run ?fault ?reliable ?parallel ~n (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let rank = Mpi.rank p in
        let buf =
          Bytes.init size (fun i -> Char.chr ((rank + i) land 0xff))
        in
        let inb = Bytes.create size in
        for round = 1 to rounds do
          ignore
            (Mpi.sendrecv p ~comm
               ~dst:((rank + 1) mod n)
               ~send_tag:round ~send:(Bv.of_bytes buf)
               ~src:((rank + n - 1) mod n)
               ~recv_tag:round ~recv:(Bv.of_bytes inb));
          for i = 0 to size - 1 do
            Bytes.set buf i
              (Char.chr
                 ((Char.code (Bytes.get buf i)
                  + (Char.code (Bytes.get inb i) * 31)
                  + round)
                 land 0xff))
          done
        done;
        finals.(rank) <- Bytes.copy buf)
  in
  let digest =
    Digest.to_hex
      (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list finals)))
  in
  (digest, w)

(* Collective counterpart: repeated allreduce whose input depends on the
   previous round's result. Every rank must end with the same value. *)
let allreduce_chain ?fault ?reliable ?parallel ~n ~rounds () =
  if n < 2 then
    invalid_arg "Workloads.allreduce_chain: need at least two ranks";
  let finals = Array.make n 0L in
  let w =
    Mpi.run ?fault ?reliable ?parallel ~n (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let rank = Mpi.rank p in
        let acc = ref (Int64.of_int (rank + 1)) in
        for round = 1 to rounds do
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0
            (Int64.add !acc (Int64.of_int (round * (rank + 1))));
          let out =
            Mpi_core.Collectives.allreduce p comm
              ~op:Mpi_core.Collectives.sum_i64 b
          in
          acc := Bytes.get_int64_le out 0
        done;
        finals.(rank) <- !acc)
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (Array.to_list (Array.map Int64.to_string finals))))
  in
  (digest, w)

(* Compute-heavy collective workload for the wall-clock speedup bench: a
   vector allreduce (sum over i64 lanes) whose input each rank remixes
   locally every round. Both the reduction and the remix are O(size) per
   rank per round, so the work parallelizes across domains; the result
   is schedule-independent (sums are deterministic, the remix is a pure
   function of the previous result, the round and the rank), so the
   digest must agree between cooperative and parallel executions. The
   algorithm is pinned to recursive doubling to keep the communication
   pattern identical at every domain count. *)
let allreduce_bytes ?parallel ~n ~rounds ~size () =
  if n < 2 then
    invalid_arg "Workloads.allreduce_bytes: need at least two ranks";
  if size < 8 || size mod 8 <> 0 then
    invalid_arg "Workloads.allreduce_bytes: size must be a positive \
                 multiple of 8";
  let finals = Array.make n Bytes.empty in
  let w =
    Mpi.run ?parallel ~n (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let rank = Mpi.rank p in
        let buf =
          Bytes.init size (fun i -> Char.chr (((rank * 7) + i) land 0xff))
        in
        for round = 1 to rounds do
          let out =
            Mpi_core.Collectives.allreduce ~algo:`Rd p comm
              ~op:Mpi_core.Collectives.sum_i64 buf
          in
          for i = 0 to size - 1 do
            Bytes.set buf i
              (Char.chr
                 (((Char.code (Bytes.get out i) * 31)
                  + round
                  + ((rank + 1) * (i + 1)))
                 land 0xff))
          done
        done;
        finals.(rank) <- Bytes.copy buf)
  in
  let digest =
    Digest.to_hex
      (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list finals)))
  in
  (digest, w)

type object_result = Time_us of float | Crashed of string

exception Crashed_exn of string

let objects_trial_motor ~protocol ~visited ~elems ~total_data_bytes =
  let config = { World.default_config with visited } in
  let w = World.create ~cost:Cost.motor ~config ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let registry = World.registry ctx in
      if rank = 0 then begin
        let head = make_linked_list gc registry ~elems ~total_data_bytes in
        pingpong_skeleton ~env ~protocol ~rank
          ~send:(fun () -> Smp.osend ctx ~comm ~dst:other ~tag:0 head)
          ~recv:(fun () ->
            let obj, _ = Smp.orecv ctx ~comm ~src:other ~tag:0 in
            Om.free gc obj)
          result
      end
      else begin
        (* The echo side receives the structure and sends back what it
           received, so each round trip pays 2 serializations and 2
           deserializations in total. *)
        let held = ref (Om.null gc) in
        ignore (linked_array_class registry);
        pingpong_skeleton ~env ~protocol ~rank
          ~send:(fun () ->
            Smp.osend ctx ~comm ~dst:other ~tag:0 !held;
            Om.free gc !held;
            held := Om.null gc)
          ~recv:(fun () ->
            let obj, _ = Smp.orecv ctx ~comm ~src:other ~tag:0 in
            held := obj)
          result
      end);
  average !result

let objects_trial_wrapper ~protocol ~cost ~mech ~profile ~elems
    ~total_data_bytes =
  let w = World.create ~cost ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  (try
     World.run w (fun ctx ->
         let gc = World.gc ctx in
         let rank = World.rank ctx in
         let other = 1 - rank in
         let registry = World.registry ctx in
         if rank = 0 then begin
           let head = make_linked_list gc registry ~elems ~total_data_bytes in
           pingpong_skeleton ~env ~protocol ~rank
             ~send:(fun () ->
               let data = Std.serialize profile gc head in
               Wt.send_serialized ~mech ctx ~comm ~dst:other ~tag:0 data)
             ~recv:(fun () ->
               let data =
                 Wt.recv_serialized ~mech ctx ~comm ~src:other ~tag:0
               in
               Om.free gc (Std.deserialize profile gc data))
             result
         end
         else begin
           ignore (linked_array_class registry);
           let held = ref (Om.null gc) in
           pingpong_skeleton ~env ~protocol ~rank
             ~send:(fun () ->
               let data = Std.serialize profile gc !held in
               Om.free gc !held;
               held := Om.null gc;
               Wt.send_serialized ~mech ctx ~comm ~dst:other ~tag:0 data)
             ~recv:(fun () ->
               let data =
                 Wt.recv_serialized ~mech ctx ~comm ~src:other ~tag:0
               in
               held := Std.deserialize profile gc data)
             result
         end)
   with Std.Stack_overflow_sim ->
     raise
       (Crashed_exn
          "stack overflow in the recursive serialization mechanism"));
  average !result

let pingpong_objects ?protocol ?(visited = Motor.Serializer.Linear) system
    ~total_objects ~total_data_bytes =
  if total_objects < 2 || total_objects mod 2 <> 0 then
    invalid_arg "pingpong_objects: total_objects must be even and >= 2";
  let elems = total_objects / 2 in
  let protocol =
    match protocol with
    | Some p -> p
    | None -> fig10_protocol ~total_objects
  in
  let trial () =
    match system with
    | Systems.Motor_sys ->
        objects_trial_motor ~protocol ~visited ~elems ~total_data_bytes
    | Systems.Native_cpp ->
        invalid_arg "pingpong_objects: native C++ has no object transport"
    | Systems.Indiana_sscli | Systems.Indiana_sscli_fastchecked
    | Systems.Indiana_dotnet | Systems.Mpijava ->
        let mech = Option.get (Systems.gate system) in
        let profile = Option.get (Systems.serializer_profile system) in
        objects_trial_wrapper ~protocol ~cost:(Systems.cost system) ~mech
          ~profile ~elems ~total_data_bytes
  in
  match List.init protocol.trials (fun _ -> trial ()) with
  | times -> Time_us (average times)
  | exception Crashed_exn msg -> Crashed msg

(* Tests for the virtio substrate: rings, PCI transport, devices. *)

open Bm_engine
open Bm_virtio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt ?(size = 64) id =
  Packet.make ~id ~src:0 ~dst:1 ~size ~protocol:Packet.Udp ~sent_at:0.0 ()

(* ------------------------------------------------------------------ *)
(* Vring basics *)

let test_vring_create_validation () =
  Alcotest.check_raises "non power of two" (Invalid_argument "Vring.create: size must be a power of two in [2, 32768]")
    (fun () -> ignore (Vring.create ~size:100));
  let r = Vring.create ~size:8 in
  check_int "size" 8 (Vring.size r);
  check_int "all free" 8 (Vring.num_free r)

let test_vring_roundtrip () =
  let r = Vring.create ~size:8 in
  let p = pkt 1 in
  let head = Vring.add r ~out:[ 12; 64 ] ~in_:[] p in
  if head < 0 then Alcotest.fail "add failed";
  check_int "two descs consumed" 6 (Vring.num_free r);
  check_int "avail pending" 1 (Vring.avail_pending r);
  let popped = Vring.pop_avail r in
  if popped < 0 then Alcotest.fail "nothing avail";
  check_int "head matches" head popped;
  check_int "out bytes" 76 (Vring.out_bytes r ~head);
  check_int "in bytes" 0 (Vring.in_bytes r ~head);
  check_bool "payload preserved" true (Vring.payload r ~head == p);
  Vring.push_used r ~head ~written:0;
  check_int "reaped head" head (Vring.pop_used r);
  check_bool "payload back" true (Vring.reaped r == p);
  check_int "written" 0 (Vring.reaped_written r);
  check_int "descs recycled" 8 (Vring.num_free r);
  check_int "nothing more used" (-1) (Vring.pop_used r);
  Alcotest.check_raises "empty reap has no payload"
    (Invalid_argument "Vring.reaped: the last pop_used reaped nothing") (fun () ->
      ignore (Vring.reaped r))

let test_vring_fills_up () =
  let r = Vring.create ~size:4 in
  (* Each request takes 2 descriptors: only 2 fit. *)
  check_bool "1st" true (Vring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 1) >= 0);
  check_bool "2nd" true (Vring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 2) >= 0);
  check_int "3rd rejected" (-1) (Vring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 3));
  check_int "no free" 0 (Vring.num_free r)

let test_vring_indirect_single_slot () =
  let r = Vring.create ~size:4 in
  (* An 8-segment request fits in one slot with indirect descriptors. *)
  let segs = [ 16; 512; 512; 512; 512; 512; 512; 1 ] in
  check_int "direct rejected" (-1) (Vring.add r ~out:segs ~in_:[] (pkt 1));
  check_bool "indirect accepted" true (Vring.add r ~indirect:true ~out:segs ~in_:[] (pkt 1) >= 0);
  check_int "one desc used" 3 (Vring.num_free r);
  let head = Vring.pop_avail r in
  if head < 0 then Alcotest.fail "indirect chain not available";
  check_bool "flagged indirect" true (Vring.indirect r ~head);
  check_int "all segments visible" 8 (Vring.segments r ~head);
  Alcotest.(check (list int)) "segment lengths" segs
    (List.init 8 (fun i -> Vring.segment_len r ~head i))

let test_vring_fifo_order () =
  let r = Vring.create ~size:16 in
  for i = 1 to 5 do
    ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt i))
  done;
  for i = 1 to 5 do
    let head = Vring.pop_avail r in
    if head < 0 then Alcotest.fail "missing chain";
    check_int "fifo" i (Vring.payload r ~head).Packet.id
  done

let test_vring_out_of_order_completion () =
  let r = Vring.create ~size:16 in
  let heads = List.map (fun i -> Vring.add r ~out:[ 64 ] ~in_:[] (pkt i)) [ 1; 2; 3 ] in
  check_bool "all added" true (List.for_all (fun h -> h >= 0) heads);
  List.iter (fun _ -> ignore (Vring.pop_avail r)) heads;
  (* Complete in reverse order: driver reaps in completion order. *)
  List.iter (fun head -> Vring.push_used r ~head ~written:0) (List.rev heads);
  let ids =
    List.filter_map
      (fun _ -> if Vring.pop_used r >= 0 then Some (Vring.reaped r).Packet.id else None)
      heads
  in
  Alcotest.(check (list int)) "completion order" [ 3; 2; 1 ] ids;
  check_int "all recycled" 16 (Vring.num_free r)

let test_vring_set_payload () =
  let r = Vring.create ~size:8 in
  let placeholder = pkt 0 in
  let head = Vring.add r ~out:[] ~in_:[ 12; 1536 ] placeholder in
  if head < 0 then Alcotest.fail "add failed";
  ignore (Vring.pop_avail r);
  let received = pkt 42 in
  Vring.set_payload r ~head received;
  Vring.push_used r ~head ~written:received.Packet.size;
  if Vring.pop_used r < 0 then Alcotest.fail "no used";
  check_int "device payload" 42 (Vring.reaped r).Packet.id;
  check_int "written" 64 (Vring.reaped_written r)

let test_vring_push_used_unpopped_rejected () =
  let r = Vring.create ~size:8 in
  Alcotest.check_raises "bogus head"
    (Invalid_argument "Vring.push_used: head not outstanding") (fun () ->
      Vring.push_used r ~head:3 ~written:0)

let test_vring_index_wraparound () =
  let r = Vring.create ~size:4 in
  (* Cycle far past 2^16 to exercise free-running index wrap. *)
  for i = 0 to 70_000 do
    let head = Vring.add r ~out:[ 64 ] ~in_:[] (pkt i) in
    if head < 0 then Alcotest.fail "ring should never be full in lockstep";
    let popped = Vring.pop_avail r in
    if popped < 0 then Alcotest.fail "avail missing";
    check_int "lockstep id" i (Vring.payload r ~head:popped).Packet.id;
    Vring.push_used r ~head ~written:0;
    if Vring.pop_used r < 0 then Alcotest.fail "used missing";
    if (Vring.reaped r).Packet.id <> i then Alcotest.failf "wrap mismatch at %d" i
  done;
  check_bool "invariants hold after wrap" true (Vring.check_invariants r = Ok ())

(* Random driver/device interleaving preserving all ring invariants. *)
let prop_vring_random_ops =
  QCheck.Test.make ~name:"vring invariants under random op interleavings" ~count:300
    QCheck.(pair (int_range 0 3) (list_of_size (Gen.int_range 10 400) (int_range 0 99)))
    (fun (size_exp, ops) ->
      let size = 4 lsl size_exp in
      let r = Vring.create ~size in
      let popped = Queue.create () in
      let added = ref 0 and reaped = ref 0 in
      let step op =
        if op < 40 then begin
          (* driver add: 1-3 segments, sometimes indirect *)
          let nsegs = 1 + (op mod 3) in
          let indirect = op mod 7 = 0 in
          let out = List.init nsegs (fun i -> 64 * (i + 1)) in
          if Vring.add r ~indirect ~out ~in_:[] (pkt op) >= 0 then incr added
        end
        else if op < 70 then begin
          let head = Vring.pop_avail r in
          if head >= 0 then Queue.add head popped
        end
        else if op < 85 then begin
          match Queue.take_opt popped with
          | Some head -> Vring.push_used r ~head ~written:0
          | None -> ()
        end
        else if Vring.pop_used r >= 0 then incr reaped
      in
      List.iter step ops;
      match Vring.check_invariants r with
      | Ok () -> !reaped <= !added
      | Error e -> QCheck.Test.fail_report e)

let prop_vring_conservation =
  QCheck.Test.make ~name:"every added payload is reaped exactly once" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 1 1000))
    (fun ids ->
      let r = Vring.create ~size:16 in
      let seen = Hashtbl.create 64 in
      let note p =
        Hashtbl.replace seen p.Packet.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt seen p.Packet.id))
      in
      let submit_and_drain id =
        if Vring.add r ~out:[ 64 ] ~in_:[] (pkt id) < 0 then begin
          (* ring full: drain device and driver sides, then retry once *)
          let head = Vring.pop_avail r in
          if head >= 0 then Vring.push_used r ~head ~written:0;
          if Vring.pop_used r >= 0 then note (Vring.reaped r);
          ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt id))
        end
      in
      List.iter submit_and_drain ids;
      (* Drain everything. *)
      let rec drain () =
        let head = Vring.pop_avail r in
        if head >= 0 then begin
          Vring.push_used r ~head ~written:0;
          drain ()
        end
      in
      drain ();
      let rec reap () =
        if Vring.pop_used r >= 0 then begin
          note (Vring.reaped r);
          reap ()
        end
      in
      reap ();
      Hashtbl.fold (fun _ n ok -> ok && n >= 1) seen true
      && Vring.check_invariants r = Ok ())

(* ------------------------------------------------------------------ *)
(* Virtio PCI *)

let test_pci_probe_happy_path () =
  let accesses = ref 0 in
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:2 ~queue_size:256
      ~on_access:(fun () -> incr accesses)
  in
  (match Virtio_pci.probe pci ~driver_features:Feature.default_net with
  | Ok (features, queues, size) ->
    check_bool "indirect negotiated" true (Feature.contains features Feature.indirect_desc);
    check_int "queues" 2 queues;
    check_int "queue size" 256 size
  | Error e -> Alcotest.fail e);
  check_bool "driver ok" true (Virtio_pci.driver_ok pci);
  check_bool "costed accesses" true (!accesses >= 10);
  check_int "counted equally" !accesses (Virtio_pci.access_count pci)

let test_pci_feature_subset_enforced () =
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Blk ~num_queues:1 ~queue_size:128 ~on_access:ignore
  in
  (* A driver asking for net-only features on a blk device negotiates the
     intersection. *)
  match Virtio_pci.probe pci ~driver_features:(Feature.union Feature.default_blk Feature.mrg_rxbuf) with
  | Ok (features, _, _) ->
    check_bool "mrg_rxbuf not granted" false (Feature.contains features Feature.mrg_rxbuf);
    check_bool "indirect granted" true (Feature.contains features Feature.indirect_desc)
  | Error e -> Alcotest.fail e

let test_pci_reset_clears_state () =
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:1 ~queue_size:64 ~on_access:ignore
  in
  (match Virtio_pci.probe pci ~driver_features:Feature.default_net with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Virtio_pci.write pci Virtio_pci.Device_status 0;
  check_bool "driver_ok cleared" false (Virtio_pci.driver_ok pci);
  check_int "features cleared" 0 (Virtio_pci.read pci Virtio_pci.Driver_features)

let test_pci_readonly_registers () =
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:1 ~queue_size:64 ~on_access:ignore
  in
  Alcotest.check_raises "write vendor"
    (Invalid_argument "Virtio_pci: write to read-only register") (fun () ->
      Virtio_pci.write pci Virtio_pci.Vendor_id 0)

(* ------------------------------------------------------------------ *)
(* Virtio net device *)

let test_net_xmit_and_backend_drain () =
  let dev = Virtio_net.create ~on_access:ignore () in
  let kicks = ref 0 in
  Virtio_net.set_notify dev ~tx:(fun () -> incr kicks) ~rx:ignore;
  check_bool "xmit ok" true (Virtio_net.xmit dev (pkt 7));
  check_int "kicked" 1 !kicks;
  (* Backend drains the tx ring. *)
  let ring = Virtio_net.tx_ring dev in
  let head = Vring.pop_avail ring in
  if head < 0 then Alcotest.fail "backend saw nothing";
  check_int "hdr+payload" (12 + 64) (Vring.out_bytes ring ~head);
  Vring.push_used ring ~head ~written:0;
  check_int "reaped" 1 (Virtio_net.reap_tx dev)

let test_net_rx_path () =
  let dev = Virtio_net.create ~on_access:ignore () in
  let irqs = ref 0 in
  Virtio_net.set_interrupt dev (fun () -> incr irqs);
  let posted = Virtio_net.refill_rx dev ~target:32 in
  check_int "posted 32" 32 posted;
  check_int "idempotent refill" 0 (Virtio_net.refill_rx dev ~target:32);
  (* Device delivers two packets. *)
  let ring = Virtio_net.rx_ring dev in
  List.iter
    (fun id ->
      let head = Vring.pop_avail ring in
      if head < 0 then Alcotest.fail "no rx buffer";
      let p = pkt id in
      Vring.set_payload ring ~head p;
      Vring.push_used ring ~head ~written:p.Packet.size;
      Virtio_net.fire_interrupt dev)
    [ 100; 101 ];
  check_int "two interrupts" 2 !irqs;
  let received = Virtio_net.reap_rx dev in
  Alcotest.(check (list int)) "payload ids" [ 100; 101 ]
    (List.map (fun p -> p.Packet.id) received);
  (* Buffers were consumed; refill tops it back up. *)
  check_int "refill replaces" 2 (Virtio_net.refill_rx dev ~target:32)

let test_net_tx_full_drops () =
  let dev = Virtio_net.create ~queue_size:4 ~on_access:ignore () in
  (* queue_size 4, each packet = 2 descs -> 2 packets fit *)
  check_bool "1st" true (Virtio_net.xmit dev (pkt 1));
  check_bool "2nd" true (Virtio_net.xmit dev (pkt 2));
  check_bool "3rd dropped" false (Virtio_net.xmit dev (pkt 3));
  check_int "drop counted" 1 (Virtio_net.tx_dropped dev)

let test_net_probe () =
  let accesses = ref 0 in
  let dev = Virtio_net.create ~on_access:(fun () -> incr accesses) () in
  (match Virtio_net.probe dev with Ok () -> () | Error e -> Alcotest.fail e);
  check_bool "probe costs accesses" true (!accesses > 0)

(* ------------------------------------------------------------------ *)
(* Virtio blk device *)

let test_blk_submit_complete () =
  let sim = Sim.create () in
  let dev = Virtio_blk.create ~on_access:ignore () in
  let latency = ref nan in
  Sim.spawn sim (fun () ->
      let req = Virtio_blk.make_req ~op:Virtio_blk.Read ~sector:0 ~bytes:4096 ~now:(Sim.clock ()) in
      check_bool "submitted" true (Virtio_blk.submit dev req);
      let done_at = Sim.Ivar.read req.Virtio_blk.done_ in
      latency := done_at -. req.Virtio_blk.submitted_at);
  (* Backend: serve the request 100us later. *)
  Sim.spawn sim (fun () ->
      Sim.delay 100_000.0;
      let ring = Virtio_blk.ring dev in
      let head = Vring.pop_avail ring in
      if head < 0 then Alcotest.fail "no request";
      (* read request: header out, data + status in *)
      check_int "out = header" 16 (Vring.out_bytes ring ~head);
      check_int "in = data+status" 4097 (Vring.in_bytes ring ~head);
      Vring.push_used ring ~head ~written:4097;
      ignore (Virtio_blk.reap dev));
  Sim.run sim;
  Alcotest.(check (float 1.0)) "latency = backend delay" 100_000.0 !latency

let test_blk_write_layout () =
  let dev = Virtio_blk.create ~on_access:ignore () in
  let req = Virtio_blk.make_req ~op:Virtio_blk.Write ~sector:8 ~bytes:8192 ~now:0.0 in
  check_bool "submitted" true (Virtio_blk.submit dev req);
  let ring = Virtio_blk.ring dev in
  let head = Vring.pop_avail ring in
  if head < 0 then Alcotest.fail "no request";
  check_int "out = header+data" (16 + 8192) (Vring.out_bytes ring ~head);
  check_int "in = status" 1 (Vring.in_bytes ring ~head)

let test_blk_queue_depth () =
  let dev = Virtio_blk.create ~queue_size:8 ~on_access:ignore () in
  (* Read = 3 descriptors -> 2 fit in 8, 3rd rejected. *)
  let submit () =
    Virtio_blk.submit dev (Virtio_blk.make_req ~op:Virtio_blk.Read ~sector:0 ~bytes:4096 ~now:0.0)
  in
  check_bool "1" true (submit ());
  check_bool "2" true (submit ());
  check_bool "3 rejected" false (submit ());
  (* Indirect requests keep fitting. *)
  check_bool "indirect fits" true
    (Virtio_blk.submit dev ~indirect:true
       (Virtio_blk.make_req ~op:Virtio_blk.Read ~sector:0 ~bytes:4096 ~now:0.0))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "virtio.vring",
      [
        Alcotest.test_case "create validation" `Quick test_vring_create_validation;
        Alcotest.test_case "roundtrip" `Quick test_vring_roundtrip;
        Alcotest.test_case "fills up" `Quick test_vring_fills_up;
        Alcotest.test_case "indirect descriptors" `Quick test_vring_indirect_single_slot;
        Alcotest.test_case "FIFO avail order" `Quick test_vring_fifo_order;
        Alcotest.test_case "out-of-order completion" `Quick test_vring_out_of_order_completion;
        Alcotest.test_case "device sets payload" `Quick test_vring_set_payload;
        Alcotest.test_case "push_used validation" `Quick test_vring_push_used_unpopped_rejected;
        Alcotest.test_case "index wraparound past 2^16" `Quick test_vring_index_wraparound;
      ] );
    qsuite "virtio.vring.prop" [ prop_vring_random_ops; prop_vring_conservation ];
    ( "virtio.pci",
      [
        Alcotest.test_case "probe happy path" `Quick test_pci_probe_happy_path;
        Alcotest.test_case "feature subset" `Quick test_pci_feature_subset_enforced;
        Alcotest.test_case "reset clears state" `Quick test_pci_reset_clears_state;
        Alcotest.test_case "read-only registers" `Quick test_pci_readonly_registers;
      ] );
    ( "virtio.net",
      [
        Alcotest.test_case "xmit / backend drain" `Quick test_net_xmit_and_backend_drain;
        Alcotest.test_case "rx path" `Quick test_net_rx_path;
        Alcotest.test_case "tx full drops" `Quick test_net_tx_full_drops;
        Alcotest.test_case "probe" `Quick test_net_probe;
      ] );
    ( "virtio.blk",
      [
        Alcotest.test_case "submit/complete" `Quick test_blk_submit_complete;
        Alcotest.test_case "write layout" `Quick test_blk_write_layout;
        Alcotest.test_case "queue depth" `Quick test_blk_queue_depth;
      ] );
  ]

(* EVENT_IDX notification suppression (spec 2.6.7/2.6.8). *)
let test_event_idx_interrupt_suppression () =
  let r = Vring.create ~size:16 in
  (* Without arming: every completion owes an interrupt. *)
  let head = Vring.add r ~out:[ 64 ] ~in_:[] (pkt 1) in
  if head < 0 then Alcotest.fail "add failed";
  ignore (Vring.pop_avail r);
  Vring.push_used r ~head ~written:0;
  check_bool "default fires" true (Vring.should_interrupt r);
  check_bool "flag consumed" false (Vring.should_interrupt r);
  ignore (Vring.pop_used r);
  (* Armed: only the crossing completion fires. *)
  let heads =
    List.filter (fun h -> h >= 0) (List.map (fun i -> Vring.add r ~out:[ 64 ] ~in_:[] (pkt i)) [ 1; 2; 3; 4 ])
  in
  List.iter (fun _ -> ignore (Vring.pop_avail r)) heads;
  (* Driver: "interrupt me when used_idx passes old+3". *)
  Vring.set_used_event r (Vring.used_idx r + 2);
  (match heads with
  | [ a; b; c; d ] ->
    Vring.push_used r ~head:a ~written:0;
    check_bool "1st suppressed" false (Vring.should_interrupt r);
    Vring.push_used r ~head:b ~written:0;
    check_bool "2nd suppressed" false (Vring.should_interrupt r);
    Vring.push_used r ~head:c ~written:0;
    check_bool "3rd crosses the event" true (Vring.should_interrupt r);
    Vring.push_used r ~head:d ~written:0;
    check_bool "4th suppressed again" false (Vring.should_interrupt r)
  | _ -> Alcotest.fail "expected 4 heads")

let test_event_idx_notify_suppression () =
  let r = Vring.create ~size:16 in
  (* Device arms "kick me when avail passes current+2". *)
  Vring.set_avail_event r (Vring.avail_idx r + 1);
  ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt 1));
  check_bool "1st add: no kick needed" false (Vring.should_notify r);
  ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt 2));
  check_bool "2nd add crosses: kick" true (Vring.should_notify r);
  ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt 3));
  check_bool "3rd add: suppressed" false (Vring.should_notify r)

let event_idx_suites =
  [
    ( "virtio.event_idx",
      [
        Alcotest.test_case "interrupt suppression" `Quick test_event_idx_interrupt_suppression;
        Alcotest.test_case "notify suppression" `Quick test_event_idx_notify_suppression;
      ] );
  ]

let suites = suites @ event_idx_suites

(* Payload accessor errors. *)
let test_vring_payload_accessor () =
  let r = Vring.create ~size:8 in
  Alcotest.check_raises "absent head" (Invalid_argument "Vring.payload: head not outstanding")
    (fun () -> ignore (Vring.payload r ~head:2));
  let head = Vring.add r ~out:[ 64 ] ~in_:[] (pkt 9) in
  if head < 0 then Alcotest.fail "add failed";
  check_int "payload visible" 9 (Vring.payload r ~head).Packet.id

let accessor_suites =
  [ ("virtio.accessors", [ Alcotest.test_case "payload accessor" `Quick test_vring_payload_accessor ]) ]

let suites = suites @ accessor_suites

(* ------------------------------------------------------------------ *)
(* Model check: the ring against a list reference *)

type ring_op =
  | Add of bool * int list * int list  (** indirect, out lengths, in lengths *)
  | Pop_avail
  | Set_payload of int  (** k-th popped, not yet completed, request *)
  | Push_used of int * int  (** k-th popped request, written *)
  | Pop_used

let show_ring_op = function
  | Add (ind, out, in_) ->
    let l xs = String.concat ";" (List.map string_of_int xs) in
    Printf.sprintf "Add(%b,[%s],[%s])" ind (l out) (l in_)
  | Pop_avail -> "Pop_avail"
  | Set_payload k -> Printf.sprintf "Set_payload %d" k
  | Push_used (k, w) -> Printf.sprintf "Push_used(%d,%d)" k w
  | Pop_used -> "Pop_used"

let gen_ring_op =
  let open QCheck.Gen in
  let lens = list_size (int_bound 3) (int_bound 3000) in
  frequency
    [
      (4, map3 (fun ind out in_ -> Add (ind, out, in_)) bool lens lens);
      (3, return Pop_avail);
      (1, map (fun k -> Set_payload k) small_nat);
      (3, map2 (fun k w -> Push_used (k, w)) small_nat (int_bound 5000));
      (3, return Pop_used);
    ]

(* What the reference keeps per outstanding request. *)
type model_req = { mutable id : int; out : int list; in_ : int list; ind : bool }

(* The generator draws the ring size, a lockstep warm-up that parks the
   free-running indices just short of 2^16 (or leaves them at 0), and
   the operation sequence; after every step the ring must agree with
   the reference and pass [check_invariants]. *)
let prop_vring_model =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 4) (oneof [ return 0; int_range 65_400 65_535 ])
        (list_size (int_range 20 300) gen_ring_op))
  in
  let print (e, warm, ops) =
    Printf.sprintf "size 2^%d, warm-up %d, [%s]" e warm
      (String.concat "; " (List.map show_ring_op ops))
  in
  QCheck.Test.make ~name:"vring agrees with a list model, across index wrap" ~count:150
    (QCheck.make ~print gen)
    (fun (size_exp, warm, ops) ->
      let size = 1 lsl size_exp in
      let r : int Vring.t = Vring.create ~size in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      for i = 1 to warm do
        let head = Vring.add r ~out:[ 8 ] ~in_:[] (-i) in
        ignore (Vring.pop_avail r);
        Vring.push_used r ~head ~written:0;
        ignore (Vring.pop_used r)
      done;
      let table = Hashtbl.create 16 in
      let avail = Queue.create () in
      let popped = ref [] (* oldest first *) in
      let used = Queue.create () in
      let free = ref size and next_id = ref 0 in
      let nth_popped k =
        match !popped with [] -> None | l -> Some (List.nth l (k mod List.length l))
      in
      let remove_popped h = popped := List.filter (fun h' -> h' <> h) !popped in
      let check_chain head m =
        let segs = m.out @ m.in_ in
        if Vring.segments r ~head <> List.length segs then fail "segment count of %d" head;
        List.iteri
          (fun i len ->
            if Vring.segment_len r ~head i <> len then fail "segment %d length of %d" i head;
            if Vring.segment_writable r ~head i <> (i >= List.length m.out) then
              fail "segment %d direction of %d" i head)
          segs;
        let sum = List.fold_left ( + ) 0 in
        if Vring.out_bytes r ~head <> sum m.out || Vring.in_bytes r ~head <> sum m.in_ then
          fail "byte totals of %d" head;
        if Vring.indirect r ~head <> m.ind then fail "indirect flag of %d" head;
        if Vring.payload r ~head <> m.id then fail "payload of %d" head
      in
      let step op =
        (match op with
        | Add (ind, [], []) ->
          (match Vring.add r ~indirect:ind ~out:[] ~in_:[] 0 with
          | _ -> fail "empty chain accepted"
          | exception Invalid_argument _ -> ())
        | Add (ind, out, in_) ->
          let needed = if ind then 1 else List.length out + List.length in_ in
          let fits = needed <= !free && Queue.length avail < size in
          let id = !next_id in
          incr next_id;
          let head = Vring.add r ~indirect:ind ~out ~in_ id in
          if fits <> (head >= 0) then fail "add acceptance: model %b, ring head %d" fits head;
          if head >= 0 then begin
            if Hashtbl.mem table head then fail "head %d handed out twice" head;
            Hashtbl.replace table head { id; out; in_; ind };
            Queue.add head avail;
            free := !free - needed
          end
        | Pop_avail ->
          let head = Vring.pop_avail r in
          (match Queue.take_opt avail with
          | None -> if head <> -1 then fail "pop_avail %d from an empty ring" head
          | Some h ->
            if head <> h then fail "pop_avail: model %d, ring %d" h head;
            check_chain head (Hashtbl.find table head);
            popped := !popped @ [ head ])
        | Set_payload k -> (
          match nth_popped k with
          | None -> ()
          | Some head ->
            let m = Hashtbl.find table head in
            m.id <- !next_id;
            incr next_id;
            Vring.set_payload r ~head m.id)
        | Push_used (k, written) -> (
          match nth_popped k with
          | None -> ()
          | Some head ->
            remove_popped head;
            Vring.push_used r ~head ~written;
            Queue.add (head, written) used)
        | Pop_used ->
          let head = Vring.pop_used r in
          (match Queue.take_opt used with
          | None -> if head <> -1 then fail "pop_used %d with nothing used" head
          | Some (h, written) ->
            let m = Hashtbl.find table h in
            if head <> h then fail "pop_used: model %d, ring %d" h head;
            if Vring.reaped r <> m.id then fail "reaped payload of %d" h;
            if Vring.reaped_written r <> written then fail "reaped written of %d" h;
            Hashtbl.remove table h;
            free := !free + if m.ind then 1 else List.length m.out + List.length m.in_));
        (match Vring.check_invariants r with Ok () -> () | Error e -> fail "%s" e);
        if Vring.num_free r <> !free then
          fail "num_free: model %d, ring %d" !free (Vring.num_free r);
        if Vring.avail_pending r <> Queue.length avail then fail "avail_pending";
        if Vring.used_pending r <> Queue.length used then fail "used_pending";
        if Vring.in_flight_requests r <> Hashtbl.length table then fail "in_flight_requests"
      in
      List.iter step ops;
      true)

let model_suites = [ qsuite "virtio.vring.model" [ prop_vring_model ] ]
let suites = suites @ model_suites

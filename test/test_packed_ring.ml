(* Tests for the virtio 1.1 packed ring, including a model-based
   equivalence check against the split Vring. *)

open Bm_virtio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt id = Packet.make ~id ~src:0 ~dst:1 ~size:64 ~protocol:Packet.Udp ~sent_at:0.0 ()

let test_roundtrip () =
  let r = Packed_ring.create ~size:8 in
  let p = pkt 1 in
  (match Packed_ring.add r ~out:[ 12; 64 ] ~in_:[] p with
  | None -> Alcotest.fail "add failed"
  | Some id ->
    check_int "two slots consumed" 6 (Packed_ring.num_free r);
    (match Packed_ring.pop_avail r with
    | None -> Alcotest.fail "nothing available"
    | Some chain ->
      check_int "same id" id chain.Packed_ring.id;
      check_bool "payload" true (chain.Packed_ring.payload == p));
    Packed_ring.push_used r ~id ~written:0;
    (match Packed_ring.pop_used r with
    | Some (payload, _) -> check_bool "payload back" true (payload == p)
    | None -> Alcotest.fail "no used entry"));
  check_int "slots recycled" 8 (Packed_ring.num_free r);
  check_bool "invariants" true (Packed_ring.check_invariants r = Ok ())

let test_fills_up () =
  let r = Packed_ring.create ~size:4 in
  check_bool "1st" true (Packed_ring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 1) <> None);
  check_bool "2nd" true (Packed_ring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 2) <> None);
  check_bool "3rd rejected" true (Packed_ring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 3) = None)

let test_out_of_order_completion () =
  let r = Packed_ring.create ~size:16 in
  let ids =
    List.filter_map (fun i -> Packed_ring.add r ~out:[ 64 ] ~in_:[] (pkt i)) [ 1; 2; 3 ]
  in
  List.iter (fun _ -> ignore (Packed_ring.pop_avail r)) ids;
  (* Complete 3, 1, 2: the driver reclaims in completion order. *)
  (match ids with
  | [ a; b; c ] ->
    Packed_ring.push_used r ~id:c ~written:0;
    Packed_ring.push_used r ~id:a ~written:0;
    Packed_ring.push_used r ~id:b ~written:0
  | _ -> Alcotest.fail "expected 3 ids");
  let order =
    List.filter_map (fun _ -> Option.map (fun (p, _) -> p.Packet.id) (Packed_ring.pop_used r)) ids
  in
  Alcotest.(check (list int)) "completion order" [ 3; 1; 2 ] order;
  check_bool "invariants" true (Packed_ring.check_invariants r = Ok ())

let test_wrap_counters () =
  let r = Packed_ring.create ~size:4 in
  (* Many cycles in lockstep: wrap counters must keep rings consistent. *)
  for i = 0 to 9_999 do
    match Packed_ring.add r ~out:[ 64; 64; 64 ] ~in_:[] (pkt i) with
    | None -> Alcotest.failf "ring full in lockstep at %d" i
    | Some id ->
      (match Packed_ring.pop_avail r with
      | Some chain -> if chain.Packed_ring.payload.Packet.id <> i then Alcotest.fail "wrong chain"
      | None -> Alcotest.failf "avail missing at %d" i);
      Packed_ring.push_used r ~id ~written:0;
      (match Packed_ring.pop_used r with
      | Some (p, _) -> if p.Packet.id <> i then Alcotest.failf "wrap mismatch at %d" i
      | None -> Alcotest.failf "used missing at %d" i)
  done;
  check_bool "invariants after 10k cycles" true (Packed_ring.check_invariants r = Ok ())

let test_set_payload () =
  let r = Packed_ring.create ~size:8 in
  match Packed_ring.add r ~out:[] ~in_:[ 1536 ] (pkt 0) with
  | None -> Alcotest.fail "add failed"
  | Some id ->
    ignore (Packed_ring.pop_avail r);
    Packed_ring.set_payload r ~id (pkt 42);
    Packed_ring.push_used r ~id ~written:1400;
    (match Packed_ring.pop_used r with
    | Some (p, written) ->
      check_int "device payload" 42 p.Packet.id;
      check_int "written" 1400 written
    | None -> Alcotest.fail "no used")

(* Model-based equivalence: driving the packed ring and the split Vring
   through the same operation sequence (with in-order completion) yields
   the same observable payload streams. *)
let prop_matches_split_ring =
  QCheck.Test.make ~name:"packed ring ~ split ring (in-order schedules)" ~count:200
    QCheck.(pair (int_range 0 2) (list_of_size (Gen.int_range 10 300) (int_range 0 99)))
    (fun (size_exp, ops) ->
      let size = 8 lsl size_exp in
      let packed = Packed_ring.create ~size in
      let split = Vring.create ~size in
      let p_pop = Queue.create () and s_pop = Queue.create () in
      let log_p = Buffer.create 64 and log_s = Buffer.create 64 in
      let step op =
        if op < 40 then begin
          (* add a 2-segment request *)
          let payload = pkt op in
          let a = Packed_ring.add packed ~out:[ 12; 64 ] ~in_:[] payload in
          let b = Vring.add split ~out:[ 12; 64 ] ~in_:[] payload in
          if (a = None) <> (b < 0) then QCheck.Test.fail_report "add acceptance diverged";
          ()
        end
        else if op < 70 then begin
          let a = Packed_ring.pop_avail packed in
          let b = Vring.pop_avail split in
          match (a, b >= 0) with
          | Some ca, true ->
            if ca.Packed_ring.payload.Packet.id <> (Vring.payload split ~head:b).Packet.id then
              QCheck.Test.fail_report "pop_avail diverged";
            Queue.add ca.Packed_ring.id p_pop;
            Queue.add b s_pop
          | None, false -> ()
          | Some _, false | None, true -> QCheck.Test.fail_report "pop_avail presence diverged"
        end
        else if op < 85 then begin
          match (Queue.take_opt p_pop, Queue.take_opt s_pop) with
          | Some id, Some head ->
            Packed_ring.push_used packed ~id ~written:op;
            Vring.push_used split ~head ~written:op
          | None, None -> ()
          | _ -> QCheck.Test.fail_report "popped queues diverged"
        end
        else begin
          let a = Packed_ring.pop_used packed in
          let b = Vring.pop_used split in
          match (a, b >= 0) with
          | Some (pa, wa), true ->
            Buffer.add_string log_p (Printf.sprintf "%d:%d;" pa.Packet.id wa);
            Buffer.add_string log_s
              (Printf.sprintf "%d:%d;" (Vring.reaped split).Packet.id (Vring.reaped_written split))
          | None, false -> ()
          | Some _, false | None, true -> QCheck.Test.fail_report "pop_used presence diverged"
        end
      in
      List.iter step ops;
      Buffer.contents log_p = Buffer.contents log_s
      && Packed_ring.check_invariants packed = Ok ()
      && Vring.check_invariants split = Ok ())

let prop_invariants_random =
  QCheck.Test.make ~name:"packed ring invariants under random op mixes" ~count:200
    QCheck.(list_of_size (Gen.int_range 10 400) (int_range 0 99))
    (fun ops ->
      let r = Packed_ring.create ~size:16 in
      let popped = Queue.create () in
      let step op =
        if op < 45 then
          ignore (Packed_ring.add r ~out:(List.init (1 + (op mod 3)) (fun _ -> 64)) ~in_:[] (pkt op))
        else if op < 75 then (
          match Packed_ring.pop_avail r with
          | Some chain -> Queue.add chain.Packed_ring.id popped
          | None -> ())
        else if op < 90 then (
          (* out-of-order completion: sometimes take from the back *)
          match Queue.take_opt popped with
          | Some id -> Packed_ring.push_used r ~id ~written:0
          | None -> ())
        else ignore (Packed_ring.pop_used r)
      in
      List.iter step ops;
      Packed_ring.check_invariants r = Ok ())

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "virtio.packed",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "fills up" `Quick test_fills_up;
        Alcotest.test_case "out-of-order completion" `Quick test_out_of_order_completion;
        Alcotest.test_case "wrap counters (10k cycles)" `Quick test_wrap_counters;
        Alcotest.test_case "device sets payload" `Quick test_set_payload;
      ] );
    qsuite "virtio.packed.prop" [ prop_matches_split_ring; prop_invariants_random ];
  ]

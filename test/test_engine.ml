(* Tests for the discrete-event simulation engine. *)

open Bm_engine

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Simtime *)

let test_time_units () =
  check_float "us" 1_000.0 (Simtime.us 1.0);
  check_float "ms" 1_000_000.0 (Simtime.ms 1.0);
  check_float "sec" 1e9 (Simtime.sec 1.0);
  check_float "minutes" 60e9 (Simtime.minutes 1.0);
  check_float "hours" 3600e9 (Simtime.hours 1.0);
  check_float "roundtrip us" 2.5 (Simtime.to_us (Simtime.us 2.5));
  check_float "roundtrip s" 3.25 (Simtime.to_sec (Simtime.sec 3.25))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Simtime.to_string 500.0);
  Alcotest.(check string) "us" "1.60us" (Simtime.to_string (Simtime.us 1.6));
  Alcotest.(check string) "ms" "2.50ms" (Simtime.to_string (Simtime.ms 2.5));
  Alcotest.(check string) "s" "1.000s" (Simtime.to_string (Simtime.sec 1.0))

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:3.0 ~seq:1 "c";
  Pqueue.add q ~time:1.0 ~seq:2 "a";
  Pqueue.add q ~time:2.0 ~seq:3 "b";
  let pop () = match Pqueue.pop q with Some (_, _, v) -> v | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  check_bool "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  for i = 1 to 100 do
    Pqueue.add q ~time:5.0 ~seq:i i
  done;
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (_, _, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "fifo on equal time" (List.init 100 (fun i -> i + 1)) (drain [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing key order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1e6) small_nat))
    (fun items ->
      let q = Pqueue.create () in
      List.iteri (fun i (t, _) -> Pqueue.add q ~time:(Float.abs t) ~seq:i i) items;
      let rec drain last ok =
        match Pqueue.pop q with
        | None -> ok
        | Some (t, _, _) -> drain t (ok && t >= last)
      in
      drain neg_infinity true)

let test_pqueue_pop_if_le () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:5.0 ~seq:2 "b";
  Pqueue.add q ~time:5.0 ~seq:1 "a";
  Pqueue.add q ~time:9.0 ~seq:3 "c";
  check_bool "earlier bound: no pop" true (Pqueue.pop_if_le q ~time:4.0 ~seq:max_int = None);
  check_bool "same time, smaller seq bound: no pop" true
    (Pqueue.pop_if_le q ~time:5.0 ~seq:0 = None);
  check_bool "equal key pops" true (Pqueue.pop_if_le q ~time:5.0 ~seq:1 = Some (5.0, 1, "a"));
  (* A strictly earlier time is eligible whatever the seq bound. *)
  check_bool "earlier time beats seq bound" true
    (Pqueue.pop_if_le q ~time:8.0 ~seq:min_int = Some (5.0, 2, "b"));
  check_bool "later entry stays" true (Pqueue.pop_if_le q ~time:8.999 ~seq:max_int = None);
  check_int "one left" 1 (Pqueue.length q);
  check_bool "empty queue" true
    (let e = Pqueue.create () in
     Pqueue.pop_if_le e ~time:infinity ~seq:max_int = None)

let test_pqueue_clear_keeps_capacity () =
  let q = Pqueue.create () in
  for i = 1 to 100 do
    Pqueue.add q ~time:(float_of_int i) ~seq:i i
  done;
  let cap = Pqueue.capacity q in
  Pqueue.clear q;
  check_int "emptied" 0 (Pqueue.length q);
  check_int "capacity survives clear" cap (Pqueue.capacity q);
  (* Still a working queue afterwards. *)
  Pqueue.add q ~time:1.0 ~seq:1 42;
  check_bool "usable after clear" true (Pqueue.pop q = Some (1.0, 1, 42));
  (* The placeholder handle names no entry, on an empty queue or not. *)
  check_bool "no_handle on an empty queue" false (Pqueue.cancel q Pqueue.no_handle);
  ignore (Pqueue.add_handle q ~time:2.0 ~seq:2 7);
  check_bool "no_handle cancels nothing" false (Pqueue.cancel q Pqueue.no_handle);
  check_int "entry still queued" 1 (Pqueue.length q)

(* Popped (and cleared) entries must not pin their values: a freed
   slot is overwritten with a dummy, so the GC can collect fibers of
   completed events even while the queue object itself stays live. *)
let test_pqueue_releases_popped_values () =
  let q = Pqueue.create () in
  let n = 16 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    Pqueue.add q ~time:(float_of_int i) ~seq:i v
  done;
  for _ = 0 to (n / 2) - 1 do
    ignore (Pqueue.pop q)
  done;
  Pqueue.clear q;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  check_int "no value retained" 0 !live;
  ignore (Sys.opaque_identity q)

(* Model test: against a sorted association list, any interleaving of
   adds and pops agrees — including the FIFO tie-break at equal times. *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches sorted-list reference" ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      (* kept sorted ascending by (time, seq); seq is unique *)
      let seq = ref 0 in
      let ok = ref true in
      let pop_model () =
        match !model with
        | [] -> None
        | x :: rest ->
          model := rest;
          Some x
      in
      List.iter
        (function
          | Some t ->
            (* coarse times on purpose: ties are the interesting case *)
            let time = float_of_int (t / 10) in
            incr seq;
            Pqueue.add q ~time ~seq:!seq !seq;
            model := List.merge compare !model [ (time, !seq, !seq) ]
          | None -> if Pqueue.pop q <> pop_model () then ok := false)
        ops;
      let rec drain () =
        match Pqueue.pop q with
        | None -> if pop_model () <> None then ok := false
        | got ->
          if got <> pop_model () then ok := false;
          drain ()
      in
      drain ();
      !ok && Pqueue.is_empty q)

(* Indexed removal: a handle goes stale once its entry leaves the queue,
   and stays stale after a newer entry takes over its slot. *)
let test_pqueue_cancel_stale () =
  let q = Pqueue.create () in
  let h1 = Pqueue.add_handle q ~time:1.0 ~seq:1 "a" in
  check_bool "pop" true (Pqueue.pop q = Some (1.0, 1, "a"));
  (* The slot freed by the pop is reused by the next handle entry. *)
  let h2 = Pqueue.add_handle q ~time:2.0 ~seq:2 "b" in
  check_bool "stale after pop and reuse" false (Pqueue.cancel q h1);
  check_int "newer entry kept" 1 (Pqueue.length q);
  check_bool "live cancel" true (Pqueue.cancel q h2);
  check_bool "second cancel is stale" false (Pqueue.cancel q h2);
  check_bool "emptied" true (Pqueue.is_empty q);
  let h3 = Pqueue.add_handle q ~time:3.0 ~seq:3 "c" in
  Pqueue.clear q;
  check_bool "stale after clear" false (Pqueue.cancel q h3);
  (* Cancelling from the middle of the heap keeps the order of the rest. *)
  let q = Pqueue.create () in
  let hs =
    List.init 20 (fun i -> (i, Pqueue.add_handle q ~time:(float_of_int (i mod 5)) ~seq:i i))
  in
  List.iter (fun (i, h) -> if i mod 3 = 0 then check_bool "cancel" true (Pqueue.cancel q h)) hs;
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (_, _, v) -> drain (v :: acc)
  in
  let expected =
    List.filter (fun i -> i mod 3 <> 0) (List.init 20 Fun.id)
    |> List.stable_sort (fun a b -> compare (a mod 5) (b mod 5))
  in
  Alcotest.(check (list int)) "survivors in (time, seq) order" expected (drain [])

(* A cancelled entry's payload is released at once, like a popped one. *)
let test_pqueue_cancel_releases_value () =
  let q = Pqueue.create () in
  let weak = Weak.create 1 in
  let h =
    let v = ref 0 in
    Weak.set weak 0 (Some v);
    Pqueue.add_handle q ~time:1.0 ~seq:1 v
  in
  Pqueue.add q ~time:2.0 ~seq:2 (ref 1);
  check_bool "cancelled" true (Pqueue.cancel q h);
  Gc.full_major ();
  check_bool "payload collected" false (Weak.check weak 0);
  ignore (Sys.opaque_identity q)

(* The model test with indexed removal: ordinary and handle adds, pops,
   cancels and clears against the sorted list. Every handle is kept, so
   cancels also hit stale handles — entry popped, cancelled or cleared,
   slot possibly reused by a newer entry — which must return false and
   change nothing. Bursts of 70 handle adds (one always comes first)
   hold more than 64 entries live, so the slot table grows under live
   entries, and handles taken before a growth are cancelled after it. *)
let prop_pqueue_cancel_model =
  QCheck.Test.make ~name:"pqueue with cancel matches sorted-list reference" ~count:300
    QCheck.(list (triple (int_bound 20) (int_bound 50) small_nat))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let handles = Hashtbl.create 64 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let pop_model () =
        match !model with
        | [] -> None
        | x :: rest ->
          model := rest;
          Some x
      in
      let model_add time s = model := List.merge compare !model [ (time, s, s) ] in
      let add_handle time =
        incr seq;
        let h = Pqueue.add_handle q ~time ~seq:!seq !seq in
        Hashtbl.replace handles (Hashtbl.length handles) (h, !seq);
        model_add time !seq
      in
      List.iter
        (fun (op, x, pick) ->
          let time = float_of_int (x / 10) in
          if op < 5 then begin
            incr seq;
            Pqueue.add q ~time ~seq:!seq !seq;
            model_add time !seq
          end
          else if op < 10 then add_handle time
          else if op = 20 then
            for k = 1 to 70 do
              add_handle (float_of_int ((x + k) mod 7))
            done
          else if op < 14 then expect (Pqueue.pop q = pop_model ())
          else if op < 19 then begin
            let n = Hashtbl.length handles in
            if n > 0 then begin
              let h, s = Hashtbl.find handles (pick mod n) in
              let live = List.exists (fun (_, s', _) -> s' = s) !model in
              expect (Pqueue.cancel q h = live);
              model := List.filter (fun (_, s', _) -> s' <> s) !model
            end
          end
          else begin
            Pqueue.clear q;
            model := []
          end;
          expect (Pqueue.length q = List.length !model))
        ((20, 0, 0) :: ops);
      let rec drain () =
        match Pqueue.pop q with
        | None -> expect (pop_model () = None)
        | got ->
          expect (got = pop_model ());
          drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  (* After splitting, consuming from [b] must not affect [a]'s stream. *)
  let a' = Rng.copy a in
  for _ = 1 to 10 do
    ignore (Rng.bits64 b)
  done;
  check_bool "a unchanged by b" true (Rng.bits64 a = Rng.bits64 a')

let test_rng_uniform_range () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.float r 10.0 in
    check_bool "in range" true (x >= 0.0 && x < 10.0);
    let i = Rng.int r 7 in
    check_bool "int range" true (i >= 0 && i < 7)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:3 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Rng.exponential r ~mean:100.0)
  done;
  let m = Stats.Summary.mean s in
  check_bool "mean near 100" true (m > 97.0 && m < 103.0)

let test_rng_normal_moments () =
  let r = Rng.create ~seed:4 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Rng.normal r ~mean:50.0 ~stddev:5.0)
  done;
  check_bool "mean near 50" true (Float.abs (Stats.Summary.mean s -. 50.0) < 0.2);
  check_bool "sd near 5" true (Float.abs (Stats.Summary.stddev s -. 5.0) < 0.2)

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf r ~n:100 ~s:1.1 in
    check_bool "zipf in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank0 most popular" true (counts.(0) > counts.(10) && counts.(10) > 0)

let prop_pareto_above_scale =
  QCheck.Test.make ~name:"pareto samples >= scale" ~count:500
    QCheck.(pair (int_range 1 1000) (int_range 1 10))
    (fun (seed, shape) ->
      let r = Rng.create ~seed in
      let x = Rng.pareto r ~scale:5.0 ~shape:(float_of_int shape) in
      x >= 5.0)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.Summary.count s);
  check_float "mean" 2.5 (Stats.Summary.mean s);
  check_float "min" 1.0 (Stats.Summary.min s);
  check_float "max" 4.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stats.Summary.variance s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let all = Stats.Summary.create () in
  let r = Rng.create ~seed:9 in
  for i = 1 to 1000 do
    let x = Rng.float r 50.0 in
    Stats.Summary.add (if i mod 2 = 0 then a else b) x;
    Stats.Summary.add all x
  done;
  let m = Stats.Summary.merge a b in
  Alcotest.(check (float 1e-6)) "merged mean" (Stats.Summary.mean all) (Stats.Summary.mean m);
  Alcotest.(check (float 1e-4))
    "merged variance" (Stats.Summary.variance all) (Stats.Summary.variance m);
  check_int "merged count" 1000 (Stats.Summary.count m)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create ~lo:1.0 ~hi:1e7 ~precision:0.005 () in
  (* 10,000 samples: 1..10000; p50 ~ 5000, p99 ~ 9900. *)
  for i = 1 to 10_000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Stats.Histogram.percentile h 50.0 in
  let p99 = Stats.Histogram.percentile h 99.0 in
  let p999 = Stats.Histogram.percentile h 99.9 in
  check_bool "p50" true (Float.abs (p50 -. 5000.0) /. 5000.0 < 0.02);
  check_bool "p99" true (Float.abs (p99 -. 9900.0) /. 9900.0 < 0.02);
  check_bool "p999" true (Float.abs (p999 -. 9990.0) /. 9990.0 < 0.02);
  check_bool "ordered" true (p50 <= p99 && p99 <= p999)

let test_histogram_clamps () =
  let h = Stats.Histogram.create ~lo:10.0 ~hi:100.0 () in
  Stats.Histogram.add h 1.0;
  Stats.Histogram.add h 1e9;
  check_int "count" 2 (Stats.Histogram.count h);
  check_float "min tracked exactly" 1.0 (Stats.Histogram.min h);
  check_float "max tracked exactly" 1e9 (Stats.Histogram.max h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 1.0 1e6))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let ps = [ 10.0; 50.0; 90.0; 99.0; 99.9 ] in
      let vs = List.map (Stats.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vs)

let prop_histogram_percentile_within_bounds =
  QCheck.Test.make ~name:"histogram percentile within [min,max]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 1.0 1e9))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let p = Stats.Histogram.percentile h 99.0 in
      p >= Stats.Histogram.min h && p <= Stats.Histogram.max h)

let test_meter_rate () =
  let m = Stats.Meter.create () in
  (* 1000 events over 1 simulated second -> ~1000/s. *)
  for i = 0 to 999 do
    Stats.Meter.mark m ~now:(float_of_int i *. 1e6)
  done;
  let r = Stats.Meter.rate m in
  check_bool "rate ~1000" true (Float.abs (r -. 1001.0) < 2.0)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay 30.0;
      log := "c" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay 10.0;
      log := "a" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay 20.0;
      log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 30.0 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.spawn sim (fun () ->
      let rec tick () =
        Sim.delay 100.0;
        incr fired;
        tick ()
      in
      tick ());
  Sim.run ~until:1000.0 sim;
  check_int "10 ticks in 1000ns" 10 !fired;
  check_float "clock = until" 1000.0 (Sim.now sim)

let test_sim_nested_fork () =
  let sim = Sim.create () in
  let sum = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 1 to 5 do
        Sim.fork (fun () ->
            Sim.delay (float_of_int i);
            sum := !sum + i)
      done);
  Sim.run sim;
  check_int "all forks ran" 15 !sum

let test_sim_clock_inside () =
  let sim = Sim.create () in
  let seen = ref (-1.0) in
  Sim.spawn sim (fun () ->
      Sim.delay 42.0;
      seen := Sim.clock ());
  Sim.run sim;
  check_float "clock visible inside process" 42.0 !seen

let test_sim_blocking_outside_raises () =
  Alcotest.check_raises "delay outside" Sim.Not_in_simulation (fun () -> Sim.delay 1.0);
  Alcotest.check_raises "clock outside" Sim.Not_in_simulation (fun () ->
      ignore (Sim.clock ()))

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      let rec tick () =
        Sim.delay 10.0;
        incr count;
        if !count = 5 then Sim.stop sim;
        tick ()
      in
      tick ());
  Sim.run sim;
  check_int "stopped after 5" 5 !count

let test_ivar () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        let v = Sim.Ivar.read iv in
        got := (i, v, Sim.clock ()) :: !got)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay 50.0;
      Sim.Ivar.fill iv 99);
  Sim.run sim;
  check_int "three readers" 3 (List.length !got);
  List.iter
    (fun (_, v, t) ->
      check_int "value" 99 v;
      check_float "woke at fill time" 50.0 t)
    !got

let test_ivar_double_fill () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      Sim.Ivar.fill iv 1;
      (try Sim.Ivar.fill iv 2 with Invalid_argument _ -> raised := true));
  Sim.run sim;
  check_bool "second fill rejected" true !raised;
  Alcotest.(check (option int)) "peek" (Some 1) (Sim.Ivar.peek iv)

let test_channel_fifo () =
  let sim = Sim.create () in
  let ch = Sim.Channel.create () in
  let received = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        received := Sim.Channel.recv ch :: !received
      done);
  Sim.spawn sim (fun () ->
      Sim.delay 5.0;
      Sim.Channel.send ch 1;
      Sim.Channel.send ch 2;
      Sim.Channel.send ch 3);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_channel_waiter_order () =
  let sim = Sim.create () in
  let ch = Sim.Channel.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        let v = Sim.Channel.recv ch in
        order := (i, v) :: !order)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      List.iter (Sim.Channel.send ch) [ 10; 20; 30 ]);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "oldest waiter first" [ (1, 10); (2, 20); (3, 30) ] (List.rev !order)

let test_resource_mutual_exclusion () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.Resource.with_resource r (fun () ->
            Sim.delay 10.0;
            finish := (i, Sim.clock ()) :: !finish))
  done;
  Sim.run sim;
  let finished = List.rev !finish in
  Alcotest.(check (list (pair int (float 1e-9))))
    "serialized FIFO" [ (1, 10.0); (2, 20.0); (3, 30.0) ] finished

let test_resource_capacity_respected () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:3 in
  let peak = ref 0 in
  for _ = 1 to 10 do
    Sim.spawn sim (fun () ->
        Sim.Resource.acquire r;
        peak := max !peak (Sim.Resource.in_use r);
        Sim.delay 5.0;
        Sim.Resource.release r)
  done;
  Sim.run sim;
  check_int "never above capacity" 3 !peak;
  check_int "all released" 0 (Sim.Resource.in_use r)

let test_resource_no_barging () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:2 in
  let order = ref [] in
  (* p1 takes 2; p2 wants 2 (must wait); p3 wants 1 and arrives later —
     FIFO admission means p3 must not overtake p2. *)
  Sim.spawn sim (fun () ->
      Sim.Resource.acquire ~n:2 r;
      Sim.delay 10.0;
      Sim.Resource.release ~n:2 r);
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      Sim.Resource.acquire ~n:2 r;
      order := "p2" :: !order;
      Sim.delay 10.0;
      Sim.Resource.release ~n:2 r);
  Sim.spawn sim (fun () ->
      Sim.delay 2.0;
      Sim.Resource.acquire ~n:1 r;
      order := "p3" :: !order;
      Sim.Resource.release ~n:1 r);
  Sim.run sim;
  Alcotest.(check (list string)) "fifo admission" [ "p2"; "p3" ] (List.rev !order)

let test_determinism_same_seed () =
  let trace seed =
    let sim = Sim.create () in
    let r = Rng.create ~seed in
    let log = Buffer.create 64 in
    for i = 1 to 20 do
      Sim.spawn sim (fun () ->
          Sim.delay (Rng.exponential r ~mean:100.0);
          Buffer.add_string log (Printf.sprintf "%d@%.3f;" i (Sim.now sim)))
    done;
    Sim.run sim;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (trace 11) (trace 11);
  check_bool "different seeds differ" true (trace 11 <> trace 12)

(* ------------------------------------------------------------------ *)
(* Token bucket *)

let test_token_bucket_steady_rate () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:1000.0 ~burst:1.0 in
  let meter = Stats.Meter.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 2000 do
        ignore (Token_bucket.take tb);
        Stats.Meter.mark meter ~now:(Sim.clock ())
      done);
  Sim.run sim;
  let r = Stats.Meter.rate meter in
  check_bool "limited to ~1000/s" true (Float.abs (r -. 1000.0) /. 1000.0 < 0.01)

let test_token_bucket_burst () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:10.0 ~burst:100.0 in
  let waited = ref nan in
  Sim.spawn sim (fun () ->
      (* The first 100 tokens are free (full bucket). *)
      waited := Token_bucket.take_n tb 100.0;
      check_float "burst free" 0.0 !waited;
      (* The next token must wait 1/10 s. *)
      let w = Token_bucket.take tb in
      check_bool "then throttled" true (Float.abs (w -. 1e8) < 1e3));
  Sim.run sim

let test_token_bucket_unlimited () =
  let sim = Sim.create () in
  let tb = Token_bucket.unlimited () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 100 do
        check_float "no wait" 0.0 (Token_bucket.take_n tb 1e9)
      done);
  Sim.run sim;
  check_float "time did not advance" 0.0 (Sim.now sim)

(* ------------------------------------------------------------------ *)
(* Two-lane scheduler *)

let test_schedule_negative_raises () =
  let sim = Sim.create () in
  (try
     Sim.schedule sim ~delay:(-1.0) ignore;
     Alcotest.fail "negative delay accepted"
   with Invalid_argument _ -> ());
  try
    Sim.schedule sim ~delay:Float.nan ignore;
    Alcotest.fail "NaN delay accepted"
  with Invalid_argument _ -> ()

let test_event_counters () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:0.0 (fun () -> Sim.schedule sim ~delay:1.0 ignore);
  Sim.schedule sim ~delay:2.0 ignore;
  check_int "pending before run" 2 (Sim.pending_events sim);
  check_int "executed before run" 0 (Sim.events_executed sim);
  Sim.run sim;
  check_int "pending after run" 0 (Sim.pending_events sim);
  check_int "executed after run" 3 (Sim.events_executed sim)

(* The decisive invariant of the hot lane: execution order is exactly
   the (absolute time, schedule-order) sort, no matter how zero-delay
   and timed events interleave — including events scheduled from inside
   other events. The wrapper's seq counter increments in the same order
   as the scheduler's internal one because every schedule goes through
   it, so the sorted record predicts the execution order of a pure
   single-heap scheduler. *)
let prop_two_lane_order =
  QCheck.Test.make ~name:"two-lane order = (time, seq) sort" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 60)
        (pair (int_bound 3) (list_of_size (Gen.int_range 0 8) (int_bound 2))))
    (fun tasks ->
      let sim = Sim.create () in
      let seq = ref 0 in
      let id = ref 0 in
      let scheduled = ref [] in
      let order = ref [] in
      let sched ~delay body =
        incr seq;
        incr id;
        let my_seq = !seq and my_id = !id in
        scheduled := (Sim.now sim +. delay, my_seq, my_id) :: !scheduled;
        Sim.schedule sim ~delay (fun () ->
            order := my_id :: !order;
            body ())
      in
      List.iter
        (fun (d, children) ->
          sched ~delay:(float_of_int d) (fun () ->
              List.iter (fun c -> sched ~delay:(float_of_int c) ignore) children))
        tasks;
      Sim.run sim;
      let expected =
        List.map (fun (_, _, i) -> i) (List.sort compare (List.rev !scheduled))
      in
      List.rev !order = expected)

(* Zero-delay events and heap events at the same instant still obey
   global schedule order across the two lanes. *)
let test_two_lane_tie_break () =
  let sim = Sim.create () in
  let order = ref [] in
  let mark i () = order := i :: !order in
  Sim.schedule sim ~delay:1.0 (fun () ->
      (* At time 1.0: interleave lane and heap events at the current
         instant; seq order must win regardless of the lane. *)
      Sim.schedule sim ~delay:0.0 (mark 1);
      Sim.schedule sim ~delay:0.0 (mark 2);
      Sim.schedule sim ~delay:0.0 (fun () ->
          mark 3 ();
          Sim.schedule sim ~delay:0.0 (mark 6));
      Sim.schedule sim ~delay:0.0 (mark 4);
      Sim.schedule sim ~delay:2.0 (mark 7);
      Sim.schedule sim ~delay:0.0 (mark 5));
  Sim.run sim;
  Alcotest.(check (list int)) "global (time, seq) order" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !order)

let test_sim_stats_lanes () =
  let sim = Sim.create () in
  let ran = ref 0 in
  for _ = 1 to 5 do
    Sim.schedule sim ~delay:0.0 (fun () -> incr ran)
  done;
  for i = 1 to 3 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr ran)
  done;
  Sim.run sim;
  let s = Sim.stats sim in
  check_int "executed" 8 s.Sim.executed;
  check_int "lane events" 5 s.Sim.lane;
  check_int "heap events" 3 s.Sim.heap;
  check_int "executed = lane + heap" s.Sim.executed (s.Sim.lane + s.Sim.heap);
  check_int "pending lane drained" 0 s.Sim.pending_lane;
  check_int "pending heap drained" 0 s.Sim.pending_heap;
  check_bool "lane ring capacity is a power of two" true
    (s.Sim.lane_capacity land (s.Sim.lane_capacity - 1) = 0)

(* ------------------------------------------------------------------ *)
(* Cancellable timers *)

let test_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref [] in
  let t1 = Sim.schedule_timer sim ~delay:10.0 (fun () -> fired := 1 :: !fired) in
  let t2 = Sim.schedule_timer sim ~delay:20.0 (fun () -> fired := 2 :: !fired) in
  check_int "both pending" 2 (Sim.pending_events sim);
  Sim.cancel sim t1;
  check_int "a cancelled timer is not pending" 1 (Sim.pending_events sim);
  Sim.cancel sim t1;
  Sim.run sim;
  Alcotest.(check (list int)) "only the live timer fired" [ 2 ] !fired;
  check_float "clock at the live timer" 20.0 (Sim.now sim);
  Sim.cancel sim t2;
  (* [stop] discards timers; their handles cannot touch a newer timer
     that takes over the freed slot. *)
  let t3 = Sim.schedule_timer sim ~delay:5.0 ignore in
  Sim.stop sim;
  check_int "stop discards timers" 0 (Sim.pending_events sim);
  let hit = ref false in
  ignore (Sim.schedule_timer sim ~delay:5.0 (fun () -> hit := true));
  Sim.cancel sim t3;
  Sim.run sim;
  check_bool "newer timer survives a stale cancel" true !hit

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_timer_rejects_bad_delay () =
  let sim = Sim.create () in
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "schedule_timer %g" d) true
        (raises_invalid (fun () -> ignore (Sim.schedule_timer sim ~delay:d ignore))))
    [ 0.0; -1.0; Float.nan ];
  check_int "nothing scheduled" 0 (Sim.pending_events sim)

(* Regression: a NaN delay used to pass the Delay handler's [d < 0.0]
   check and raise out of [Sim.run], past the fiber's own handler. *)
let test_bad_delay_raises_in_fiber () =
  let sim = Sim.create () in
  let caught = ref 0 in
  let iv = Sim.Ivar.create () in
  Sim.spawn sim (fun () ->
      List.iter
        (fun d -> if raises_invalid (fun () -> Sim.delay d) then incr caught)
        [ -1.0; Float.nan ];
      List.iter
        (fun timeout ->
          if raises_invalid (fun () -> ignore (Sim.Ivar.read_timeout sim iv ~timeout)) then
            incr caught)
        [ 0.0; -1.0; Float.nan ]);
  Sim.run sim;
  check_int "all five caught inside the fiber" 5 !caught

let test_read_timeout () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () and never = Sim.Ivar.create () in
  let log = ref [] in
  let note what = log := (what, Sim.clock ()) :: !log in
  Sim.spawn sim (fun () ->
      (match Sim.Ivar.read_timeout sim iv ~timeout:100.0 with
      | Some v -> note (Printf.sprintf "got %d" v)
      | None -> note "timeout");
      (* Only this test's own late fill below is still pending. *)
      check_int "answered read leaves no deadline" 1 (Sim.pending_events sim);
      (match Sim.Ivar.read_timeout sim never ~timeout:50.0 with
      | Some _ -> note "unexpected"
      | None -> note "timeout");
      (* Already full: still answered, at the same instant. *)
      match Sim.Ivar.read_timeout sim iv ~timeout:10.0 with
      | Some v -> note (Printf.sprintf "full %d" v)
      | None -> note "timeout");
  Sim.schedule sim ~delay:30.0 (fun () -> Sim.Ivar.fill iv 7);
  (* A fill after the reader gave up is ignored. *)
  Sim.schedule sim ~delay:500.0 (fun () -> Sim.Ivar.fill never 1);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.0))))
    "results and times"
    [ ("got 7", 30.0); ("timeout", 80.0); ("full 7", 80.0) ]
    (List.rev !log);
  check_float "clock ends at the late fill" 500.0 (Sim.now sim)

(* The reader + watcher pair that [read_timeout] replaces, kept here as
   the reference for its event order. *)
let spawned_read_timeout sim iv ~timeout =
  let cell = Sim.Ivar.create () in
  let settle v = if not (Sim.Ivar.is_filled cell) then Sim.Ivar.fill cell v in
  Sim.spawn sim (fun () -> settle (Some (Sim.Ivar.read iv)));
  Sim.spawn sim (fun () ->
      Sim.delay timeout;
      settle None);
  Sim.Ivar.read cell

(* [read_timeout] keeps every effect of the spawned reader in place:
   readers (with a retry on the same cell after a timeout), fills and
   marker events on a coarse integer clock, so that fills and other
   events land exactly on deadlines, log the same sequence. *)
let prop_read_timeout_matches_spawned_reader =
  QCheck.Test.make ~name:"read_timeout logs what the spawned reader logs" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 40) (triple (int_bound 2) (int_bound 3) (int_bound 11)))
    (fun actions ->
      let run read =
        let sim = Sim.create () in
        let ivars = Array.init 3 (fun _ -> Sim.Ivar.create ()) in
        let log = ref [] in
        let note s = log := (s, Sim.now sim) :: !log in
        List.iteri
          (fun i (kind, at, x) ->
            let at = float_of_int at and iv = ivars.(x mod 3) in
            match kind with
            | 0 ->
              let timeout = float_of_int (1 + (x / 3)) in
              Sim.schedule sim ~delay:at (fun () ->
                  Sim.spawn sim (fun () ->
                      let rec go tries =
                        match read sim iv ~timeout with
                        | Some v -> note (Printf.sprintf "r%d got %d" i v)
                        | None ->
                          note (Printf.sprintf "r%d timeout" i);
                          if tries < 1 then go (tries + 1)
                      in
                      go 0))
            | 1 ->
              Sim.schedule sim ~delay:at (fun () ->
                  if not (Sim.Ivar.is_filled iv) then begin
                    note (Printf.sprintf "fill %d" i);
                    Sim.Ivar.fill iv i
                  end)
            | _ ->
              (* A tree of markers: zero-delay children run between a
                 reader's call and its first hop, timed children tie
                 with deadlines, and their own zero-delay children show
                 which of two tied heap events ran first. *)
              let rec mark name depth =
                note name;
                if depth > 0 then begin
                  Sim.schedule sim ~delay:0.0 (fun () -> mark (name ^ "'") (depth - 1));
                  Sim.schedule sim ~delay:(float_of_int (1 + (x / 3))) (fun () ->
                      mark (name ^ "+") (depth - 1))
                end
              in
              Sim.schedule sim ~delay:at (fun () -> mark (Printf.sprintf "m%d" i) 3))
          actions;
        Sim.run sim;
        List.rev !log
      in
      run (fun sim iv ~timeout -> Sim.Ivar.read_timeout sim iv ~timeout)
      = run spawned_read_timeout)

(* Cancelling a timer is the same as letting it fire as a no-op: every
   surviving event runs in the same order either way. Top-level events
   on a coarse clock run child operations — plain events, timers, and
   cancels of any timer armed so far (possibly already fired). *)
let prop_cancel_equals_noop_timer =
  QCheck.Test.make ~name:"cancelled timers = no-op timers for surviving events" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (pair (int_bound 3) (list_of_size (Gen.int_range 0 6) (pair (int_bound 2) (int_bound 3)))))
    (fun tasks ->
      let run ~real =
        let sim = Sim.create () in
        let order = ref [] in
        let id = ref 0 in
        let cancels = ref [||] in
        let fresh () =
          incr id;
          !id
        in
        let child (kind, x) =
          match kind with
          | 0 ->
            let i = fresh () in
            Sim.schedule sim ~delay:(float_of_int x) (fun () -> order := i :: !order)
          | 1 ->
            let i = fresh () in
            let delay = float_of_int (1 + x) in
            let cancel =
              if real then begin
                let timer = Sim.schedule_timer sim ~delay (fun () -> order := i :: !order) in
                fun () -> Sim.cancel sim timer
              end
              else begin
                let cancelled = ref false in
                Sim.schedule sim ~delay (fun () -> if not !cancelled then order := i :: !order);
                fun () -> cancelled := true
              end
            in
            cancels := Array.append !cancels [| cancel |]
          | _ ->
            let n = Array.length !cancels in
            if n > 0 then !cancels.(x mod n) ()
        in
        List.iter
          (fun (d, children) ->
            let i = fresh () in
            Sim.schedule sim ~delay:(float_of_int d) (fun () ->
                order := i :: !order;
                List.iter child children))
          tasks;
        Sim.run sim;
        (List.rev !order, Sim.pending_events sim)
      in
      run ~real:true = run ~real:false)

let test_guard_timeout_cancels_deadline () =
  let sim = Sim.create () in
  let got = ref None and pending = ref (-1) in
  Sim.spawn sim (fun () ->
      got :=
        Some
          (Fault.Guard.with_timeout sim ~timeout_ns:1e6 (fun () ->
               Sim.delay 10.0;
               42));
      pending := Sim.pending_events sim);
  Sim.run sim;
  check_bool "ok" true (!got = Some (Ok 42));
  check_int "no deadline left pending" 0 !pending;
  check_float "clock stops at the completion" 10.0 (Sim.now sim);
  (* A losing operation is abandoned at the deadline and finishes later. *)
  let sim = Sim.create () in
  let timed_out_at = ref nan in
  Sim.spawn sim (fun () ->
      match Fault.Guard.with_timeout sim ~timeout_ns:100.0 (fun () -> Sim.delay 1_000.0) with
      | Error `Timeout -> timed_out_at := Sim.clock ()
      | Ok () -> Alcotest.fail "slow operation won");
  Sim.run sim;
  check_float "timeout at the deadline" 100.0 !timed_out_at;
  check_float "abandoned operation still ran" 1_000.0 (Sim.now sim);
  let sim = Sim.create () in
  let rejected = ref 0 in
  Sim.spawn sim (fun () ->
      List.iter
        (fun timeout_ns ->
          if raises_invalid (fun () -> ignore (Fault.Guard.with_timeout sim ~timeout_ns ignore))
          then incr rejected)
        [ 0.0; -5.0; Float.nan ]);
  Sim.run sim;
  check_int "non-positive and NaN timeouts rejected" 3 !rejected;
  check_bool "policy with a NaN timeout rejected" true
    (raises_invalid (fun () ->
         ignore
           (Fault.Guard.create sim ~name:"nan"
              ~policy:{ Fault.Guard.default_policy with timeout_ns = Float.nan })))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "engine.time",
      [
        Alcotest.test_case "unit conversions" `Quick test_time_units;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "engine.pqueue",
      [
        Alcotest.test_case "pops in order" `Quick test_pqueue_order;
        Alcotest.test_case "FIFO on ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "pop_if_le bound" `Quick test_pqueue_pop_if_le;
        Alcotest.test_case "clear keeps capacity" `Quick test_pqueue_clear_keeps_capacity;
        Alcotest.test_case "no space leak" `Quick test_pqueue_releases_popped_values;
        Alcotest.test_case "stale cancel" `Quick test_pqueue_cancel_stale;
        Alcotest.test_case "cancel releases value" `Quick test_pqueue_cancel_releases_value;
      ] );
    qsuite "engine.pqueue.prop" [ prop_pqueue_sorted; prop_pqueue_model; prop_pqueue_cancel_model ];
    ( "engine.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "uniform ranges" `Quick test_rng_uniform_range;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
      ] );
    qsuite "engine.rng.prop" [ prop_pareto_above_scale ];
    ( "engine.stats",
      [
        Alcotest.test_case "summary basics" `Quick test_summary_basic;
        Alcotest.test_case "summary merge" `Quick test_summary_merge;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "histogram clamps outliers" `Quick test_histogram_clamps;
        Alcotest.test_case "meter rate" `Quick test_meter_rate;
      ] );
    qsuite "engine.stats.prop"
      [ prop_histogram_percentile_monotone; prop_histogram_percentile_within_bounds ];
    ( "engine.sim",
      [
        Alcotest.test_case "delay ordering" `Quick test_sim_delay_ordering;
        Alcotest.test_case "run until horizon" `Quick test_sim_until;
        Alcotest.test_case "nested fork" `Quick test_sim_nested_fork;
        Alcotest.test_case "clock inside process" `Quick test_sim_clock_inside;
        Alcotest.test_case "blocking outside raises" `Quick test_sim_blocking_outside_raises;
        Alcotest.test_case "stop" `Quick test_sim_stop;
        Alcotest.test_case "ivar broadcast" `Quick test_ivar;
        Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
        Alcotest.test_case "channel FIFO" `Quick test_channel_fifo;
        Alcotest.test_case "channel waiter order" `Quick test_channel_waiter_order;
        Alcotest.test_case "resource mutual exclusion" `Quick test_resource_mutual_exclusion;
        Alcotest.test_case "resource capacity" `Quick test_resource_capacity_respected;
        Alcotest.test_case "resource no barging" `Quick test_resource_no_barging;
        Alcotest.test_case "deterministic replay" `Quick test_determinism_same_seed;
        Alcotest.test_case "negative delay raises" `Quick test_schedule_negative_raises;
        Alcotest.test_case "event counters" `Quick test_event_counters;
        Alcotest.test_case "two-lane tie break" `Quick test_two_lane_tie_break;
        Alcotest.test_case "per-lane stats" `Quick test_sim_stats_lanes;
      ] );
    qsuite "engine.sim.prop" [ prop_two_lane_order ];
    ( "engine.timer",
      [
        Alcotest.test_case "cancel" `Quick test_timer_cancel;
        Alcotest.test_case "rejects bad delay" `Quick test_timer_rejects_bad_delay;
        Alcotest.test_case "bad delay raises in fiber" `Quick test_bad_delay_raises_in_fiber;
        Alcotest.test_case "read_timeout" `Quick test_read_timeout;
        Alcotest.test_case "guard deadline cancelled" `Quick test_guard_timeout_cancels_deadline;
      ] );
    qsuite "engine.timer.prop"
      [ prop_read_timeout_matches_spawned_reader; prop_cancel_equals_noop_timer ];
    ( "engine.token_bucket",
      [
        Alcotest.test_case "steady rate" `Quick test_token_bucket_steady_rate;
        Alcotest.test_case "burst then throttle" `Quick test_token_bucket_burst;
        Alcotest.test_case "unlimited" `Quick test_token_bucket_unlimited;
      ] );
  ]

(* Property: a token bucket never over-admits — for any schedule of
   take_n requests, total tokens granted by time T never exceeds
   burst + rate * T. *)
let prop_token_bucket_never_overadmits =
  QCheck.Test.make ~name:"token bucket conserves tokens" ~count:100
    QCheck.(pair (int_range 1 500) (list_of_size (Gen.int_range 1 100) (int_range 1 50)))
    (fun (rate_hz, takes) ->
      let sim = Sim.create () in
      let rate = float_of_int rate_hz in
      let burst = 10.0 in
      let tb = Token_bucket.create ~rate ~burst in
      let granted_by = ref [] in
      Sim.spawn sim (fun () ->
          List.iter
            (fun n ->
              ignore (Token_bucket.take_n tb (float_of_int n));
              granted_by := (Sim.clock (), n) :: !granted_by)
            takes);
      Sim.run sim;
      List.for_all
        (fun (t, _) ->
          let total_by_t =
            List.fold_left
              (fun acc (t', n) -> if t' <= t then acc + n else acc)
              0 !granted_by
          in
          float_of_int total_by_t <= burst +. (rate *. t /. 1e9) +. 1e-6)
        !granted_by)

let () = ignore prop_token_bucket_never_overadmits

let extra_prop_suites =
  [ ("engine.token_bucket.prop", List.map QCheck_alcotest.to_alcotest [ prop_token_bucket_never_overadmits ]) ]

let suites = suites @ extra_prop_suites

(* Trace *)
let test_trace_basics () =
  let tr = Trace.create () in
  Trace.instant tr ~track:"net" "kick" ~now:10.0;
  Trace.begin_span tr ~track:"net" "dma" ~now:20.0;
  Trace.end_span tr ~track:"net" "dma" ~now:70.0;
  Trace.counter tr ~track:"net" "inflight" ~now:80.0 3.0;
  check_int "four events" 4 (List.length (Trace.events tr));
  check_int "track count" 4 (Trace.count tr ~track:"net" ());
  check_int "named count" 1 (Trace.count tr ~track:"net" ~name:"kick" ());
  Alcotest.(check (list (float 1e-9))) "span duration" [ 50.0 ] (Trace.span_durations tr ~track:"net" "dma");
  check_bool "renders" true (String.length (Trace.render tr) > 0);
  Trace.clear tr;
  check_int "cleared" 0 (List.length (Trace.events tr))

let test_trace_ring_bounds () =
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.instant tr ~track:"t" (string_of_int i) ~now:(float_of_int i)
  done;
  check_int "bounded" 8 (List.length (Trace.events tr));
  check_int "dropped counted" 12 (Trace.dropped tr);
  (* Oldest retained is event 13. *)
  (match Trace.events tr with
  | first :: _ -> Alcotest.(check string) "oldest" "13" first.Trace.name
  | [] -> Alcotest.fail "empty");
  ()

let test_trace_span_in_simulation () =
  let sim = Sim.create () in
  let tr = Trace.create () in
  Sim.spawn sim (fun () ->
      Trace.span tr ~track:"guest" "request" ~clock:Sim.clock (fun () -> Sim.delay 123.0));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "span measured sim time" [ 123.0 ]
    (Trace.span_durations tr ~track:"guest" "request")

let trace_suites =
  [
    ( "engine.trace",
      [
        Alcotest.test_case "basics" `Quick test_trace_basics;
        Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
        Alcotest.test_case "span in simulation" `Quick test_trace_span_in_simulation;
      ] );
  ]

let suites = suites @ trace_suites

(* Remaining edge cases. *)
let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:1.0 ~seq:1 "x";
  Pqueue.add q ~time:2.0 ~seq:2 "y";
  check_int "two" 2 (Pqueue.length q);
  Pqueue.clear q;
  check_bool "empty after clear" true (Pqueue.is_empty q);
  check_bool "pop empty" true (Pqueue.pop q = None);
  check_bool "peek empty" true (Pqueue.peek q = None)

let test_channel_try_recv () =
  let sim = Sim.create () in
  let ch = Sim.Channel.create () in
  check_bool "empty" true (Sim.Channel.try_recv ch = None);
  Sim.spawn sim (fun () ->
      Sim.Channel.send ch 5;
      Sim.Channel.send ch 6;
      check_int "length" 2 (Sim.Channel.length ch);
      Alcotest.(check (option int)) "first" (Some 5) (Sim.Channel.try_recv ch);
      Alcotest.(check (option int)) "second" (Some 6) (Sim.Channel.try_recv ch);
      check_bool "drained" true (Sim.Channel.try_recv ch = None));
  Sim.run sim

exception Boom

let test_with_resource_exception_safe () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let second_ran = ref false in
  Sim.spawn sim (fun () ->
      (try Sim.Resource.with_resource r (fun () -> raise Boom) with Boom -> ());
      check_int "released after raise" 0 (Sim.Resource.in_use r));
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      Sim.Resource.with_resource r (fun () -> second_ran := true));
  Sim.run sim;
  check_bool "resource reusable" true !second_ran

(* [hold] serves FIFO like [with_resource], and a delay that raises in
   the fiber (a negative duration) still gives the unit back. *)
let test_hold () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let done_at = ref [] in
  for i = 1 to 2 do
    Sim.spawn sim (fun () ->
        Sim.Resource.hold r 10.0;
        done_at := (i, Sim.clock ()) :: !done_at)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay 30.0;
      (try Sim.Resource.hold r (-1.0) with Invalid_argument _ -> ());
      check_int "released after raise" 0 (Sim.Resource.in_use r));
  Sim.run sim;
  Alcotest.(check (list (pair int (float 0.0)))) "served in turn" [ (2, 20.0); (1, 10.0) ] !done_at

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  for i = 1 to 100 do
    Stats.Histogram.add a (float_of_int i)
  done;
  for i = 101 to 200 do
    Stats.Histogram.add b (float_of_int i)
  done;
  let m = Stats.Histogram.merge a b in
  check_int "merged count" 200 (Stats.Histogram.count m);
  check_float "merged min" 1.0 (Stats.Histogram.min m);
  check_float "merged max" 200.0 (Stats.Histogram.max m);
  let p50 = Stats.Histogram.percentile m 50.0 in
  check_bool "p50 near 100" true (Float.abs (p50 -. 100.0) /. 100.0 < 0.05)

let test_schedule_callback_outside_process () =
  let sim = Sim.create () in
  let ran_at = ref nan in
  Sim.schedule sim ~delay:42.0 (fun () -> ran_at := Sim.now sim);
  Sim.run sim;
  check_float "callback at 42" 42.0 !ran_at

let edge_suites =
  [
    ( "engine.edges",
      [
        Alcotest.test_case "pqueue clear" `Quick test_pqueue_clear;
        Alcotest.test_case "channel try_recv" `Quick test_channel_try_recv;
        Alcotest.test_case "with_resource exception-safe" `Quick test_with_resource_exception_safe;
        Alcotest.test_case "hold" `Quick test_hold;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "bare callback scheduling" `Quick test_schedule_callback_outside_process;
      ] );
  ]

let suites = suites @ edge_suites

(* ------------------------------------------------------------------ *)
(* Bounded queues, resources and the non-blocking token-bucket path
   (the overload-control primitives) *)

let test_bounded_fifo_order () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:2 ~policy:Sim.Bounded.Block () in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for i = 1 to 6 do
        ignore (Sim.Bounded.send q i)
      done);
  Sim.spawn sim (fun () ->
      for _ = 1 to 6 do
        Sim.delay 10.0;
        got := Sim.Bounded.recv q :: !got
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO across parks" [ 1; 2; 3; 4; 5; 6 ] (List.rev !got);
  check_int "all delivered" 6 (Sim.Bounded.delivered q);
  check_int "no senders left" 0 (Sim.Bounded.waiting_senders q)

(* The capacity boundary is where wakeups get lost in buggy queues: a
   sender parks the instant the queue fills, and every recv must unpark
   exactly one. N senders through a capacity-1 queue all complete. *)
let test_bounded_no_lost_wakeups () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Block () in
  let n = 50 in
  let sent_ok = ref 0 in
  for i = 1 to n do
    Sim.spawn sim (fun () ->
        match Sim.Bounded.send q i with
        | `Sent -> incr sent_ok
        | `Dropped | `Rejected -> ())
  done;
  let got = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to n do
        Sim.delay 5.0;
        ignore (Sim.Bounded.recv q);
        incr got
      done);
  Sim.run sim;
  check_int "every send completed" n !sent_ok;
  check_int "every item received" n !got;
  check_int "no parked senders" 0 (Sim.Bounded.waiting_senders q);
  check_int "queue drained" 0 (Sim.Bounded.length q)

let test_bounded_drop_tail () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:2 ~policy:Sim.Bounded.Drop_tail () in
  Sim.spawn sim (fun () ->
      Alcotest.(check string) "first" "sent" (match Sim.Bounded.send q 1 with `Sent -> "sent" | _ -> "other");
      ignore (Sim.Bounded.send q 2);
      Alcotest.(check string) "overflow" "dropped"
        (match Sim.Bounded.send q 3 with `Dropped -> "dropped" | _ -> "other");
      Alcotest.(check (option int)) "oldest survives" (Some 1) (Sim.Bounded.try_recv q));
  Sim.run sim;
  check_int "one drop" 1 (Sim.Bounded.dropped q)

let test_bounded_drop_head () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:2 ~policy:Sim.Bounded.Drop_head () in
  Sim.spawn sim (fun () ->
      ignore (Sim.Bounded.send q 1);
      ignore (Sim.Bounded.send q 2);
      Alcotest.(check string) "newest admitted" "sent"
        (match Sim.Bounded.send q 3 with `Sent -> "sent" | _ -> "other");
      Alcotest.(check (option int)) "head evicted" (Some 2) (Sim.Bounded.try_recv q);
      Alcotest.(check (option int)) "newest present" (Some 3) (Sim.Bounded.try_recv q));
  Sim.run sim;
  check_int "victim counted" 1 (Sim.Bounded.dropped q)

let test_bounded_reject () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Reject () in
  Sim.spawn sim (fun () ->
      ignore (Sim.Bounded.send q 1);
      Alcotest.(check string) "refused" "rejected"
        (match Sim.Bounded.send q 2 with `Rejected -> "rejected" | _ -> "other");
      Alcotest.(check (option int)) "queue untouched" (Some 1) (Sim.Bounded.try_recv q));
  Sim.run sim;
  check_int "one rejection" 1 (Sim.Bounded.rejected q)

(* Conservation: whatever interleaving of sends and receives runs, no
   item is created or lost —
   sent = delivered + dropped + rejected + length + waiting_senders. *)
let prop_bounded_conservation =
  let policy_of = function
    | 0 -> Sim.Bounded.Block
    | 1 -> Sim.Bounded.Drop_tail
    | 2 -> Sim.Bounded.Drop_head
    | _ -> Sim.Bounded.Reject
  in
  QCheck.Test.make ~name:"bounded queue conserves items under every policy" ~count:300
    QCheck.(triple (int_bound 3) (int_range 1 4) (list bool))
    (fun (p, capacity, ops) ->
      let policy = policy_of p in
      let sim = Sim.create () in
      let q = Sim.Bounded.create ~capacity ~policy () in
      List.iteri
        (fun i op ->
          Sim.schedule sim ~delay:(float_of_int i) (fun () ->
              Sim.spawn sim (fun () ->
                  if op then ignore (Sim.Bounded.send q i)
                  else ignore (Sim.Bounded.recv q))))
        ops;
      Sim.run sim;
      Sim.Bounded.length q <= Sim.Bounded.capacity q
      && Sim.Bounded.sent q
         = Sim.Bounded.delivered q + Sim.Bounded.dropped q + Sim.Bounded.rejected q
           + Sim.Bounded.length q + Sim.Bounded.waiting_senders q)

let test_resource_fifo_no_barging () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () ->
        Sim.spawn sim (fun () ->
            Sim.Resource.with_resource r (fun () ->
                order := i :: !order;
                Sim.delay 100.0)))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "granted in arrival order" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  check_int "all released" 0 (Sim.Resource.in_use r);
  check_int "none waiting" 0 (Sim.Resource.waiting r)

let test_resource_waiting_count () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:2 in
  for _ = 1 to 6 do
    Sim.spawn sim (fun () -> Sim.Resource.with_resource r (fun () -> Sim.delay 50.0))
  done;
  (* Sample between the t=0 acquisitions and the t=50 releases: two
     holders, four queued. *)
  let mid_waiting = ref (-1) and mid_in_use = ref (-1) in
  Sim.schedule sim ~delay:10.0 (fun () ->
      mid_waiting := Sim.Resource.waiting r;
      mid_in_use := Sim.Resource.in_use r);
  Sim.run sim;
  check_int "four queued mid-run" 4 !mid_waiting;
  check_int "two holders mid-run" 2 !mid_in_use;
  check_int "drained" 0 (Sim.Resource.waiting r)

(* try_take_n must never advance time and never leave the bucket
   negative, whatever mix of blocking and non-blocking takes ran
   before it. *)
let prop_try_take_n_never_blocks =
  QCheck.Test.make ~name:"try_take_n never blocks and never goes negative" ~count:300
    QCheck.(pair (float_range 1.0 1000.0) (list (pair bool (float_range 0.0 50.0))))
    (fun (rate, takes) ->
      let sim = Sim.create () in
      let tb = Token_bucket.create ~rate ~burst:(rate /. 10.0) in
      let ok = ref true in
      Sim.spawn sim (fun () ->
          List.iter
            (fun (blocking, n) ->
              if blocking then ignore (Token_bucket.take_n tb n)
              else begin
                let before = Sim.clock () in
                ignore (Token_bucket.try_take_n tb ~now:before n);
                ok := !ok && Sim.clock () = before;
                ok := !ok && Token_bucket.available tb ~now:(Sim.clock ()) >= 0.0
              end)
            takes);
      Sim.run sim;
      !ok)

(* Debt edge: after a blocking take dug the bucket into debt, the
   non-blocking path must refuse everything until the refill catches up,
   then grant again. *)
let test_try_take_n_debt_refill () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:1000.0 ~burst:10.0 in
  Sim.spawn sim (fun () ->
      (* Burn the burst plus 10 of debt; take_n sleeps the deficit off. *)
      ignore (Token_bucket.take_n tb 20.0);
      check_bool "broke even, not positive" false
        (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 1.0);
      (* One token refills every 1 ms at rate 1000/s. *)
      Sim.delay (Simtime.ms 5.0);
      check_bool "refilled tokens grant again" true
        (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 5.0);
      check_bool "but not more than refilled" false
        (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 1.0));
  Sim.run sim

let test_try_take_n_same_timestamp () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:1000.0 ~burst:8.0 in
  Sim.spawn sim (fun () ->
      let now = Sim.clock () in
      (* Repeated probes at one timestamp see a monotonically shrinking
         bucket — no refill can sneak in between them. *)
      check_bool "first 4" true (Token_bucket.try_take_n tb ~now 4.0);
      check_bool "second 4" true (Token_bucket.try_take_n tb ~now 4.0);
      check_bool "empty now" false (Token_bucket.try_take_n tb ~now 1.0);
      check_float "available is zero" 0.0 (Token_bucket.available tb ~now));
  Sim.run sim

let test_try_take_n_unlimited () =
  let sim = Sim.create () in
  let tb = Token_bucket.unlimited () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        check_bool "always grants" true (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 1e12)
      done);
  Sim.run sim;
  check_float "no time passed" 0.0 (Sim.now sim)

let overload_suites =
  [
    ( "engine.bounded",
      [
        Alcotest.test_case "FIFO across parked senders" `Quick test_bounded_fifo_order;
        Alcotest.test_case "no lost wakeups at capacity" `Quick test_bounded_no_lost_wakeups;
        Alcotest.test_case "drop-tail" `Quick test_bounded_drop_tail;
        Alcotest.test_case "drop-head" `Quick test_bounded_drop_head;
        Alcotest.test_case "reject" `Quick test_bounded_reject;
      ] );
    qsuite "engine.bounded.prop" [ prop_bounded_conservation ];
    ( "engine.resource",
      [
        Alcotest.test_case "FIFO, no barging" `Quick test_resource_fifo_no_barging;
        Alcotest.test_case "waiting count" `Quick test_resource_waiting_count;
      ] );
    ( "engine.token_bucket.shed",
      [
        Alcotest.test_case "debt then refill" `Quick test_try_take_n_debt_refill;
        Alcotest.test_case "same-timestamp probes" `Quick test_try_take_n_same_timestamp;
        Alcotest.test_case "unlimited" `Quick test_try_take_n_unlimited;
      ] );
    qsuite "engine.token_bucket.shed.prop" [ prop_try_take_n_never_blocks ];
  ]

let suites = suites @ overload_suites

(* ------------------------------------------------------------------ *)
(* The per-simulator effect handler *)

(* A fiber of sim A runs sim B to completion in the middle of its own
   work: B's fibers perform against B's handler (its clock, its delay
   slot), and A's fiber resumes with A's clock untouched. *)
let test_handler_nested_sims () =
  let a = Sim.create () in
  let log = ref [] in
  let note who t = log := (who, t) :: !log in
  Sim.spawn a (fun () ->
      Sim.delay 5.0;
      let b = Sim.create () in
      Sim.spawn b (fun () ->
          Sim.delay 100.0;
          note "b1" (Sim.clock ());
          Sim.fork (fun () ->
              Sim.delay 1.0;
              note "b-fork" (Sim.clock ()));
          (try Sim.delay nan with Invalid_argument _ -> note "b-nan" (Sim.clock ()));
          let v = Sim.suspend (fun resume -> Sim.schedule b ~delay:50.0 (fun () -> resume 7)) in
          note "b-suspend" (float_of_int v +. Sim.clock ()));
      Sim.spawn b (fun () ->
          Sim.delay 200.0;
          note "b2" (Sim.clock ()));
      Sim.run b;
      check_float "inner sim ran to completion" 200.0 (Sim.now b);
      note "a-after-b" (Sim.clock ());
      Sim.delay 3.0;
      note "a-end" (Sim.clock ()));
  Sim.spawn a (fun () ->
      Sim.delay 6.0;
      note "a2" (Sim.clock ()));
  Sim.run a;
  Alcotest.(check (list (pair string (float 1e-9))))
    "each sim keeps its own clock"
    [
      ("b1", 100.0);
      ("b-nan", 100.0);
      ("b-fork", 101.0);
      ("b-suspend", 157.0);
      ("b2", 200.0);
      ("a-after-b", 5.0);
      ("a2", 6.0);
      ("a-end", 8.0);
    ]
    (List.rev !log)

(* Simulators on separate domains each keep their own handler: with
   two [Sim.t]s run on two domains at once, each fiber still wakes
   exactly at the multiples of its own delay. *)
let test_handler_per_domain () =
  let sims = 2 and fibers = 8 and steps = 2_000 in
  let run s =
    let sim = Sim.create () in
    let bad = ref 0 and done_ = ref 0 in
    for f = 1 to fibers do
      let d = float_of_int ((s * fibers) + f) in
      Sim.spawn sim (fun () ->
          for k = 1 to steps do
            Sim.delay d;
            if Sim.clock () <> float_of_int k *. d then incr bad
          done;
          incr done_)
    done;
    Sim.run sim;
    (!done_, !bad)
  in
  let results = Bmhive.Parallel.map ~jobs:2 run (List.init sims Fun.id) in
  Alcotest.(check (list int)) "every fiber finished" (List.init sims (fun _ -> fibers))
    (List.map fst results);
  Alcotest.(check (list int)) "no wake-up off its own schedule" (List.init sims (fun _ -> 0))
    (List.map snd results)

let test_handler_effects_outside_raise () =
  Alcotest.check_raises "delay" Sim.Not_in_simulation (fun () -> Sim.delay 1.0);
  Alcotest.check_raises "clock" Sim.Not_in_simulation (fun () -> ignore (Sim.clock ()));
  Alcotest.check_raises "suspend" Sim.Not_in_simulation (fun () ->
      ignore (Sim.suspend (fun (_ : int -> unit) -> ())));
  Alcotest.check_raises "fork" Sim.Not_in_simulation (fun () -> Sim.fork ignore);
  (* Still true after a simulator has run: no handler lingers. *)
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 1.0);
  Sim.run sim;
  Alcotest.check_raises "delay after a run" Sim.Not_in_simulation (fun () -> Sim.delay 1.0)

let test_handler_resume_twice () =
  let sim = Sim.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      Sim.suspend (fun resume ->
          resume ();
          try resume () with Invalid_argument _ -> raised := true));
  Sim.run sim;
  check_bool "second resume raises" true !raised

(* Guards raise [Invalid_argument] before anything changes, so they hold
   in builds that compile assertions out. *)
let test_resource_guards () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Sim.Resource.create: capacity must be positive") (fun () ->
      ignore (Sim.Resource.create ~capacity:0));
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:2 in
  Sim.spawn sim (fun () ->
      Alcotest.check_raises "over-capacity acquire"
        (Invalid_argument "Sim.Resource.acquire: n must be in [1, capacity]") (fun () ->
          Sim.Resource.acquire ~n:3 r);
      Alcotest.check_raises "zero acquire"
        (Invalid_argument "Sim.Resource.acquire: n must be in [1, capacity]") (fun () ->
          Sim.Resource.acquire ~n:0 r);
      check_int "nothing queued" 0 (Sim.Resource.waiting r);
      Sim.Resource.acquire r;
      Alcotest.check_raises "over-release"
        (Invalid_argument "Sim.Resource.release: n must be in [1, in_use]") (fun () ->
          Sim.Resource.release ~n:2 r);
      check_int "over-release left use untouched" 1 (Sim.Resource.in_use r);
      Sim.Resource.release r;
      Alcotest.check_raises "release when idle"
        (Invalid_argument "Sim.Resource.release: n must be in [1, in_use]") (fun () ->
          Sim.Resource.release r);
      check_int "never negative" 0 (Sim.Resource.in_use r));
  Sim.run sim

(* [Sim.clock] reads the simulator whose [run] is executing on this
   domain: the inner one for the length of a nested run, the outer one
   again once it returns or raises. *)
exception Inner_failed

let test_register_nested_run_restores_clock () =
  let a = Sim.create () in
  let log = ref [] in
  let note who = log := (who, Sim.clock ()) :: !log in
  Sim.spawn a (fun () ->
      Sim.delay 10.0;
      let b = Sim.create () in
      Sim.spawn b (fun () ->
          Sim.delay 500.0;
          note "inner");
      Sim.run b;
      note "after return";
      Sim.delay 1.0;
      let c = Sim.create () in
      Sim.spawn c (fun () ->
          Sim.delay 700.0;
          note "inner before raise";
          raise Inner_failed);
      (try Sim.run c with Inner_failed -> ());
      note "after raise";
      Sim.delay 1.0;
      note "end");
  Sim.run a;
  Alcotest.(check (list (pair string (float 1e-9))))
    "inner clock inside, outer clock after"
    [
      ("inner", 500.0);
      ("after return", 10.0);
      ("inner before raise", 700.0);
      ("after raise", 11.0);
      ("end", 12.0);
    ]
    (List.rev !log);
  (* Once the outermost run has returned, nothing is running here. *)
  Alcotest.check_raises "clock after the runs" Sim.Not_in_simulation (fun () ->
      ignore (Sim.clock ()))

(* A bare callback is not a fiber, but it runs inside [run], so it
   sees the simulator's clock. *)
let test_register_clock_in_callback () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.schedule sim ~delay:42.0 (fun () ->
      seen := Sim.clock () :: !seen;
      Sim.schedule sim ~delay:0.0 (fun () -> seen := Sim.clock () :: !seen));
  ignore (Sim.schedule_timer sim ~delay:50.0 (fun () -> seen := Sim.clock () :: !seen));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "callback clocks" [ 42.0; 42.0; 50.0 ] (List.rev !seen)

(* A resumed fiber gets back exactly the value handed to its resume
   function, immediate or boxed, whether the resume runs inside the
   register function or later from a callback. *)
type boxed = { name : string; weight : float }

let test_register_resume_values () =
  let sim = Sim.create () in
  let now_or_later later v =
    Sim.suspend (fun resume ->
        if later then Sim.schedule sim ~delay:3.0 (fun () -> resume v) else resume v)
  in
  let ok = ref 0 in
  let expect name cmp a b =
    if cmp a b then incr ok else Alcotest.failf "%s: resumed with a different value" name
  in
  Sim.spawn sim (fun () ->
      List.iter
        (fun later ->
          expect "0" ( = ) 0 (now_or_later later 0);
          expect "max_int" ( = ) max_int (now_or_later later max_int);
          expect "false" ( = ) false (now_or_later later false);
          expect "unit" ( = ) () (now_or_later later ());
          expect "None" ( = ) None (now_or_later later (None : int option));
          expect "float" Float.equal 2.5 (now_or_later later 2.5);
          expect "nan" (fun a b -> Float.is_nan a && Float.is_nan b) nan (now_or_later later nan);
          expect "string" String.equal "bm-hive" (now_or_later later "bm-hive");
          expect "record" ( = ) { name = "vf"; weight = 0.25 }
            (now_or_later later { name = "vf"; weight = 0.25 });
          expect "Some" ( = ) (Some [ 1; 2 ]) (now_or_later later (Some [ 1; 2 ]));
          let f = now_or_later later (fun x -> x + 1) in
          expect "closure" ( = ) 8 (f 7))
        [ false; true ]);
  Sim.run sim;
  check_int "every value came back" 22 !ok;
  check_float "the later resumes took their time" 33.0 (Sim.now sim);
  (* The same through Ivar, Channel and Bounded. *)
  let sim = Sim.create () in
  let iv_f = Sim.Ivar.create () and iv_b = Sim.Ivar.create () and iv_o = Sim.Ivar.create () in
  let ch = Sim.Channel.create () in
  let got = ref [] in
  let log s = got := s :: !got in
  Sim.spawn sim (fun () -> log (Printf.sprintf "f=%g" (Sim.Ivar.read iv_f)));
  Sim.spawn sim (fun () -> log (Printf.sprintf "b=%b" (Sim.Ivar.read iv_b)));
  Sim.spawn sim (fun () ->
      log (match Sim.Ivar.read_timeout sim iv_o ~timeout:100.0 with
        | Some None -> "o=Some None"
        | Some (Some n) -> Printf.sprintf "o=Some (Some %d)" n
        | None -> "o=timeout"));
  Sim.spawn sim (fun () -> log (Printf.sprintf "ch=%d" (Sim.Channel.recv ch)));
  Sim.schedule sim ~delay:5.0 (fun () ->
      Sim.Ivar.fill iv_f 0.125;
      Sim.Ivar.fill iv_b false;
      Sim.Ivar.fill iv_o None;
      Sim.Channel.send ch 0);
  Sim.run sim;
  Alcotest.(check (list string)) "values through the primitives"
    [ "f=0.125"; "b=false"; "ch=0"; "o=Some None" ]
    (List.rev !got)

(* A resume function stays single-use when it is called again later,
   after its fiber has already run on. *)
let test_register_resume_twice_later () =
  let sim = Sim.create () in
  let saved = ref (fun (_ : float) -> ()) in
  let got = ref nan and raised = ref false in
  Sim.spawn sim (fun () ->
      got :=
        Sim.suspend (fun resume ->
            saved := resume;
            Sim.schedule sim ~delay:1.0 (fun () -> resume 1.5)));
  Sim.schedule sim ~delay:2.0 (fun () ->
      try !saved 9.0 with Invalid_argument _ -> raised := true);
  Sim.run sim;
  check_float "first resume delivered" 1.5 !got;
  check_bool "second resume raises" true !raised

(* A run that raised leaves no simulator installed: all four effects
   raise [Not_in_simulation] again, and a fresh simulator still runs. *)
let test_register_effects_outside_after_raise () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      failwith "fiber failed");
  Alcotest.check_raises "the run raises" (Failure "fiber failed") (fun () -> Sim.run sim);
  (* and from inside a nested run that raised *)
  let outer = Sim.create () in
  Sim.spawn outer (fun () ->
      let inner = Sim.create () in
      Sim.spawn inner (fun () -> raise Inner_failed);
      Sim.run inner);
  Alcotest.check_raises "the nested run raises" Inner_failed (fun () -> Sim.run outer);
  Alcotest.check_raises "delay" Sim.Not_in_simulation (fun () -> Sim.delay 1.0);
  Alcotest.check_raises "clock" Sim.Not_in_simulation (fun () -> ignore (Sim.clock ()));
  Alcotest.check_raises "suspend" Sim.Not_in_simulation (fun () ->
      ignore (Sim.suspend (fun (_ : int -> unit) -> ())));
  Alcotest.check_raises "fork" Sim.Not_in_simulation (fun () -> Sim.fork ignore);
  let fresh = Sim.create () in
  let seen = ref nan in
  Sim.spawn fresh (fun () ->
      Sim.delay 4.0;
      seen := Sim.clock ());
  Sim.run fresh;
  check_float "a fresh simulator runs" 4.0 !seen

let handler_suites =
  [
    ( "engine.handler",
      [
        Alcotest.test_case "nested simulators" `Quick test_handler_nested_sims;
        Alcotest.test_case "one handler per simulator domain" `Quick test_handler_per_domain;
        Alcotest.test_case "effects outside a fiber raise" `Quick
          test_handler_effects_outside_raise;
        Alcotest.test_case "resume twice raises" `Quick test_handler_resume_twice;
        Alcotest.test_case "resource guards" `Quick test_resource_guards;
      ] );
    ( "engine.register",
      [
        Alcotest.test_case "nested run restores the clock" `Quick
          test_register_nested_run_restores_clock;
        Alcotest.test_case "clock in a callback" `Quick test_register_clock_in_callback;
        Alcotest.test_case "resume values" `Quick test_register_resume_values;
        Alcotest.test_case "resume twice, later" `Quick test_register_resume_twice_later;
        Alcotest.test_case "effects outside after a raise" `Quick
          test_register_effects_outside_after_raise;
      ] );
  ]

let suites = suites @ handler_suites

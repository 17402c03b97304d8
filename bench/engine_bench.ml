(* Engine performance benchmark: measures the host-side cost of the
   simulator itself — not simulated latencies — and writes the numbers
   to a JSON file (BENCH_engine.json at the repo root is the committed
   baseline).

   Usage:
     engine_bench.exe [--quick] [--seed N] [--out FILE]

   Six sections:
     hot_lane   events/sec of zero-delay self-rescheduling callbacks
                (FIFO hot lane) vs the same chains with a 1 ns delay
                (binary-heap lane), and the heap lane again at
                512 chains, nginx_c400's agenda depth
     timer      host ns per Sim.schedule_timer + Sim.cancel pair with a
                window of outstanding timers, each op cancelling the
                oldest (the RPC deadline pattern)
     alloc      GC-allocated words per event on both lanes, per timer
                op, per [Sim.delay], [Sim.clock], [Sim.suspend] + resume
                and [Sim.spawn] inside a fiber and
                per Vring add -> pop_avail -> push_used -> pop_used
                cycle (the allocation gates CI enforces)
     pmd_batch  wall-clock of a UDP PPS run between two bm-guests with
                the PMD drained one descriptor per fiber (batch=1, the
                bit-identical default) vs burst-of-32
     sweep      a 4-cell quick experiment sweep with --jobs 1 vs
                --jobs 4, including a structural-equality check of the
                outcomes; the wall-clock comparison is skipped (and
                marked so in the JSON) on single-core hosts, where it
                would measure domain overhead rather than speedup
     cells      per-cell wall seconds at jobs=1

   Simulated results are unchanged by any of this except pmd_batch with
   batch>1, which legitimately serialises each burst (documented in
   DESIGN.md "Engine performance"). *)

open Bm_engine

let quick = ref false
let seed = ref 2020
let out_file = ref "BENCH_engine.json"

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> seed := s
      | None ->
        prerr_endline "--seed expects an integer";
        exit 2);
      parse rest
    | "--out" :: f :: rest ->
      out_file := f;
      parse rest
    | a :: _ ->
      Printf.eprintf "unknown argument %S\n" a;
      prerr_endline "usage: engine_bench.exe [--quick] [--seed N] [--out FILE]";
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* --- hot lane vs heap ------------------------------------------------ *)

(* [chains] outstanding callbacks, each rescheduling itself with the
   given delay until the shared budget drains. delay=0 keeps every event
   in the FIFO hot lane; delay=1 ns forces every event through the
   binary heap at [chains] occupancy. *)
(* Cumulative words allocated by this domain so far: the minor counter
   plus direct major allocations, net of promotions (which would double
   count). Exact — no GC needs to run for the counters to be current. *)
let allocated_words () =
  let st = Gc.quick_stat () in
  st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

let lane_events_per_sec ~delay ~chains ~events =
  let sim = Sim.create () in
  let remaining = ref events in
  let rec cb () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.schedule sim ~delay cb
    end
  in
  for _ = 1 to chains do
    Sim.schedule sim ~delay cb
  done;
  (* The allocation probe brackets [Sim.run] alone: setup above has
     already sized the agenda arrays, so steady-state scheduling inside
     the run should allocate nothing. *)
  let a0 = allocated_words () in
  let (), dt = time (fun () -> Sim.run sim) in
  let words = allocated_words () -. a0 in
  ( float_of_int (Sim.events_executed sim) /. dt,
    Sim.events_executed sim,
    dt,
    words /. float_of_int (Sim.events_executed sim) )

(* --- cancellable timers ------------------------------------------------ *)

(* [window] timers stay outstanding; each op cancels the oldest and arms
   a new one, as RPC deadlines are armed per request and cancelled when
   the reply lands. Pseudo-random delays spread the keys, so cancels hit
   entries throughout the heap rather than only near its root. *)
let timer_ops ~window ~ops =
  let sim = Sim.create () in
  let cb () = () in
  let delay k = float_of_int (1 + (k * 7919 mod 100_000)) in
  let ring = Array.init window (fun k -> Sim.schedule_timer sim ~delay:(delay k) cb) in
  let a0 = allocated_words () in
  let (), dt =
    time (fun () ->
        for k = 0 to ops - 1 do
          let i = k mod window in
          Sim.cancel sim ring.(i);
          ring.(i) <- Sim.schedule_timer sim ~delay:(delay (window + k)) cb
        done)
  in
  let words = allocated_words () -. a0 in
  assert (Sim.pending_events sim = window);
  Sim.stop sim;
  (dt, dt *. 1e9 /. float_of_int ops, words /. float_of_int ops)

(* --- fiber and ring operations ------------------------------------------ *)

(* Words per [Sim.delay] from inside one fiber: the effect, its
   continuation and its resume closure, plus the heap event it becomes. *)
let fiber_delay_words ~ops =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to ops do
        Sim.delay 1.0
      done);
  let a0 = allocated_words () in
  Sim.run sim;
  (allocated_words () -. a0) /. float_of_int ops

(* Words per [Sim.clock] read from inside a fiber: a register lookup,
   with no effect performed. *)
let clock_words ~ops =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to ops do
        ignore (Sys.opaque_identity (Sim.clock ()))
      done);
  let a0 = allocated_words () in
  Sim.run sim;
  (allocated_words () -. a0) /. float_of_int ops

(* Words per [Sim.suspend] resumed at once with an immediate value: the
   continuation, its resumption record and the resume function, plus
   the lane event that resumes it. *)
let suspend_words ~ops =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to ops do
        ignore (Sys.opaque_identity (Sim.suspend (fun resume -> resume 0)))
      done);
  let a0 = allocated_words () in
  Sim.run sim;
  (allocated_words () -. a0) /. float_of_int ops

(* Words per [Sim.spawn] from inside a fiber, the spawned (empty)
   fiber's start and finish included. *)
let spawn_words ~ops =
  let sim = Sim.create () in
  let body () = () in
  Sim.spawn sim (fun () ->
      for _ = 1 to ops do
        Sim.spawn sim body
      done);
  let a0 = allocated_words () in
  Sim.run sim;
  (allocated_words () -. a0) /. float_of_int ops

(* Words per request round trip through a split ring, driver and
   device sides both: a two-segment tx chain as Virtio_net posts it. *)
let vring_cycle_words ~ops =
  let r = Bm_virtio.Vring.create ~size:256 in
  let payload = ref 0 in
  let a0 = allocated_words () in
  for _ = 1 to ops do
    let head = Bm_virtio.Vring.add r ~out:[ 12; 64 ] ~in_:[] payload in
    let popped = Bm_virtio.Vring.pop_avail r in
    Bm_virtio.Vring.push_used r ~head:popped ~written:0;
    if Bm_virtio.Vring.pop_used r <> head then failwith "vring cycle: wrong head reaped"
  done;
  (allocated_words () -. a0) /. float_of_int ops

(* --- PMD batching ----------------------------------------------------- *)

let pmd_run ~batch ~duration =
  let tb = Bm_workload.Testbed.make ~seed:!seed () in
  let server =
    Bm_hyp.Bm_hypervisor.create_server ~obs:tb.Bm_workload.Testbed.obs tb.Bm_workload.Testbed.sim
      tb.Bm_workload.Testbed.rng ~fabric:tb.Bm_workload.Testbed.fabric
      ~storage:tb.Bm_workload.Testbed.storage ~batch ()
  in
  let unlimited = Bm_cloud.Limits.unlimited_net () in
  let g name =
    match Bm_hyp.Bm_hypervisor.provision server ~name ~net_limits:unlimited () with
    | Ok i -> i
    | Error e -> failwith e
  in
  let a = g "a" and b = g "b" in
  (* udp_pps drives Sim.run itself: call it from scheduler context.
     Sixteen senders of single-packet descriptors keep the shadow vring
     deep enough that the PMD's poll-tick bursts have something to
     coalesce. *)
  let r, wall_s =
    time (fun () ->
        Bm_workload.Netperf.udp_pps tb.Bm_workload.Testbed.sim ~src:a ~dst:b ~senders:16
          ~batch:1 ~duration ())
  in
  (r.Bm_workload.Netperf.received_pps, Sim.events_executed tb.Bm_workload.Testbed.sim, wall_s)

(* --- parallel sweep --------------------------------------------------- *)

let sweep_ids = [ "fig9"; "fig10"; "fig11"; "sec6" ]

let sweep ~jobs =
  time (fun () -> Bmhive.Experiments.run_many ~quick:true ~seed:!seed ~jobs sweep_ids)

let cell_seconds () =
  List.map
    (fun id ->
      let _, s = time (fun () -> Bmhive.Experiments.run_one ~quick:true ~seed:!seed id) in
      (id, s))
    sweep_ids

(* --- driver ----------------------------------------------------------- *)

let progress fmt = Printf.ksprintf (fun m -> prerr_endline ("[engine_bench] " ^ m)) fmt

let () =
  let chains = 10_000 in
  let events = if !quick then 200_000 else 2_000_000 in
  let rec_domains = Domain.recommended_domain_count () in
  let multicore = rec_domains >= 2 in
  progress "hot lane: %d chains, %d events" chains events;
  let hot_eps, hot_events, hot_s, hot_wpe = lane_events_per_sec ~delay:0.0 ~chains ~events in
  progress "heap lane";
  let heap_eps, heap_events, heap_s, heap_wpe = lane_events_per_sec ~delay:1.0 ~chains ~events in
  (* nginx_c400's agenda: heap depth mean 481, peak 538. *)
  let shallow_chains = 512 in
  progress "heap lane: %d chains" shallow_chains;
  let shallow_eps, shallow_events, shallow_s, _ =
    lane_events_per_sec ~delay:1.0 ~chains:shallow_chains ~events
  in
  let timer_window = 1_024 in
  let timer_n = if !quick then 200_000 else 2_000_000 in
  progress "timers: %d ops, window %d" timer_n timer_window;
  let timer_s, timer_ns, timer_wpo = timer_ops ~window:timer_window ~ops:timer_n in
  let fiber_n = if !quick then 100_000 else 1_000_000 in
  progress "fiber delay / spawn / vring cycle: %d ops each" fiber_n;
  let delay_wpo = fiber_delay_words ~ops:fiber_n in
  let spawn_wpo = spawn_words ~ops:fiber_n in
  let clock_wpo = clock_words ~ops:fiber_n in
  let suspend_wpo = suspend_words ~ops:fiber_n in
  let vring_wpo = vring_cycle_words ~ops:fiber_n in
  let duration = if !quick then 2_000_000.0 else 20_000_000.0 in
  progress "pmd batch=1 (%.0f ms simulated)" (duration /. 1e6);
  let pps1, ev1, wall1 = pmd_run ~batch:1 ~duration in
  progress "pmd batch=32";
  let pps32, ev32, wall32 = pmd_run ~batch:32 ~duration in
  progress "sweep --jobs 1";
  let r1, sweep1_s = sweep ~jobs:1 in
  progress "sweep --jobs 4";
  let r4, sweep4_s = sweep ~jobs:4 in
  let identical = r1 = r4 in
  progress "per-cell timings";
  let cells = cell_seconds () in
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"seed\": %d,\n" !seed;
  p "  \"quick\": %b,\n" !quick;
  if not multicore then
    p "  \"note\": \"single-core host: wall-clock ratios for --jobs are skipped and only the determinism (outcomes_identical) and alloc gates are load-bearing\",\n";
  p "  \"recommended_domains\": %d,\n" rec_domains;
  p "  \"hot_lane\": {\n";
  p "    \"chains\": %d,\n" chains;
  p "    \"zero_delay\": { \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n"
    hot_events hot_s hot_eps;
  p "    \"heap\": { \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n" heap_events
    heap_s heap_eps;
  p "    \"heap_%d\": { \"chains\": %d, \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n"
    shallow_chains shallow_chains shallow_events shallow_s shallow_eps;
  p "    \"speedup\": %.2f\n" (hot_eps /. heap_eps);
  p "  },\n";
  p "  \"timer\": {\n";
  p "    \"window\": %d,\n" timer_window;
  p "    \"ops\": %d,\n" timer_n;
  p "    \"wall_s\": %.4f,\n" timer_s;
  p "    \"ns_per_op\": %.1f\n" timer_ns;
  p "  },\n";
  p "  \"alloc\": {\n";
  p "    \"hot_lane_words_per_event\": %.3f,\n" hot_wpe;
  p "    \"heap_lane_words_per_event\": %.3f,\n" heap_wpe;
  p "    \"timer_words_per_op\": %.3f,\n" timer_wpo;
  p "    \"fiber_delay_words_per_op\": %.3f,\n" delay_wpo;
  p "    \"spawn_words_per_op\": %.3f,\n" spawn_wpo;
  p "    \"clock_words_per_op\": %.3f,\n" clock_wpo;
  p "    \"suspend_words_per_op\": %.3f,\n" suspend_wpo;
  p "    \"vring_cycle_words_per_op\": %.3f\n" vring_wpo;
  p "  },\n";
  p "  \"pmd_batch\": {\n";
  p "    \"batch_1\": { \"received_pps\": %.0f, \"events\": %d, \"wall_s\": %.4f },\n" pps1 ev1
    wall1;
  p "    \"batch_32\": { \"received_pps\": %.0f, \"events\": %d, \"wall_s\": %.4f },\n" pps32 ev32
    wall32;
  p "    \"event_reduction\": %.2f,\n" (float_of_int ev1 /. float_of_int ev32);
  p "    \"wall_speedup\": %.2f\n" (wall1 /. wall32);
  p "  },\n";
  p "  \"sweep\": {\n";
  p "    \"ids\": [%s],\n" (String.concat ", " (List.map (Printf.sprintf "%S") sweep_ids));
  p "    \"jobs_1_wall_s\": %.4f,\n" sweep1_s;
  p "    \"jobs_4_wall_s\": %.4f,\n" sweep4_s;
  (* On a single-core host a jobs-4 wall-clock "speedup" only measures
     domain overhead; publish the skip, not a misleading ratio. The
     outcome-identity check above still ran with real domains. *)
  if multicore then p "    \"wall_speedup\": %.2f,\n" (sweep1_s /. sweep4_s)
  else
    p "    \"wall_speedup_skipped\": \"single-core host (recommended_domains = 1)\",\n";
  p "    \"outcomes_identical\": %b\n" identical;
  p "  },\n";
  p "  \"cells\": {\n";
  List.iteri
    (fun i (id, s) ->
      p "    %S: %.4f%s\n" id s (if i = List.length cells - 1 then "" else ","))
    cells;
  p "  }\n";
  p "}\n";
  let oc = open_out !out_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "engine bench: hot lane %.2fx heap; %.2f/%.2f alloc words/event \
                 (hot/heap); timer %.0f ns and %.2f words per arm+cancel; %.2f/%.2f/%.2f/%.2f/%.2f \
                 words per delay/clock/suspend/spawn/vring cycle; pmd batch32 %.2fx wall; sweep \
                 identical: %b (%d domain(s) recommended%s)\n"
    (hot_eps /. heap_eps) hot_wpe heap_wpe timer_ns timer_wpo delay_wpo clock_wpo suspend_wpo
    spawn_wpo vring_wpo
    (wall1 /. wall32) identical
    rec_domains
    (if multicore then "" else "; wall speedups skipped");
  Printf.printf "written: %s\n" !out_file

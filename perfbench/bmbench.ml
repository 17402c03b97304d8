(* End-to-end benchmark of the BM-Hive simulator's host cost.

   One executable holds the two workloads; perfbench/run.py builds it,
   launches it in one of three modes and turns its output into the
   benchmark's result line.

     bmbench setup WORKLOAD --seed N --spawned-at T
       Prepare the workload (testbeds, guests, services) and print the
       host seconds from T, the launcher's clock just before it spawned
       this process, to the point where the first simulated event would
       run. Nothing is simulated.

     bmbench run WORKLOAD --seed N --seconds S
       Prepare and run the workload's timed calls again and again until
       the next repetition would overrun S seconds of timed calls (at
       least once). Prints wall time and allocated words per repetition,
       the simulated outputs of the first repetition, any repetition
       whose outputs differ from it, and the peak heap.

     bmbench trace WORKLOAD --seed N
       One untraced repetition (with GC accounting), one repetition with
       a Trace ring, a Metrics registry and a heap-depth sampler
       attached, the layer probes, and every per-layer metric that the
       workload's code reaches.

   Output is line-oriented ("<tag> <key> <value>"); values never hold a
   newline. Everything is driven through the libraries' public entry
   points. *)

open Bm_engine
open Bm_workload
module Experiments = Bmhive.Experiments
module Fleet = Bm_hyp.Fleet

let now = Unix.gettimeofday
let g x = Printf.sprintf "%.17g" x
let digest s = Digest.to_hex (Digest.string s)

(* Words allocated so far, finished domains included: minor plus direct
   major allocations, net of promotions (which would count twice). *)
let allocated_words () =
  let st = Gc.quick_stat () in
  st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

type sinks = { trace : Trace.t option; metrics : Metrics.t option }

let no_sinks = { trace = None; metrics = None }

type hyp = Bm | Vm | Neither

type out = {
  fields : (string * string) list;  (** simulated outputs, in check order *)
  ops : int;  (** simulated requests completed; 0 when not observable *)
  events : int;  (** simulation events executed; 0 when not observable *)
  violations : string list;  (** broken in-run invariants *)
}

(* One timed call, prepared up to its first simulated event. *)
type arm = { hyp : hyp; sim : Sim.t option; call : unit -> out }

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* The top quick level of fig12: ab with KeepAlive off, 400 clients,
   60 requests per client. *)
let nginx_clients = 400
let nginx_requests = nginx_clients * 60

let nginx_c400 ~seed sinks =
  let arm label hyp guest =
    let tb = Testbed.make ~seed ?trace:sinks.trace ?metrics:sinks.metrics () in
    let server = guest tb in
    let client = Testbed.client_box tb in
    Nginx.serve server ();
    let call () =
      let r =
        Nginx.ab tb.Testbed.sim ~client ~server ~concurrency:nginx_clients ~requests:nginx_requests
      in
      {
        fields =
          [
            (label ^ ".rps", g r.Nginx.rps);
            (label ^ ".avg_ms", g r.Nginx.avg_ms);
            (label ^ ".p99_ms", g r.Nginx.p99_ms);
          ];
        ops = r.Nginx.requests;
        events = Sim.events_executed tb.Testbed.sim;
        violations =
          (if r.Nginx.requests = nginx_requests then []
           else
             [ Printf.sprintf "%s: %d of %d ab requests completed" label r.Nginx.requests nginx_requests ]);
      }
    in
    { hyp; sim = Some tb.Testbed.sim; call }
  in
  [ arm "bm" Bm (fun tb -> snd (Testbed.bm_guest tb)); arm "vm" Vm (fun tb -> snd (Testbed.vm_guest tb)) ]

(* What [Experiments.print_outcome] prints for one experiment. *)
let outcome_text (o : Experiments.outcome) =
  String.concat "\n"
    (Bmhive.Report.table ~title:o.Experiments.title ~header:o.Experiments.header o.Experiments.rows
    :: List.map (fun n -> "  note: " ^ n) o.Experiments.notes)

let suite_out results =
  {
    fields =
      List.map
        (fun (id, r) ->
          match r with
          | Ok o -> (id, digest (outcome_text o))
          | Error e -> (id, "error: " ^ String.escaped e))
        results;
    ops = 0;
    events = 0;
    violations =
      List.filter_map
        (fun (id, r) -> match r with Ok _ -> None | Error e -> Some (id ^ ": " ^ String.escaped e))
        results;
  }

let suite_jobs () = Bmhive.Parallel.default_jobs ()

(* Every registered experiment at quick scale, one domain per core. *)
let suite_quick ~seed sinks =
  let call () =
    suite_out
      (Experiments.run_many ~quick:true ~seed ?trace:sinks.trace ?metrics:sinks.metrics ~jobs:(suite_jobs ())
         (Experiments.ids ()))
  in
  [ { hyp = Neither; sim = None; call } ]

let workloads =
  [
    ("nginx_c400", nginx_c400);
    ("suite_quick", suite_quick);
  ]

(* ------------------------------------------------------------------ *)
(* Timed repetitions *)

type rep = {
  wall : float;  (** host seconds in the timed calls *)
  words : float;  (** words allocated in the timed calls *)
  timed : (hyp * float) list;  (** each arm's hypervisor and host seconds *)
  result : out;  (** the arms' outputs, concatenated *)
}

let run_arms arms =
  let w0 = allocated_words () in
  let timed =
    List.map
      (fun a ->
        let t0 = now () in
        let o = a.call () in
        ((a.hyp, now () -. t0), o))
      arms
  in
  let words = allocated_words () -. w0 in
  let outs = List.map snd timed in
  {
    wall = List.fold_left (fun acc ((_, dt), _) -> acc +. dt) 0.0 timed;
    words;
    timed = List.map fst timed;
    result =
      {
        fields = List.concat_map (fun o -> o.fields) outs;
        ops = List.fold_left (fun acc o -> acc + o.ops) 0 outs;
        events = List.fold_left (fun acc o -> acc + o.events) 0 outs;
        violations = List.concat_map (fun o -> o.violations) outs;
      };
  }

(* Repetition [i]'s simulated outputs and broken invariants; run.py
   compares repetitions with each other and with the reference. *)
let print_out i o =
  List.iter (fun (k, v) -> Printf.printf "field %d %s %s\n" i k v) o.fields;
  List.iter (Printf.printf "violation %d %s\n" i) o.violations

let setup_mode prepare ~seed ~spawned_at =
  let arms = prepare ~seed no_sinks in
  let t = now () in
  ignore (Sys.opaque_identity arms);
  Printf.printf "setup_s %.9f\n" (t -. spawned_at)

(* Peak resident set of this process so far, in KiB. [top_heap_words]
   is no substitute on several domains: it sums each domain's own
   maximum, so it depends on which domain ran which experiment. *)
let peak_rss_kib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l -> ( try Scanf.sscanf l "VmHWM: %d kB" Fun.id with Scanf.Scan_failure _ | End_of_file -> find ())
      in
      find ())

let run_mode prepare ~seed ~seconds =
  (* The first repetition runs in a fresh process; the peak is read right
     after it, before later repetitions can move it. *)
  let first = run_arms (prepare ~seed no_sinks) in
  let peak = peak_rss_kib () in
  let rec loop acc spent n =
    if spent +. (spent /. float_of_int n) > seconds then List.rev acc
    else begin
      Gc.compact ();
      let r = run_arms (prepare ~seed no_sinks) in
      loop (r :: acc) (spent +. r.wall) (n + 1)
    end
  in
  List.iteri
    (fun i r ->
      Printf.printf "rep %d %.9f %.0f\n" i r.wall r.words;
      print_out i r.result)
    (loop [ first ] first.wall 1);
  Printf.printf "peak_rss_kib %d\n" peak

(* ------------------------------------------------------------------ *)
(* GC pauses from the runtime's event ring *)

(* Host seconds spent inside outermost GC phases, summed over domains.
   Phases nest, so only the outermost begin/end pair of each domain is
   counted; waits for other domains are not GC work. *)
module Pauses = struct
  type t = {
    depth : (int, int) Hashtbl.t;
    start : (int, int64) Hashtbl.t;
    mutable total_ns : int64;
    mutable lost : int;
  }

  let create () = { depth = Hashtbl.create 4; start = Hashtbl.create 4; total_ns = 0L; lost = 0 }

  let counted = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT | Runtime_events.EV_DOMAIN_RESIZE_HEAP_RESERVATION -> false
    | _ -> true

  let callbacks t =
    let depth d = Option.value ~default:0 (Hashtbl.find_opt t.depth d) in
    let runtime_begin d ts phase =
      if counted phase then begin
        if depth d = 0 then Hashtbl.replace t.start d (Runtime_events.Timestamp.to_int64 ts);
        Hashtbl.replace t.depth d (depth d + 1)
      end
    in
    let runtime_end d ts phase =
      if counted phase && depth d > 0 then begin
        Hashtbl.replace t.depth d (depth d - 1);
        if depth d = 0 then
          t.total_ns <-
            Int64.add t.total_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) (Hashtbl.find t.start d))
      end
    in
    let lost_events _ n = t.lost <- t.lost + n in
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

  let reset t =
    Hashtbl.reset t.depth;
    t.total_ns <- 0L;
    t.lost <- 0

  let seconds t = Int64.to_float t.total_ns /. 1e9
end

(* ------------------------------------------------------------------ *)
(* Layer probes *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Depth of a simulator's timed heap, sampled every [depth_period] ns
   of simulated time and weighted by the events run since the previous
   sample, so the mean is the depth an average event saw. The sampler
   only reads [Sim.stats] and reschedules itself while other events are
   pending, so [Sim.run] still drains and the simulated outputs do not
   change. *)
type depth = { mutable weighted : float; mutable events : int; mutable peak : int }

let depth_period = 10_000.0

let sample_depth sim =
  let d = { weighted = 0.0; events = 0; peak = 0 } in
  let last = ref (Sim.events_executed sim) in
  let rec tick () =
    let s = Sim.stats sim in
    let n = s.Sim.executed - !last in
    last := s.Sim.executed;
    d.weighted <- d.weighted +. float_of_int (n * s.Sim.pending_heap);
    d.events <- d.events + n;
    d.peak <- max d.peak s.Sim.pending_heap;
    if Sim.pending_events sim > 0 then Sim.schedule sim ~delay:depth_period tick
  in
  Sim.schedule sim ~delay:0.0 tick;
  d

(* Host ns per event on an agenda shaped like nginx_c400 at seed 2020,
   as its heap-depth sampler measured it (perfbench/README.md derives
   each figure). Each ab request arms two 100 ms RTO timers that are
   never cancelled and outlive the run, so the heap grows linearly from
   [probe_tokens] short-delay events to about 48,000 pending timers, then
   drains the timers. The probe replays that: [probe_tokens] events
   circulate for [probe_events] events, [probe_lane_permille] of them
   on the zero-delay lane and the rest at short delays averaging 24 us,
   and one event in [probe_events / probe_timers] also arms a timer. *)
let probe_tokens = 817
let probe_events = 2_415_000
let probe_timers = 47_244
let probe_lane_permille = 393
let probe_short_ns = 48_000
let probe_timer_ns = Simtime.ms 100.0

let engine_ns_per_event () =
  let once () =
    let sim = Sim.create () in
    let budget = ref probe_events and k = ref 0 in
    let rec cb () =
      if !budget > 0 then begin
        decr budget;
        incr k;
        if !k * 104729 mod probe_events < probe_timers then Sim.schedule sim ~delay:probe_timer_ns ignore;
        if !k * 7919 mod 1000 < probe_lane_permille then Sim.schedule sim ~delay:0.0 cb
        else Sim.schedule sim ~delay:(float_of_int (1 + (!k * 104723 mod probe_short_ns))) cb
      end
    in
    for i = 1 to probe_tokens do
      Sim.schedule sim ~delay:(float_of_int (1 + (i * 104723 mod probe_short_ns))) cb
    done;
    Gc.compact ();
    let t0 = now () in
    Sim.run sim;
    (now () -. t0) *. 1e9 /. float_of_int (Sim.events_executed sim)
  in
  median (List.init 3 (fun _ -> once ()))

(* Host seconds to build the game-day fleet: the default configuration
   that Scenario.run and the full-scale game_day experiment build. *)
let sched_build_s ~seed =
  median
    (List.init 3 (fun _ ->
         Gc.compact ();
         let t0 = now () in
         ignore (Sys.opaque_identity (Fleet.Live.build ~seed Fleet.Live.default_config));
         now () -. t0))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

let metric name unit v = Printf.printf "metric %s %s %.17g\n" name unit v

(* A registry instrument as one number: a counter's total, a meter's
   event count, a histogram's mean. *)
let reg_value snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Metrics.Counter_total v) -> Some v
  | Some (Metrics.Meter_rate { count; _ }) -> Some (float_of_int count)
  | Some (Metrics.Histogram_summary { mean; _ }) -> Some mean
  | None -> None

let ratio a b = if b = 0.0 then 0.0 else a /. b

let link_depths snapshot =
  List.filter_map
    (fun (name, s) ->
      match s with
      | Metrics.Histogram_summary { max; _ }
        when String.starts_with ~prefix:"fabric.link." name && String.ends_with ~suffix:".depth" name ->
        Some max
      | _ -> None)
    snapshot

(* Only instruments the run registered are printed; run.py marks the
   rest as not registered, so a renamed or removed instrument cannot
   pass for a zero. *)
let registry_metrics m =
  let snap = Metrics.snapshot m in
  let value = reg_value snap in
  let emit unit name = Option.iter (metric name unit) (value name) in
  let ratio_of name a b =
    match (value a, value b) with Some x, Some y -> metric name "ratio" (ratio x y) | _ -> ()
  in
  List.iter (emit "count") [ "hw.dma.bytes"; "hw.pcie.register_accesses" ];
  emit "sim_ns" "hw.dma.copy_ns";
  List.iter (emit "count")
    [
      "virtio.vring.add";
      "virtio.vring.used";
      "virtio.net.rx_pkts";
      "virtio.blk.submitted";
      "virtio.blk.reaped";
      "iobond.doorbells";
      "iobond.forwarded";
      "iobond.completed";
      "iobond.guest_irqs";
      "iobond.mailbox.tail_writes";
    ];
  ratio_of "iobond.completed_per_forwarded" "iobond.completed" "iobond.forwarded";
  List.iter (emit "count") [ "hyp.bm.pmd_pkts"; "hyp.vmexit.injection"; "hyp.vmexit.ipi"; "hyp.vmexit.msr" ];
  emit "sim_ns" "hyp.preempt.stolen_ns";
  List.iter (emit "count") [ "cloud.vswitch.pps"; "cloud.blockstore.served" ];
  emit "sim_ns" "cloud.blockstore.serve_ns";
  List.iter (emit "count")
    [
      "cloud.sched.placed";
      "cloud.sched.evacuated";
      "cloud.slo.delivered";
      "cloud.slo.failed";
      "cloud.slo.shed";
      "fabric.injected";
      "fabric.delivered";
      "fabric.dropped";
    ];
  ratio_of "fabric.delivered_per_injected" "fabric.delivered" "fabric.injected";
  (match link_depths snap with
   | [] -> ()
   | ds -> metric "fabric.max_link_depth" "count" (List.fold_left Float.max 0.0 ds));
  List.iter (emit "count")
    [
      "fault.injected.server_failure";
      "fault.injected.fabric_link_down";
      "fault.injected.pmd_crash";
      "scenario.stage_up";
      "scenario.stage_down";
    ];
  let count name = Option.value ~default:0.0 (value name) in
  let injected = count "fabric.injected" and delivered = count "fabric.delivered" and dropped = count "fabric.dropped" in
  if injected <> delivered +. dropped then
    Printf.printf "violation 1 fabric injected %.0f <> delivered %.0f + dropped %.0f\n" injected delivered
      dropped

(* A ring big enough that no workload here wraps it would not fit in
   memory; what was lost is reported instead. *)
let trace_capacity = 1 lsl 20

let trace_mode name prepare ~seed =
  (* The untraced repetition is the gc.* window, so every host time in
     this mode is taken with runtime events on. *)
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let pauses = Pauses.create () in
  let cbs = Pauses.callbacks pauses in
  let drain () = ignore (Runtime_events.read_poll cursor cbs None) in
  (* GC work done by [f ()]. The event ring holds about a second of a
     busy single domain's events, so [f] calls [drain] between calls
     that could overrun it. *)
  let gc_window f =
    drain ();
    Pauses.reset pauses;
    let st0 = Gc.quick_stat () in
    let v = f () in
    let st1 = Gc.quick_stat () in
    drain ();
    (v, (st0, st1, Pauses.seconds pauses, pauses.Pauses.lost))
  in
  let suite = name = "suite_quick" in
  (* Untraced repetition; the engine's counters are pure observation. *)
  Gc.compact ();
  let arms = prepare ~seed no_sinks in
  let plain, gc = gc_window (fun () -> run_arms arms) in
  let stats = List.filter_map (fun a -> Option.map Sim.stats a.sim) arms in
  (* The suite once more, each experiment alone on one domain. Its GC
     window replaces the multi-domain one, which overruns the ring. *)
  let per_id, gc =
    if not suite then ([], gc)
    else
      gc_window (fun () ->
          List.map
            (fun id ->
              let t0 = now () in
              let r = Experiments.run_one ~quick:true ~seed id in
              let dt = now () -. t0 in
              drain ();
              if (suite_out [ (id, r) ]).fields <> List.filter (fun (k, _) -> k = id) plain.result.fields
              then Printf.printf "violation 0 run_one %s differs from run_many\n" id;
              (id, dt))
            (Experiments.ids ()))
  in
  (* Traced repetition: the same inputs with both sinks attached. *)
  let trace = Trace.create ~capacity:trace_capacity () and metrics = Metrics.create () in
  Gc.compact ();
  let traced_arms = prepare ~seed { trace = Some trace; metrics = Some metrics } in
  let depths = List.filter_map (fun a -> Option.map sample_depth a.sim) traced_arms in
  let traced = run_arms traced_arms in
  print_out 0 plain.result;
  print_out 1 traced.result;
  (* Engine. The Sim.stats counters and the depth sampler need the
     workload's Sim.t; without one only the event count may be known. *)
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let events = float_of_int plain.result.events and ops = float_of_int plain.result.ops in
  if events > 0.0 then metric "engine.events" "count" events;
  if stats <> [] then begin
    metric "engine.lane_events" "count" (sum (fun s -> s.Sim.lane));
    metric "engine.heap_events" "count" (sum (fun s -> s.Sim.heap));
    metric "engine.heap_capacity" "count"
      (float_of_int (List.fold_left (fun acc s -> max acc s.Sim.heap_capacity) 0 stats));
    let weighted = List.fold_left (fun acc d -> acc +. d.weighted) 0.0 depths
    and sampled = List.fold_left (fun acc d -> acc + d.events) 0 depths in
    metric "engine.heap_depth_mean" "count" (ratio weighted (float_of_int sampled));
    metric "engine.heap_depth_peak" "count" (float_of_int (List.fold_left (fun acc d -> max acc d.peak) 0 depths))
  end;
  if ops > 0.0 then begin
    if events > 0.0 then metric "engine.events_per_op" "events/op" (ratio events ops);
    metric "engine.words_per_op" "words/op" (ratio plain.words ops)
  end;
  metric "engine.ns_per_event" "ns" (engine_ns_per_event ());
  (* GC. *)
  let st0, st1, pause_s, lost = gc in
  metric "gc.minor_collections" "count" (float_of_int (st1.Gc.minor_collections - st0.Gc.minor_collections));
  metric "gc.major_collections" "count" (float_of_int (st1.Gc.major_collections - st0.Gc.major_collections));
  metric "gc.promoted_mwords" "Mwords" ((st1.Gc.promoted_words -. st0.Gc.promoted_words) /. 1e6);
  metric "gc.pause_s" "s" pause_s;
  if lost > 0 then Printf.printf "warning %d runtime events lost; gc.pause_s is a lower bound\n" lost;
  (* Datapath, cloud, fabric and core counters from the traced run. *)
  registry_metrics metrics;
  let hyp_s h = List.fold_left (fun acc (h', dt) -> if h' = h then acc +. dt else acc) 0.0 plain.timed in
  List.iter
    (fun (h, name) -> if List.exists (fun a -> a.hyp = h) arms then metric name "s" (hyp_s h))
    [ (Bm, "hyp.bm.run_s"); (Vm, "hyp.vm.run_s") ];
  metric "cloud.sched.build_s" "s" (sched_build_s ~seed);
  let per_id_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 per_id in
  if suite then begin
    List.iter (fun (id, dt) -> metric ("core." ^ id ^ ".wall_s") "s" dt) per_id;
    metric "core.critical_path_s" "s" (List.fold_left (fun acc (_, dt) -> Float.max acc dt) 0.0 per_id);
    metric "core.parallel_efficiency" "ratio" (per_id_s /. (float_of_int (suite_jobs ()) *. plain.wall))
  end;
  (* The traced suite runs on one domain (sinks force jobs = 1), so its
     overhead is taken against the single-domain per-experiment total. *)
  metric "trace.overhead" "ratio" (traced.wall /. if suite then per_id_s else plain.wall);
  metric "trace.events" "count" (float_of_int (List.length (Trace.events trace) + Trace.dropped trace));
  metric "trace.dropped" "count" (float_of_int (Trace.dropped trace));
  metric "wall_s.untraced" "s" plain.wall;
  metric "wall_s.traced" "s" traced.wall

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bmbench (setup|run|trace) WORKLOAD --seed N [--seconds S] [--spawned-at T]\n\
     workloads: nginx_c400 suite_quick";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: mode :: workload :: flags -> (
    let prepare = match List.assoc_opt workload workloads with Some p -> p | None -> usage () in
    let rec flag name = function
      | k :: v :: _ when k = name -> (
        match float_of_string_opt v with Some x -> Some x | None -> usage ())
      | _ :: rest -> flag name rest
      | [] -> None
    in
    let seed =
      match flag "--seed" flags with Some s when Float.is_integer s -> Float.to_int s | _ -> usage ()
    in
    Printf.printf "env ocaml %s\nenv nproc %d\n" Sys.ocaml_version (suite_jobs ());
    match (mode, flag "--seconds" flags, flag "--spawned-at" flags) with
    | "setup", _, Some spawned_at -> setup_mode prepare ~seed ~spawned_at
    | "run", Some seconds, _ -> run_mode prepare ~seed ~seconds
    | "trace", _, _ -> trace_mode workload prepare ~seed
    | _ -> usage ())
  | _ -> usage ()

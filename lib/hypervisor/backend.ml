open Bm_engine
open Bm_hw
open Bm_virtio
open Bm_iobond
open Bm_cloud
open Bm_guest

type cost = { irq_entry_ns : unit -> float; io_factor : float; doorbell_ns : float }

type t = {
  sim : Sim.t;
  obs : Obs.t;
  fault : Fault.t;
  vswitch : Vswitch.t;
  storage : Blockstore.t;
  prefix : string;
  batch : int;
  vf_profile : Profile.t;
  vf_total : int;
  vf_queues : int;
  mutable vf_pool : Vf.dev option; (* created on first [Sliced] attachment *)
  mutable alive : bool;
  mutable crashes : int;
  mutable guests : (string * guest) list;
}

and guest = {
  host : t;
  name : string;
  cost : cost;
  cores : Cores.t;
  os : Guest_os.t;
  net : Virtio_net.t;
  blkdev : Virtio_blk.t;
  net_limits : Limits.net;
  blk_limits : Limits.blk;
  rx_refilled : unit -> unit;
  tx_pending : unit -> int;
  blk_pending : unit -> int;
  (* Work hints have capacity 1: a doorbell rung while one is already
     pending coalesces into it (the drain loop will see the new work). *)
  tx_hint : unit Sim.Bounded.bounded;
  blk_hint : unit Sim.Bounded.bounded;
  mutable poll_mode : bool;
  mutable rx_handler : Packet.t -> unit;
  mutable rx_drops : int;
  mutable vf : Vf.vf option;
  mutable endpoint : int;
}

type queue = Tx | Blk

(* Net rings sized like a multiqueue device (8 queues x 256). *)
let net_queue_size = 2048
let rx_buffer_target = 1536

(* The per-guest rx backlog holds bursts delivered by the vswitch that
   the backend has not yet pumped into guest buffers (drop-tail, like a
   real NIC queue). *)
let rx_backlog_capacity = 512

(* Poll-loop iteration period of the batched backend drain. At
   [batch = 1] the drain is purely hint-driven (zero simulated cost,
   bit-identical to the historical schedule); at [batch > 1] the
   backend behaves like a real poll-mode driver instead: it sleeps one
   tick between bursts, which is what lets descriptors accumulate into
   bursts worth coalescing. *)
let poll_tick_ns = 1_000.0

(* A guest PMD polling its rx ring picks a completion up this fast. *)
let poll_pickup_ns = 500.0

(* Metric names are the host's prefix plus a suffix, built only when a
   registry is attached. *)
let count b ~by suffix =
  match Obs.metrics b.obs with
  | None -> ()
  | Some m -> Metrics.incr m ~by:(float_of_int by) (b.prefix ^ suffix)

let count_one b suffix = count b ~by:1 suffix

let kick g q = ignore (Sim.Bounded.send (match q with Tx -> g.tx_hint | Blk -> g.blk_hint) ())

let rekick g =
  if g.tx_pending () > 0 then kick g Tx;
  if g.blk_pending () > 0 then kick g Blk

let create ?(obs = Obs.none) ?(fault = Fault.none) sim ~vswitch ~storage ~prefix ~worker
    ~trace_liveness ~batch ~vf_profile ~vfs ~vf_queues () =
  let b =
    {
      sim;
      obs;
      fault;
      vswitch;
      storage;
      prefix;
      batch;
      vf_profile;
      vf_total = vfs;
      vf_queues;
      vf_pool = None;
      alive = true;
      crashes = 0;
      guests = [];
    }
  in
  (* The backend workers are ordinary host processes: a crash kills them
     and the supervisor respawns them after the event's dead-time. Queue
     state lives in the rings, so the respawned workers drain from
     exactly where their predecessors stopped; the rekick replays each
     guest's work hints. *)
  let instant name =
    if trace_liveness then
      Trace.instant_opt (Obs.trace obs) ~track:prefix (worker ^ name) ~now:(Sim.now sim)
  in
  Fault.subscribe fault Fault.Pmd_crash (fun ev ->
      if b.alive then begin
        b.alive <- false;
        b.crashes <- b.crashes + 1;
        count_one b ("." ^ worker ^ "_crashes");
        instant "_crash";
        Sim.schedule sim ~delay:ev.Fault.duration_ns (fun () ->
            b.alive <- true;
            count_one b ("." ^ worker ^ "_respawns");
            instant "_respawn";
            List.iter (fun (_, g) -> rekick g) b.guests)
      end);
  b

let alive b = b.alive
let crashes b = b.crashes

(* Backend fibers park here while their process is dead; the poll
   period only costs anything during a crash window. *)
let wait_alive b =
  while not b.alive do
    Sim.delay 10_000.0
  done

(* The host's SR-IOV pool is created on first use, so a host that never
   asks for a VF datapath schedules exactly the events it always did. *)
let vf_pool b =
  match b.vf_pool with
  | Some d -> d
  | None ->
    let d =
      Vf.create_device ~obs:b.obs ~fault:b.fault b.sim ~profile:b.vf_profile ~vfs:b.vf_total
        ~queues_per_vf:b.vf_queues ()
    in
    b.vf_pool <- Some d;
    d

(* Passthrough gets a whole device to itself, a slice comes from the
   host's shared pool; an exhausted pool falls back to the ring path
   (the scheduler's failover) and the fallback is counted, not silent. *)
let attach_vf b ~owner = function
  | Vf.Vring -> None
  | Vf.Passthrough ->
    let dev =
      Vf.create_device ~obs:b.obs ~fault:b.fault b.sim ~profile:b.vf_profile ~vfs:1
        ~queues_per_vf:b.vf_queues ()
    in
    (match Vf.attach dev ~owner () with Ok vf -> Some vf | Error _ -> None)
  | Vf.Sliced -> (
    match Vf.attach (vf_pool b) ~owner () with
    | Ok vf -> Some vf
    | Error _ ->
      count_one b ".vf_fallbacks";
      None)

(* Interrupt context preempts the guest's threads: it is charged as
   time, not as a queued core reservation. *)
let irq_pickup g = Sim.delay (if g.poll_mode then poll_pickup_ns else g.cost.irq_entry_ns ())

let guest_rx g pkt =
  let count = pkt.Packet.count in
  let stack_ns =
    if g.poll_mode then Guest_os.dpdk_rx_ns_of g.os ~count
    else Guest_os.net_rx_ns g.os ~kind:pkt.Packet.protocol ~count
  in
  Cores.execute_ns g.cores (stack_ns *. g.cost.io_factor);
  g.rx_handler pkt

let refill g = if Virtio_net.refill_rx g.net ~target:rx_buffer_target > 0 then g.rx_refilled ()

let net_interrupt g =
  irq_pickup g;
  ignore (Virtio_net.reap_tx g.net);
  let pkts = Virtio_net.reap_rx g.net in
  refill g;
  List.iter (guest_rx g) pkts

(* Both substrates' device glue comes up through the real vhost-user
   control protocol before any descriptor moves (§3.4.2). *)
let handshake features =
  match
    Vhost_user.standard_handshake
      (Vhost_user.create ~backend_features:features ())
      ~driver_features:features
  with
  | Ok () -> ()
  | Error e -> failwith ("vhost-user handshake failed: " ^ e)

let guest b ~name cost ~cores ~os ~net ~blk ~net_limits ~blk_limits ~rx_refilled ~tx_pending
    ~blk_pending =
  let g =
    {
      host = b;
      name;
      cost;
      cores;
      os;
      net;
      blkdev = blk;
      net_limits;
      blk_limits;
      rx_refilled;
      tx_pending;
      blk_pending;
      tx_hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail ();
      blk_hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail ();
      poll_mode = false;
      rx_handler = ignore;
      rx_drops = 0;
      vf = None;
      endpoint = -1;
    }
  in
  Virtio_net.set_interrupt net (fun () -> Sim.spawn b.sim (fun () -> net_interrupt g));
  Virtio_blk.set_interrupt blk (fun () ->
      Sim.spawn b.sim (fun () ->
          Sim.delay (cost.irq_entry_ns ());
          ignore (Virtio_blk.reap blk)));
  handshake Feature.default_net;
  handshake Feature.default_blk;
  g

(* One backend worker per queue: woken by a work hint, it fans the
   queue out in bursts of up to [batch] descriptors, one forked fiber —
   one host-side event — per burst (at the default batch of 1 this is
   the historical one-event-per-descriptor schedule). *)
let drain g q ~pop ~process ?(after = ignore) () =
  let b = g.host in
  let hint = match q with Tx -> g.tx_hint | Blk -> g.blk_hint in
  Sim.spawn b.sim (fun () ->
      let rec loop () =
        Sim.Bounded.recv hint;
        wait_alive b;
        let rec drain () =
          match pop b.batch with
          | [] -> ()
          | reqs ->
            Sim.fork (fun () -> List.iter process reqs);
            if b.batch > 1 then Sim.delay poll_tick_ns;
            drain ()
        in
        if b.batch > 1 then Sim.delay poll_tick_ns;
        drain ();
        after ();
        loop ()
      in
      loop ())

let rx_drop g pkt =
  g.rx_drops <- g.rx_drops + pkt.Packet.count;
  count g.host ~by:pkt.Packet.count ".rx_drops"

(* Net rx: vswitch delivery into a bounded backlog, then into posted
   guest buffers. A backlog overflow is a NIC-queue drop; a packet that
   finds no posted buffer is an rx drop. *)
let rx g vf ~post =
  let b = g.host in
  let rx_chan = Sim.Bounded.create ~capacity:rx_backlog_capacity ~policy:Sim.Bounded.Drop_tail () in
  Obs.watch_bounded b.obs ~track:(b.prefix ^ ".rx_backlog") rx_chan;
  g.vf <- vf;
  g.endpoint <-
    (match vf with
    | None -> Vswitch.register b.vswitch ~deliver:(fun pkt -> ignore (Sim.Bounded.send rx_chan pkt))
    | Some vf ->
      (* Direct assignment: the device DMAs into guest buffers and
         interrupts the guest itself — the backend never sees the
         packet. A ring-full or mid-reassignment window is a NIC drop,
         same as the ring path's backlog overflow. *)
      let rxq = ref 0 in
      Vswitch.register b.vswitch ~deliver:(fun pkt ->
          let q = !rxq in
          rxq := (q + 1) mod Vf.queues vf;
          let deliver _c =
            Sim.spawn b.sim (fun () ->
                irq_pickup g;
                guest_rx g pkt)
          in
          match Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver with
          | `Submitted _ -> ()
          | `Rejected -> rx_drop g pkt));
  let process pkt = if not (post pkt) then rx_drop g pkt in
  Sim.spawn b.sim (fun () ->
      let rec loop () =
        let pkt = Sim.Bounded.recv rx_chan in
        wait_alive b;
        (* Opportunistically drain the backlog burst behind the first
           packet (never blocking), one worker fiber per burst. At
           batch > 1, wait out a poll tick first so the burst has
           arrivals to coalesce. *)
        if b.batch > 1 then Sim.delay poll_tick_ns;
        let rec burst n acc =
          if n >= b.batch then List.rev acc
          else
            match Sim.Bounded.try_recv rx_chan with
            | Some p -> burst (n + 1) (p :: acc)
            | None -> List.rev acc
        in
        let pkts = pkt :: burst 1 [] in
        Sim.fork (fun () -> List.iter process pkts);
        loop ()
      in
      loop ())

let serve_blk b (req : Virtio_blk.req) =
  let op =
    match req.Virtio_blk.op with
    | Virtio_blk.Read -> `Read
    | Virtio_blk.Write -> `Write
    | Virtio_blk.Flush -> `Flush
  in
  match Blockstore.serve b.storage ~op ~bytes_:req.Virtio_blk.bytes with
  | `Served -> ()
  | `Rejected ->
    (* Storage admission queue full: complete the request with an
       error status so the guest can retry. *)
    req.Virtio_blk.failed <- true;
    count_one b ".blk_rejected"

let net_shed g pkt =
  count g.host ~by:pkt.Packet.count ".net_shed";
  false

let admit g xmit pkt =
  if Limits.net_admit g.net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size then xmit pkt
  else net_shed g pkt

let send g xmit pkt =
  Cores.execute_ns g.cores
    ((Guest_os.net_tx_ns g.os ~kind:pkt.Packet.protocol ~count:pkt.Packet.count
     +. g.cost.doorbell_ns)
    *. g.cost.io_factor);
  admit g xmit pkt

let send_dpdk g xmit pkt =
  Cores.execute_ns g.cores
    ((Guest_os.dpdk_tx_ns_of g.os ~count:pkt.Packet.count +. g.cost.doorbell_ns)
    *. g.cost.io_factor);
  admit g xmit pkt

(* On a VF datapath the doorbell rings the device directly: the
   descriptor streams at the VF's arbitrated DMA share and the device
   forwards it into the fabric in hardware — the backend workers and
   their cores are skipped entirely. *)
let vf_xmit g vf =
  let txq = ref 0 in
  fun pkt ->
    let q = !txq in
    txq := (q + 1) mod Vf.queues vf;
    match
      Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver:(fun _ ->
          Vswitch.forward_hw g.host.vswitch pkt)
    with
    | `Submitted _ -> true
    | `Rejected ->
      count g.host ~by:pkt.Packet.count ".vf_tx_rejects";
      false

let blk_complete g = Cores.execute_ns g.cores (g.os.Guest_os.blk_complete_ns *. g.cost.io_factor)

let blk_attempt g ~op ~bytes_ =
  Cores.execute_ns g.cores (g.os.Guest_os.blk_submit_ns *. g.cost.io_factor);
  if not (Limits.blk_admit g.blk_limits ~bytes_) then begin
    count_one g.host ".blk_shed";
    blk_complete g;
    Error `Limited
  end
  else begin
    (* Completion latency (fio's clat): measured once the request is
       admitted past the instance rate limiter. *)
    let t0 = Sim.clock () in
    let vop =
      match op with
      | `Read -> Virtio_blk.Read
      | `Write -> Virtio_blk.Write
      | `Flush -> Virtio_blk.Flush
    in
    let req = Virtio_blk.make_req ~op:vop ~sector:0 ~bytes:bytes_ ~now:(Sim.clock ()) in
    if not (Virtio_blk.submit g.blkdev req) then begin
      Sim.delay 1_000.0;
      blk_complete g;
      Error (`Busy (Sim.clock () -. t0))
    end
    else begin
      ignore (Sim.Ivar.read req.Virtio_blk.done_);
      blk_complete g;
      let lat = Sim.clock () -. t0 in
      if req.Virtio_blk.failed then Error (`Rejected lat) else Ok lat
    end
  end

let blk g ~op ~bytes_ =
  match blk_attempt g ~op ~bytes_ with
  | Ok lat | Error (`Busy lat) | Error (`Rejected lat) -> lat
  | Error `Limited -> 0.0

let blk_try g ~op ~bytes_ =
  match blk_attempt g ~op ~bytes_ with
  | Ok lat -> Ok lat
  | Error `Limited -> Error `Limited
  | Error (`Busy _) -> Error `Busy
  | Error (`Rejected _) -> Error `Rejected

let probe g () =
  match Virtio_net.probe g.net with
  | Error e -> Error e
  | Ok () -> (
    match Virtio_blk.probe g.blkdev with
    | Error e -> Error e
    | Ok () ->
      Ok
        (Virtio_pci.access_count (Virtio_net.pci g.net)
        + Virtio_pci.access_count (Virtio_blk.pci g.blkdev)))

let instance g ~kind ~spec ~memory ~exec_ns ~exec_mem_ns ~pause ~ipi ~timer_arm =
  let b = g.host in
  let xmit =
    match g.vf with None -> Virtio_net.xmit g.net ?indirect:None | Some vf -> vf_xmit g vf
  in
  let instance =
    {
      Instance.name = g.name;
      kind;
      spec;
      endpoint = g.endpoint;
      cores = g.cores;
      memory;
      os = g.os;
      exec_ns;
      exec_mem_ns;
      mem_stream = (fun ~bytes_ -> Memory.transfer memory ~bytes_);
      send = send g xmit;
      send_dpdk = send_dpdk g xmit;
      set_rx_handler = (fun h -> g.rx_handler <- h);
      blk = blk g;
      blk_try = blk_try g;
      probe = probe g;
      pause;
      ipi;
      set_poll_mode = (fun p -> g.poll_mode <- p);
      timer_arm;
    }
  in
  b.guests <- (g.name, g) :: b.guests;
  (* Post the initial rx buffers. *)
  Sim.spawn b.sim (fun () -> refill g);
  instance

(* Hot-unplug drains the VF's in-flight work on the agenda before
   returning it to the pool; the endpoint leaves the vswitch at once, so
   bursts still addressed to it are unknown-destination drops. *)
let release b ~name =
  match List.assoc_opt name b.guests with
  | None -> ()
  | Some g ->
    Option.iter (fun vf -> Sim.spawn b.sim (fun () -> Vf.detach vf)) g.vf;
    Vswitch.unregister b.vswitch g.endpoint;
    b.guests <- List.remove_assoc name b.guests

let rx_drops b ~name = match List.assoc_opt name b.guests with Some g -> g.rx_drops | None -> 0

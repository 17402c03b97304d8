open Bm_engine
open Bm_hw
open Bm_virtio
open Bm_iobond
open Bm_cloud
open Bm_guest

type params = { pmd_pkt_ns : float; pmd_blk_ns : float; bm_cpu_bonus : float }

let default_params = { pmd_pkt_ns = 220.0; pmd_blk_ns = 1_800.0; bm_cpu_bonus = 0.04 }

type bridge_controls = { bridge_pause : unit -> unit; bridge_resume : unit -> unit }

type guest_state = {
  instance : Instance.t;
  board : Board.t;
  rx_drops : int ref;
  bridges : bridge_controls list;
  offload : Offload.t option;
  rekick : unit -> unit; (* re-arm backend work hints after a respawn *)
  mutable backend_version : int;
  datapath : Vf.datapath; (* the net path this guest actually got *)
  vf : Vf.vf option;
}

type server = {
  sim : Sim.t;
  rng : Rng.t;
  params : params;
  batch : int;
  profile : Profile.t;
  base_cores : Cores.t;
  vswitch : Vswitch.t;
  storage : Blockstore.t;
  board_pool : Board.t array;
  obs : Obs.t;
  fault : Fault.t;
  pmd_alive : bool ref;
  mutable pmd_crashes : int;
  mutable guests : (string * guest_state) list;
  vf_total : int;
  vf_queues : int;
  mutable vf_pool : Vf.dev option; (* created on first VF attachment *)
  mutable vf_fallbacks : int;
}

let create_server ?(obs = Obs.none) ?(fault = Fault.none) sim rng ~fabric ~storage
    ?(profile = Profile.Fpga) ?(board_spec = Cpu_spec.xeon_e5_2682_v4) ?(board_mem_gb = 64)
    ?(boards = 8) ?dma_gbit_s ?(params = default_params) ?(batch = 1) ?(vfs = 8)
    ?(vf_queues = 2) () =
  if boards < 1 || boards > 16 then invalid_arg "Bm_hypervisor: 1..16 boards per server (§3.3)";
  if batch < 1 then invalid_arg "Bm_hypervisor: batch must be >= 1";
  if vfs < 1 then invalid_arg "Bm_hypervisor: vfs must be >= 1";
  if vf_queues < 1 then invalid_arg "Bm_hypervisor: vf_queues must be >= 1";
  let base_cores = Cores.create sim ~spec:Cpu_spec.base_server_e5 () in
  let t =
    {
      sim;
      rng;
      params;
      batch;
      profile;
      base_cores;
      vswitch = Vswitch.create ~obs sim ~fabric ~cores:base_cores ();
      storage;
      board_pool =
        Array.init boards (fun id ->
            Board.create ~obs ~fault sim ~id ~spec:board_spec ~mem_gb:board_mem_gb ~profile
              ?dma_gbit_s ());
      obs;
      fault;
      pmd_alive = ref true;
      pmd_crashes = 0;
      guests = [];
      vf_total = vfs;
      vf_queues;
      vf_pool = None;
      vf_fallbacks = 0;
    }
  in
  (* The per-guest backend processes are ordinary user-space processes:
     a crash kills them and the supervisor respawns them after the
     event's dead-time. Queue state lives in the shadow vrings, so the
     respawned process drains from exactly where its predecessor
     stopped; the rekick replays each guest's work hints. *)
  Fault.subscribe fault Fault.Pmd_crash (fun ev ->
      if !(t.pmd_alive) then begin
        t.pmd_alive := false;
        t.pmd_crashes <- t.pmd_crashes + 1;
        Metrics.incr_opt (Obs.metrics obs) "hyp.bm.pmd_crashes";
        Trace.instant_opt (Obs.trace obs) ~track:"hyp.bm" "pmd_crash" ~now:(Sim.now sim);
        Sim.schedule sim ~delay:ev.Fault.duration_ns (fun () ->
            t.pmd_alive := true;
            Metrics.incr_opt (Obs.metrics obs) "hyp.bm.pmd_respawns";
            Trace.instant_opt (Obs.trace obs) ~track:"hyp.bm" "pmd_respawn" ~now:(Sim.now sim);
            List.iter (fun (_, g) -> g.rekick ()) t.guests)
      end);
  t

let vswitch t = t.vswitch
let base_cores t = t.base_cores
let boards t = t.board_pool
let profile t = t.profile

let free_boards t =
  Array.fold_left (fun acc b -> if Board.power b = Board.Off then acc + 1 else acc) 0 t.board_pool

(* The server's SR-IOV pool is created on first use, so a fleet that
   never asks for a VF datapath schedules exactly the events it always
   did — seed behaviour is bit-identical. *)
let vf_pool_dev t =
  match t.vf_pool with
  | Some d -> d
  | None ->
    let d =
      Vf.create_device ~obs:t.obs ~fault:t.fault t.sim ~profile:t.profile ~vfs:t.vf_total
        ~queues_per_vf:t.vf_queues ()
    in
    t.vf_pool <- Some d;
    d

let vf_capacity t = t.vf_total
let vf_free t = match t.vf_pool with None -> t.vf_total | Some d -> Vf.free_vfs d
let vf_fallbacks t = t.vf_fallbacks
let vf_pool_device t = t.vf_pool

(* Net rings sized like a multiqueue device (8 queues x 256). *)
let net_queue_size = 2048
let rx_buffer_target = 1536

(* Per-guest backend queues are bounded: the rx backlog holds bursts
   delivered by the vswitch that the PMD has not yet pumped into guest
   buffers (drop-tail, like a real NIC queue), and work hints coalesce
   into a single pending doorbell. *)
let rx_backlog_capacity = 512

(* Poll-loop iteration period of the batched backend drain. At
   [batch = 1] the drain is purely hint-driven (zero simulated cost,
   bit-identical to the historical schedule); at [batch > 1] the
   backend behaves like a real poll-mode driver instead: it sleeps one
   tick between bursts, which is what lets descriptors accumulate into
   bursts worth coalescing. *)
let poll_tick_ns = 1_000.0

(* Backend fibers park here while their process is dead; the poll
   period only costs anything during a crash window. *)
let wait_pmd_alive t =
  while not !(t.pmd_alive) do
    Sim.delay 10_000.0
  done

let provision t ~name ?(net_limits = Limits.cloud_net ()) ?(blk_limits = Limits.cloud_blk ())
    ?(offload = false) ?(datapath = Vf.Vring) () =
  if List.mem_assoc name t.guests then Error (name ^ " already provisioned")
  else
    match Array.find_opt (fun b -> Board.power b = Board.Off) t.board_pool with
    | None -> Error "no free compute board"
    | Some board ->
      Board.power_on board;
      let sim = t.sim in
      let p = t.params in
      let os = Guest_os.default in
      let spec = Board.spec board in
      let cores = Board.cores board in
      let memory = Board.memory board in
      let tlb = Tlb.create () in
      let iobond = Board.iobond board in
      let net_port = Iobond.attach_net iobond ~queue_size:net_queue_size () in
      let blk_port = Iobond.attach_blk iobond () in
      let net = net_port.Iobond.net_device in
      let blkdev = blk_port.Iobond.blk_device in
      let rx_handler = ref (fun (_ : Packet.t) -> ()) in
      let rx_drops = ref 0 in
      let poll_mode = ref false in
      let offload_table = if offload then Some (Offload.create ()) else None in

      (* SR-IOV attachment: passthrough gets a whole device to itself,
         a slice comes from the server's shared pool; an exhausted pool
         falls back to the shadow-vring path (the scheduler's failover)
         and the fallback is counted, not silent. *)
      let vf_attached =
        match datapath with
        | Vf.Vring -> None
        | Vf.Passthrough ->
          let dev =
            Vf.create_device ~obs:t.obs ~fault:t.fault sim ~profile:t.profile ~vfs:1
              ~queues_per_vf:t.vf_queues ()
          in
          (match Vf.attach dev ~owner:name () with Ok vf -> Some vf | Error _ -> None)
        | Vf.Sliced -> (
          match Vf.attach (vf_pool_dev t) ~owner:name () with
          | Ok vf -> Some vf
          | Error _ ->
            t.vf_fallbacks <- t.vf_fallbacks + 1;
            Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.vf_fallbacks";
            None)
      in
      let effective_datapath = if Option.is_none vf_attached then Vf.Vring else datapath in

      (* Guest-side interrupt handlers: genuine MSIs, no exits. *)
      Virtio_net.set_interrupt net (fun () ->
          Sim.spawn sim (fun () ->
              (* Interrupt context preempts: it does not queue behind
                 saturated application threads. *)
              if !poll_mode then Sim.delay 500.0 (* PMD poll pickup *)
              else Sim.delay os.Guest_os.irq_entry_ns;
              ignore (Virtio_net.reap_tx net);
              let pkts = Virtio_net.reap_rx net in
              if Virtio_net.refill_rx net ~target:rx_buffer_target > 0 then
                Queue_bridge.guest_notify net_port.Iobond.net_rx;
              List.iter
                (fun pkt ->
                  let count = pkt.Packet.count in
                  let stack_ns =
                    if !poll_mode then Guest_os.dpdk_rx_ns_of os ~count
                    else Guest_os.net_rx_ns os ~kind:pkt.Packet.protocol ~count
                  in
                  Cores.execute_ns cores stack_ns;
                  !rx_handler pkt)
                pkts));
      Virtio_blk.set_interrupt blkdev (fun () ->
          Sim.spawn sim (fun () ->
              Sim.delay os.Guest_os.irq_entry_ns;
              ignore (Virtio_blk.reap blkdev)));

      (* The bm-hypervisor's device glue talks vhost-user to the cloud
         backends, same as the vm path (§3.4.2). *)
      let bring_up features =
        let backend = Vhost_user.create ~backend_features:features () in
        match Vhost_user.standard_handshake backend ~driver_features:features with
        | Ok () -> backend
        | Error e -> failwith ("vhost-user handshake failed: " ^ e)
      in
      let _vhost_net = bring_up Feature.default_net in
      let _vhost_blk = bring_up Feature.default_blk in
      (* Per-guest bm-hypervisor backend process: net tx. The hint queue
         has capacity 1: a doorbell rung while one is already pending
         coalesces into it (the drain loop will see the new work). *)
      let tx_hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail () in
      Queue_bridge.set_work_hint net_port.Iobond.net_tx (fun () ->
          ignore (Sim.Bounded.send tx_hint ()));
      (* One tx request: an offloaded flow never touches the base cores —
         the FPGA pipeline forwards it into the fabric (S6). *)
      let process_tx req =
        let pkt = req.Queue_bridge.payload in
        match Option.map (fun ot -> (ot, Offload.classify ot pkt)) offload_table with
        | Some (_, `Offloaded) ->
          Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.offload_hits";
          Sim.delay (Offload.fpga_forward_ns *. float_of_int pkt.Packet.count);
          Queue_bridge.complete net_port.Iobond.net_tx req ~written:0 ();
          Queue_bridge.flush net_port.Iobond.net_tx;
          Vswitch.forward_hw t.vswitch pkt
        | Some (ot, `Slow_path) ->
          Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.offload_misses";
          Metrics.mark_n_opt (Obs.metrics t.obs) ~n:pkt.Packet.count "hyp.bm.pmd_pkts"
            ~now:(Sim.now sim);
          Cores.execute_ns t.base_cores (p.pmd_pkt_ns *. float_of_int pkt.Packet.count);
          Offload.install ot pkt;
          Queue_bridge.complete net_port.Iobond.net_tx req ~written:0 ();
          Queue_bridge.flush net_port.Iobond.net_tx;
          Vswitch.send t.vswitch pkt
        | None ->
          Metrics.mark_n_opt (Obs.metrics t.obs) ~n:pkt.Packet.count "hyp.bm.pmd_pkts"
            ~now:(Sim.now sim);
          Cores.execute_ns t.base_cores (p.pmd_pkt_ns *. float_of_int pkt.Packet.count);
          Queue_bridge.complete net_port.Iobond.net_tx req ~written:0 ();
          Queue_bridge.flush net_port.Iobond.net_tx;
          Vswitch.send t.vswitch pkt
      in
      Sim.spawn sim (fun () ->
          let rec loop () =
            Sim.Bounded.recv tx_hint;
            wait_pmd_alive t;
            (* Bursts fan out to PMD workers (multiqueue), one worker
               fiber — one host-side event — per poll-tick burst of up
               to [t.batch] descriptors (at the default batch of 1 this
               is the historical one-event-per-descriptor schedule). *)
            let rec drain () =
              match Queue_bridge.pop_batch net_port.Iobond.net_tx ~max:t.batch with
              | [] -> ()
              | reqs ->
                Sim.fork (fun () -> List.iter process_tx reqs);
                if t.batch > 1 then Sim.delay poll_tick_ns;
                drain ()
            in
            if t.batch > 1 then Sim.delay poll_tick_ns;
            drain ();
            loop ()
          in
          loop ());

      (* Net rx: vswitch delivery into a bounded backlog, then into posted
         guest buffers. A backlog overflow is a NIC-queue drop. *)
      let rx_chan =
        Sim.Bounded.create ~capacity:rx_backlog_capacity ~policy:Sim.Bounded.Drop_tail ()
      in
      Obs.watch_bounded t.obs ~track:"hyp.bm.rx_backlog" rx_chan;
      let endpoint =
        match vf_attached with
        | None ->
          Vswitch.register t.vswitch ~deliver:(fun pkt -> ignore (Sim.Bounded.send rx_chan pkt))
        | Some vf ->
          (* Direct assignment: the device DMAs into guest buffers and
             interrupts the guest itself — the PMD never sees the
             packet. A ring-full or mid-reassignment window is a NIC
             drop, same as the vring path's backlog overflow. *)
          let rxq = ref 0 in
          Vswitch.register t.vswitch ~deliver:(fun pkt ->
              let q = !rxq in
              rxq := (q + 1) mod Vf.queues vf;
              let deliver _c =
                Sim.spawn sim (fun () ->
                    if !poll_mode then Sim.delay 500.0 (* PMD poll pickup *)
                    else Sim.delay os.Guest_os.irq_entry_ns;
                    let count = pkt.Packet.count in
                    let stack_ns =
                      if !poll_mode then Guest_os.dpdk_rx_ns_of os ~count
                      else Guest_os.net_rx_ns os ~kind:pkt.Packet.protocol ~count
                    in
                    Cores.execute_ns cores stack_ns;
                    !rx_handler pkt)
              in
              match Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver with
              | `Submitted _ -> ()
              | `Rejected ->
                rx_drops := !rx_drops + pkt.Packet.count;
                Metrics.incr_int_opt (Obs.metrics t.obs) ~by:pkt.Packet.count "hyp.bm.rx_drops")
      in
      let process_rx pkt =
        Cores.execute_ns t.base_cores (p.pmd_pkt_ns *. float_of_int pkt.Packet.count);
        match Queue_bridge.pop net_port.Iobond.net_rx with
        | Some req ->
          Queue_bridge.complete net_port.Iobond.net_rx req ~payload:pkt
            ~written:pkt.Packet.size ();
          Queue_bridge.flush net_port.Iobond.net_rx
        | None ->
          rx_drops := !rx_drops + pkt.Packet.count;
          Metrics.incr_int_opt (Obs.metrics t.obs) ~by:pkt.Packet.count
            "hyp.bm.rx_drops"
      in
      Sim.spawn sim (fun () ->
          let rec loop () =
            let pkt = Sim.Bounded.recv rx_chan in
            wait_pmd_alive t;
            (* Opportunistically drain the backlog burst behind the first
               packet (never blocking), one worker fiber per burst. At
               batch > 1, wait out a poll tick first so the burst has
               arrivals to coalesce. *)
            if t.batch > 1 then Sim.delay poll_tick_ns;
            let rec burst n acc =
              if n >= t.batch then List.rev acc
              else
                match Sim.Bounded.try_recv rx_chan with
                | Some p -> burst (n + 1) (p :: acc)
                | None -> List.rev acc
            in
            let pkts = pkt :: burst 1 [] in
            Sim.fork (fun () -> List.iter process_rx pkts);
            loop ()
          in
          loop ());

      (* Blk backend: SPDK-style, one in-flight task per request. *)
      let blk_hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail () in
      Queue_bridge.set_work_hint blk_port.Iobond.blk_queue (fun () ->
          ignore (Sim.Bounded.send blk_hint ()));
      let process_blk req =
        let vreq = req.Queue_bridge.payload in
        Trace.begin_span_opt (Obs.trace t.obs) ~track:"hyp.bm" "blk_request"
          ~now:(Sim.now sim);
        Cores.execute_ns t.base_cores p.pmd_blk_ns;
        let op =
          match vreq.Virtio_blk.op with
          | Virtio_blk.Read -> `Read
          | Virtio_blk.Write -> `Write
          | Virtio_blk.Flush -> `Flush
        in
        (match Blockstore.serve t.storage ~op ~bytes_:vreq.Virtio_blk.bytes with
        | `Served -> ()
        | `Rejected ->
          (* Storage admission queue full: complete the request
             with an error status so the guest can retry. *)
          vreq.Virtio_blk.failed <- true;
          Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.blk_rejected");
        Trace.end_span_opt (Obs.trace t.obs) ~track:"hyp.bm" "blk_request" ~now:(Sim.now sim);
        let written =
          match vreq.Virtio_blk.op with
          | Virtio_blk.Read -> vreq.Virtio_blk.bytes + 1
          | Virtio_blk.Write | Virtio_blk.Flush -> 1
        in
        Queue_bridge.complete blk_port.Iobond.blk_queue req ~written ();
        Queue_bridge.flush blk_port.Iobond.blk_queue
      in
      Sim.spawn sim (fun () ->
          let rec loop () =
            Sim.Bounded.recv blk_hint;
            wait_pmd_alive t;
            let rec drain () =
              match Queue_bridge.pop_batch blk_port.Iobond.blk_queue ~max:t.batch with
              | [] -> ()
              | reqs ->
                Sim.fork (fun () -> List.iter process_blk reqs);
                if t.batch > 1 then Sim.delay poll_tick_ns;
                drain ()
            in
            if t.batch > 1 then Sim.delay poll_tick_ns;
            drain ();
            loop ()
          in
          loop ());

      (* Native execution, with the paper's ~4% board bonus. *)
      let cpu_factor = 1.0 /. (1.0 +. p.bm_cpu_bonus) in
      let exec_ns natural = Cores.execute_ns cores (natural *. cpu_factor) in
      let exec_mem_ns ~working_set ~locality natural =
        (* Native single-level page walks — no EPT on bare metal. *)
        let factor = Ept.dilation_factor tlb ~virtualized:false ~working_set ~locality in
        Cores.execute_ns cores (natural *. cpu_factor *. factor)
      in
      (* A doorbell to IO-Bond is an uncached MMIO store to the FPGA BAR:
         ~300 ns of CPU stall per kick (a vm kick is a plain store into
         shared memory). *)
      let doorbell_cpu_ns = 300.0 in
      let net_shed pkt =
        Metrics.incr_int_opt (Obs.metrics t.obs) ~by:pkt.Packet.count
          "hyp.bm.net_shed";
        false
      in
      let send pkt =
        Cores.execute_ns cores
          (Guest_os.net_tx_ns os ~kind:pkt.Packet.protocol ~count:pkt.Packet.count
          +. doorbell_cpu_ns);
        if Limits.net_admit net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size then
          Virtio_net.xmit net pkt
        else net_shed pkt
      in
      let send_dpdk pkt =
        Cores.execute_ns cores
          (Guest_os.dpdk_tx_ns_of os ~count:pkt.Packet.count +. doorbell_cpu_ns);
        if Limits.net_admit net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size then
          Virtio_net.xmit net pkt
        else net_shed pkt
      in
      (* On a VF datapath the doorbell rings the device directly: the
         descriptor streams at the VF's arbitrated DMA share and the
         device forwards it into the fabric in hardware — the poll loop
         and the base cores are skipped entirely. *)
      let send, send_dpdk =
        match vf_attached with
        | None -> (send, send_dpdk)
        | Some vf ->
          let txq = ref 0 in
          let vf_xmit pkt =
            let q = !txq in
            txq := (q + 1) mod Vf.queues vf;
            match
              Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver:(fun _ ->
                  Vswitch.forward_hw t.vswitch pkt)
            with
            | `Submitted _ -> true
            | `Rejected ->
              Metrics.incr_int_opt (Obs.metrics t.obs) ~by:pkt.Packet.count "hyp.bm.vf_tx_rejects";
              false
          in
          ( (fun pkt ->
              Cores.execute_ns cores
                (Guest_os.net_tx_ns os ~kind:pkt.Packet.protocol ~count:pkt.Packet.count
                +. doorbell_cpu_ns);
              if Limits.net_admit net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size
              then vf_xmit pkt
              else net_shed pkt),
            fun pkt ->
              Cores.execute_ns cores
                (Guest_os.dpdk_tx_ns_of os ~count:pkt.Packet.count +. doorbell_cpu_ns);
              if Limits.net_admit net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size
              then vf_xmit pkt
              else net_shed pkt )
      in
      let blk_attempt ~op ~bytes_ =
        Cores.execute_ns cores os.Guest_os.blk_submit_ns;
        if not (Limits.blk_admit blk_limits ~bytes_) then begin
          Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.blk_shed";
          Cores.execute_ns cores os.Guest_os.blk_complete_ns;
          Error `Limited
        end
        else begin
          (* Completion latency (fio's clat): measured after admission. *)
          let t0 = Sim.clock () in
          let vop =
            match op with
            | `Read -> Virtio_blk.Read
            | `Write -> Virtio_blk.Write
            | `Flush -> Virtio_blk.Flush
          in
          let req = Virtio_blk.make_req ~op:vop ~sector:0 ~bytes:bytes_ ~now:(Sim.clock ()) in
          if not (Virtio_blk.submit blkdev req) then begin
            Sim.delay 1_000.0;
            Cores.execute_ns cores os.Guest_os.blk_complete_ns;
            Error (`Busy (Sim.clock () -. t0))
          end
          else begin
            ignore (Sim.Ivar.read req.Virtio_blk.done_);
            Cores.execute_ns cores os.Guest_os.blk_complete_ns;
            let lat = Sim.clock () -. t0 in
            if req.Virtio_blk.failed then Error (`Rejected lat) else Ok lat
          end
        end
      in
      let blk ~op ~bytes_ =
        match blk_attempt ~op ~bytes_ with
        | Ok lat | Error (`Busy lat) | Error (`Rejected lat) -> lat
        | Error `Limited -> 0.0
      in
      let blk_try ~op ~bytes_ =
        match blk_attempt ~op ~bytes_ with
        | Ok lat -> Ok lat
        | Error `Limited -> Error `Limited
        | Error (`Busy _) -> Error `Busy
        | Error (`Rejected _) -> Error `Rejected
      in
      let probe () =
        match Virtio_net.probe net with
        | Error e -> Error e
        | Ok () -> (
          match Virtio_blk.probe blkdev with
          | Error e -> Error e
          | Ok () ->
            Ok
              (Virtio_pci.access_count (Virtio_net.pci net)
              + Virtio_pci.access_count (Virtio_blk.pci blkdev)))
      in
      let instance =
        {
          Instance.name;
          kind = Instance.Bare_metal t.profile;
          spec;
          endpoint;
          cores;
          memory;
          os;
          exec_ns;
          exec_mem_ns;
          mem_stream = (fun ~bytes_ -> Memory.transfer memory ~bytes_);
          send;
          send_dpdk;
          set_rx_handler = (fun h -> rx_handler := h);
          blk;
          blk_try;
          probe;
          pause = (fun () -> ());
          ipi = (fun () -> Cores.execute_ns cores 1_000.0);
          set_poll_mode = (fun b -> poll_mode := b);
          timer_arm = (fun () -> Cores.execute_ns cores 100.0);
        }
      in
      let controls q =
        {
          bridge_pause = (fun () -> Queue_bridge.pause q);
          bridge_resume = (fun () -> Queue_bridge.resume q);
        }
      in
      let bridges =
        [
          controls net_port.Iobond.net_tx;
          controls net_port.Iobond.net_rx;
          { bridge_pause = (fun () -> Queue_bridge.pause blk_port.Iobond.blk_queue);
            bridge_resume = (fun () -> Queue_bridge.resume blk_port.Iobond.blk_queue) };
        ]
      in
      let rekick () =
        if Queue_bridge.pending net_port.Iobond.net_tx > 0 then
          ignore (Sim.Bounded.send tx_hint ());
        if Queue_bridge.pending blk_port.Iobond.blk_queue > 0 then
          ignore (Sim.Bounded.send blk_hint ())
      in
      t.guests <-
        ( name,
          {
            instance;
            board;
            rx_drops;
            bridges;
            offload = offload_table;
            rekick;
            backend_version = 1;
            datapath = effective_datapath;
            vf = vf_attached;
          } )
        :: t.guests;
      (* Post the initial rx buffers and mirror them into the shadow ring. *)
      Sim.spawn sim (fun () ->
          if Virtio_net.refill_rx net ~target:rx_buffer_target > 0 then
            Queue_bridge.guest_notify net_port.Iobond.net_rx);
      Ok instance

let release t ~name =
  match List.assoc_opt name t.guests with
  | None -> ()
  | Some state ->
    (* Hot-unplug drains the VF's in-flight work on the agenda before
       returning it to the pool; the board frees immediately. *)
    (match state.vf with
    | Some vf -> Sim.spawn t.sim (fun () -> Vf.detach vf)
    | None -> ());
    Board.power_off state.board;
    t.guests <- List.remove_assoc name t.guests

let guest_datapath t ~name =
  Option.map (fun s -> s.datapath) (List.assoc_opt name t.guests)

let guest_vf t ~name = Option.bind (List.assoc_opt name t.guests) (fun s -> s.vf)

let guest_board t ~name = Option.map (fun s -> s.board) (List.assoc_opt name t.guests)

let rx_no_buffer_drops t ~name =
  match List.assoc_opt name t.guests with Some s -> !(s.rx_drops) | None -> 0

let offload_table t ~name =
  match List.assoc_opt name t.guests with Some s -> s.offload | None -> None

let backend_version t ~name =
  match List.assoc_opt name t.guests with Some s -> s.backend_version | None -> 0

let pmd_alive t = !(t.pmd_alive)
let pmd_crashes t = t.pmd_crashes

(* Orthus-style live upgrade (§6): the bm-hypervisor is an ordinary
   user-space process per guest and all queue state lives in the shared
   shadow vrings, so upgrading is: pause the bridges, let the new
   process map the rings (the handover blackout), bump the version,
   resume. Requests issued during the blackout accumulate in the shadow
   rings and are drained on resume; the guest never notices beyond a
   latency blip. Must be called from a simulation process. *)
let live_upgrade t ~name ?(handover_ns = 200_000.0) () =
  match List.assoc_opt name t.guests with
  | None -> Error (name ^ " not provisioned")
  | Some state ->
    Trace.begin_span_opt (Obs.trace t.obs) ~track:"hyp.bm" "live_upgrade" ~now:(Sim.now t.sim);
    List.iter (fun b -> b.bridge_pause ()) state.bridges;
    Sim.delay handover_ns;
    state.backend_version <- state.backend_version + 1;
    List.iter (fun b -> b.bridge_resume ()) state.bridges;
    Trace.end_span_opt (Obs.trace t.obs) ~track:"hyp.bm" "live_upgrade" ~now:(Sim.now t.sim);
    Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.live_upgrades";
    Ok state.backend_version

open Bm_engine
open Bm_hw
open Bm_virtio
open Bm_cloud
open Bm_guest
module Vf = Bm_iobond.Vf

type params = {
  cpu_overhead : float;
  mem_tax : float;
  vhost_pkt_ns : float;
  vblk_req_ns : float;
  vblk_sched_ns : float;
  vblk_hiccup_p : float;
  vblk_hiccup_scale_ns : float;
  copy_gb_s : float;
  injection_ns : float;
}

(* cpu_overhead 1.5%: background exits + world switches leave SPEC-class
   work ~2-4% slower together with the EPT term (§4.2). mem_tax 2%: the
   vm-guest reaches ~98% of bm STREAM bandwidth under load. vhost/vblk
   costs are DPDK/SPDK-class. copy_gb_s: one CPU core's memcpy rate —
   the extra storage copies the bm path avoids (§4.3). *)
(* copy_gb_s: effective end-to-end rate of the vm block data path's CPU
   copies (two crossings plus per-segment block-layer work — well below
   a raw memcpy). The bm path moves the same bytes with IO-Bond's DMA
   engine instead, which is the §4.3 claim that unrestricted local-SSD
   bandwidth doubles on bare metal. *)
(* vblk_sched_ns: unlike the bm path (IO-Bond DMA straight into the
   device queue, §4.3), a vm request traverses the host block layer and
   the vhost event loop twice; eventfd wake-ups and completion softirqs
   add tens of microseconds of scheduling latency. This is the term
   behind Fig. 11's ~25% average gap. *)
let default_params =
  {
    cpu_overhead = 0.015;
    mem_tax = 0.02;
    vhost_pkt_ns = 200.0;
    vblk_req_ns = 2_500.0;
    vblk_sched_ns = 30_000.0;
    vblk_hiccup_p = 0.002;
    vblk_hiccup_scale_ns = 300_000.0;
    copy_gb_s = 2.2;
    injection_ns = 3_000.0;
  }

type vm = {
  instance : Instance.t;
  exits : Vmexit.counters;
  preempt : Preempt.t;
  rekick : unit -> unit; (* re-arm backend work hints after a respawn *)
  vm_datapath : Vf.datapath;
  vm_vf : Vf.vf option;
}

type host = {
  sim : Sim.t;
  rng : Rng.t;
  spec : Cpu_spec.t;
  params : params;
  batch : int;
  service_cores : Cores.t;
  vswitch : Vswitch.t;
  storage : Blockstore.t;
  total_threads : int;
  obs : Obs.t;
  vhost_alive : bool ref;
  mutable provisioned_threads : int;
  mutable vms : (string * vm) list;
  fault : Fault.t;
  vf_total : int;
  vf_queues : int;
  mutable vf_pool : Vf.dev option; (* created on first VFIO attachment *)
  mutable vf_fallbacks : int;
}

let reserved_threads = 8

(* Bounded per-VM rx backlog between vswitch delivery and the vhost
   pump, mirroring the bm path's NIC-queue bound. *)
let rx_backlog_capacity = 512

let create_host ?(obs = Obs.none) ?(fault = Fault.none) sim rng ~fabric ~storage
    ?(spec = Cpu_spec.xeon_e5_2682_v4) ?(sockets = 2) ?(params = default_params) ?(batch = 1)
    ?(vfs = 8) ?(vf_queues = 2) () =
  if batch < 1 then invalid_arg "Kvm.create_host: batch must be >= 1";
  if vfs < 1 then invalid_arg "Kvm.create_host: vfs must be >= 1";
  if vf_queues < 1 then invalid_arg "Kvm.create_host: vf_queues must be >= 1";
  let total = sockets * spec.Cpu_spec.threads in
  let service_cores = Cores.create sim ~spec ~threads:reserved_threads () in
  let host =
    {
      sim;
      rng;
      spec;
      params;
      batch;
      service_cores;
      vswitch = Vswitch.create ~obs sim ~fabric ~cores:service_cores ();
      storage;
      total_threads = total - reserved_threads;
      obs;
      vhost_alive = ref true;
      provisioned_threads = 0;
      vms = [];
      fault;
      vf_total = vfs;
      vf_queues;
      vf_pool = None;
      vf_fallbacks = 0;
    }
  in
  (* The vhost worker threads die and respawn just like the bm path's
     PMD processes, so goodput-under-faults compares like with like.
     Ring state is shared memory; the respawned workers drain from where
     the rings left off. *)
  Fault.subscribe fault Fault.Pmd_crash (fun ev ->
      if !(host.vhost_alive) then begin
        host.vhost_alive := false;
        Metrics.incr_opt (Obs.metrics obs) "hyp.vm.vhost_crashes";
        Sim.schedule sim ~delay:ev.Fault.duration_ns (fun () ->
            host.vhost_alive := true;
            Metrics.incr_opt (Obs.metrics obs) "hyp.vm.vhost_respawns";
            List.iter (fun (_, vm) -> vm.rekick ()) host.vms)
      end);
  host

let wait_vhost_alive host =
  while not !(host.vhost_alive) do
    Sim.delay 10_000.0
  done

(* Poll-loop iteration period of the batched vhost drain (see
   Bm_hypervisor.poll_tick_ns): at [batch > 1] the worker sleeps one
   tick between bursts so descriptors accumulate into them; at the
   default of 1 the drain stays hint-driven and bit-identical. *)
let poll_tick_ns = 1_000.0

let vswitch host = host.vswitch
let sellable_threads host = host.total_threads
let service_cores host = host.service_cores

(* The host's VFIO-capable SR-IOV NIC: a commodity ASIC part, created
   on first use so vring-only hosts schedule exactly the events they
   always did. *)
let vf_pool_dev host =
  match host.vf_pool with
  | Some d -> d
  | None ->
    let d =
      Vf.create_device ~obs:host.obs ~fault:host.fault host.sim
        ~profile:Bm_iobond.Profile.Asic ~vfs:host.vf_total ~queues_per_vf:host.vf_queues ()
    in
    host.vf_pool <- Some d;
    d

let vf_capacity host = host.vf_total
let vf_free host = match host.vf_pool with None -> host.vf_total | Some d -> Vf.free_vfs d
let vf_fallbacks host = host.vf_fallbacks
let vf_pool_device host = host.vf_pool

type vm_config = {
  name : string;
  vcpus : int;
  mem_gb : int;
  pinning : Preempt.mode;
  host_load : float;
  net_limits : Limits.net;
  blk_limits : Limits.blk;
  nested : bool;
  halt_polling : bool;
  datapath : Vf.datapath;
}

let default_config ~name =
  {
    name;
    vcpus = 32;
    mem_gb = 64;
    pinning = Preempt.Exclusive;
    host_load = 0.5;
    net_limits = Limits.cloud_net ();
    blk_limits = Limits.cloud_blk ();
    nested = false;
    halt_polling = true;
    datapath = Vf.Vring;
  }

let create_vm host config =
  if config.vcpus > host.total_threads - host.provisioned_threads then
    invalid_arg "Kvm.create_vm: host out of sellable threads";
  host.provisioned_threads <- host.provisioned_threads + config.vcpus;
  let sim = host.sim in
  let p = host.params in
  let os = Guest_os.default in
  let spec = host.spec in
  let exits =
    Vmexit.create_counters ~obs:host.obs ~track:("hyp.vmexit." ^ config.name) ()
  in
  let preempt =
    Preempt.create ~obs:host.obs sim (Rng.split host.rng) ~mode:config.pinning
      ~host_load:config.host_load ()
  in
  let vm_rng = Rng.split host.rng in
  let poll_mode = ref false in
  let guest_cores = Cores.create sim ~spec ~threads:config.vcpus () in
  let memory = Memory.of_spec sim spec in
  Memory.set_tax memory p.mem_tax;
  let tlb = Tlb.create () in
  (* Trapped-and-emulated config accesses: each costs a full exit. *)
  let on_access () =
    Vmexit.record exits Vmexit.Io_instruction;
    Sim.delay (Vmexit.handle_ns Vmexit.Io_instruction)
  in
  (* Net rings sized like a multiqueue device (8 queues x 256). *)
  let net = Virtio_net.create ~obs:host.obs ~queue_size:2048 ~on_access () in
  let blkdev = Virtio_blk.create ~obs:host.obs ~on_access () in
  (* The vhost-user backends come up through the real control protocol
     before any descriptor moves (§3.4.2). *)
  let bring_up features =
    let backend = Vhost_user.create ~backend_features:features () in
    match Vhost_user.standard_handshake backend ~driver_features:features with
    | Ok () -> backend
    | Error e -> invalid_arg ("vhost-user handshake failed: " ^ e)
  in
  let _vhost_net = bring_up Feature.default_net in
  let _vhost_blk = bring_up Feature.default_blk in
  (* Work hints coalesce: capacity 1, a kick rung while one is pending
     folds into it (the drain loop will see the new work anyway). *)
  let tx_hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail () in
  let blk_hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail () in
  (* vhost-user PMD: kicks are doorbells into shared memory, no exit. *)
  Virtio_net.set_notify net
    ~tx:(fun () -> ignore (Sim.Bounded.send tx_hint ()))
    ~rx:(fun () -> ());
  Virtio_blk.set_notify blkdev (fun () -> ignore (Sim.Bounded.send blk_hint ()));
  let io_factor = if config.nested then 1.0 /. Nested.io_efficiency else 1.0 in
  let cpu_factor =
    (1.0 +. p.cpu_overhead) *. if config.nested then 1.0 /. Nested.cpu_efficiency else 1.0
  in
  let rx_handler = ref (fun (_ : Packet.t) -> ()) in

  (* Without halt polling, an idle vCPU has HLT-exited and been scheduled
     out: waking it for an injected interrupt costs a host scheduling
     round trip on top of the injection (the KVM halt_polling feature the
     paper's related work cites exists to avoid exactly this). *)
  let wake_ns () =
    if config.halt_polling then 0.0
    else begin
      Vmexit.record exits Vmexit.Hlt;
      25_000.0
    end
  in
  (* Guest-side completion handling: one injected interrupt costs the
     guest an exit/entry pair plus the kernel ISR, then the stack work. *)
  Virtio_net.set_interrupt net (fun () ->
      Sim.spawn sim (fun () ->
          (* Interrupt/injection context preempts the guest's threads:
             charge it as time, not as a queued core reservation. *)
          if !poll_mode then
            (* Guest PMD polls the rings: no injection, bypass stack. *)
            Sim.delay 500.0
          else begin
            Vmexit.record exits Vmexit.Interrupt_window;
            Sim.delay (wake_ns () +. ((p.injection_ns +. os.Guest_os.irq_entry_ns) *. io_factor))
          end;
          ignore (Virtio_net.reap_tx net);
          let pkts = Virtio_net.reap_rx net in
          ignore (Virtio_net.refill_rx net ~target:1536);
          List.iter
            (fun pkt ->
              let count = pkt.Packet.count in
              let stack_ns =
                if !poll_mode then Guest_os.dpdk_rx_ns_of os ~count
                else Guest_os.net_rx_ns os ~kind:pkt.Packet.protocol ~count
              in
              Cores.execute_ns guest_cores (stack_ns *. io_factor);
              !rx_handler pkt)
            pkts));
  Virtio_blk.set_interrupt blkdev (fun () ->
      Sim.spawn sim (fun () ->
          Vmexit.record exits Vmexit.Interrupt_window;
          Sim.delay (wake_ns () +. ((p.injection_ns +. os.Guest_os.irq_entry_ns) *. io_factor));
          ignore (Virtio_blk.reap blkdev)));

  (* vhost-net backend thread on the host service cores. *)
  Sim.spawn sim (fun () ->
      let process_tx pkt =
        Cores.execute_ns host.service_cores (p.vhost_pkt_ns *. float_of_int pkt.Packet.count);
        Vswitch.send host.vswitch pkt
      in
      let rec loop () =
        Sim.Bounded.recv tx_hint;
        wait_vhost_alive host;
        (* Bursts fan out to PMD workers, as multiqueue vhost does: the
           ring drains in poll-tick bursts of up to [host.batch] chains,
           one worker fiber (one host-side event) per burst. *)
        let rec drain () =
          let rec burst n acc =
            if n >= host.batch then List.rev acc
            else
              let ring = Virtio_net.tx_ring net in
              let head = Vring.pop_avail ring in
              if head < 0 then List.rev acc
              else begin
                let pkt = Vring.payload ring ~head in
                Vring.push_used ring ~head ~written:0;
                burst (n + 1) (pkt :: acc)
              end
          in
          match burst 0 [] with
          | [] -> ()
          | pkts ->
            Sim.fork (fun () -> List.iter process_tx pkts);
            if host.batch > 1 then Sim.delay poll_tick_ns;
            drain ()
        in
        if host.batch > 1 then Sim.delay poll_tick_ns;
        drain ();
        Virtio_net.fire_interrupt net;
        loop ()
      in
      loop ());

  (* VFIO direct assignment: passthrough pins a whole SR-IOV device to
     this VM, a slice attaches one VF of the host NIC; an exhausted
     pool falls back to the vhost path. Guest MMIO to the assigned
     device does not exit — that is the point of the comparison. *)
  let vf_attached =
    match config.datapath with
    | Vf.Vring -> None
    | Vf.Passthrough ->
      let dev =
        Vf.create_device ~obs:host.obs ~fault:host.fault sim
          ~profile:Bm_iobond.Profile.Asic ~vfs:1 ~queues_per_vf:host.vf_queues ()
      in
      (match Vf.attach dev ~owner:config.name () with Ok vf -> Some vf | Error _ -> None)
    | Vf.Sliced -> (
      match Vf.attach (vf_pool_dev host) ~owner:config.name () with
      | Ok vf -> Some vf
      | Error _ ->
        host.vf_fallbacks <- host.vf_fallbacks + 1;
        Metrics.incr_opt (Obs.metrics host.obs) "hyp.vm.vf_fallbacks";
        None)
  in

  (* Receive path: vswitch delivery -> bounded backlog -> rx ring ->
     injected interrupt. A backlog overflow is a NIC-queue drop. *)
  let rx_chan =
    Sim.Bounded.create ~capacity:rx_backlog_capacity ~policy:Sim.Bounded.Drop_tail ()
  in
  Obs.watch_bounded host.obs ~track:"hyp.vm.rx_backlog" rx_chan;
  let endpoint =
    match vf_attached with
    | None ->
      Vswitch.register host.vswitch ~deliver:(fun pkt -> ignore (Sim.Bounded.send rx_chan pkt))
    | Some vf ->
      (* The assigned device DMAs into guest memory and its MSI is
         injected directly; the vhost workers never see the packet. *)
      let rxq = ref 0 in
      Vswitch.register host.vswitch ~deliver:(fun pkt ->
          let q = !rxq in
          rxq := (q + 1) mod Vf.queues vf;
          let deliver _c =
            Sim.spawn sim (fun () ->
                if !poll_mode then Sim.delay 500.0
                else begin
                  Vmexit.record exits Vmexit.Interrupt_window;
                  Sim.delay
                    (wake_ns () +. ((p.injection_ns +. os.Guest_os.irq_entry_ns) *. io_factor))
                end;
                let count = pkt.Packet.count in
                let stack_ns =
                  if !poll_mode then Guest_os.dpdk_rx_ns_of os ~count
                  else Guest_os.net_rx_ns os ~kind:pkt.Packet.protocol ~count
                in
                Cores.execute_ns guest_cores (stack_ns *. io_factor);
                !rx_handler pkt)
          in
          match Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver with
          | `Submitted _ -> ()
          | `Rejected ->
            Metrics.incr_int_opt (Obs.metrics host.obs) ~by:pkt.Packet.count "hyp.vm.rx_drops")
  in
  Sim.spawn sim (fun () ->
      let process_rx pkt =
        Cores.execute_ns host.service_cores (p.vhost_pkt_ns *. float_of_int pkt.Packet.count);
        let ring = Virtio_net.rx_ring net in
        let head = Vring.pop_avail ring in
        (* No posted buffer: drop. *)
        if head >= 0 then begin
          Vring.set_payload ring ~head pkt;
          Vring.push_used ring ~head ~written:pkt.Packet.size;
          Virtio_net.fire_interrupt net
        end
      in
      let rec loop () =
        let pkt = Sim.Bounded.recv rx_chan in
        wait_vhost_alive host;
        (* Pull whatever else already sits in the backlog, up to the
           poll-tick burst: one worker fiber per burst. At batch > 1,
           wait out a poll tick first so the burst has arrivals. *)
        if host.batch > 1 then Sim.delay poll_tick_ns;
        let rec burst n acc =
          if n >= host.batch then List.rev acc
          else
            match Sim.Bounded.try_recv rx_chan with
            | Some pkt -> burst (n + 1) (pkt :: acc)
            | None -> List.rev acc
        in
        let pkts = burst 1 [ pkt ] in
        Sim.fork (fun () -> List.iter process_rx pkts);
        loop ()
      in
      loop ());

  (* vhost-blk backend: pops requests, serves them against cloud storage
     with the extra CPU copies of the vm path, completes, injects. The
     per-VM iothread is single: its CPU work (request handling + data
     copies) serialises, while device-side service overlaps. *)
  let vblk_iothread = Sim.Resource.create ~capacity:1 in
  Sim.spawn sim (fun () ->
      let process_blk head =
        let req = Vring.payload (Virtio_blk.ring blkdev) ~head in
        Sim.delay (p.vblk_sched_ns /. 2.0);
        Sim.Resource.with_resource vblk_iothread (fun () ->
            (* Under nesting the L1 hypervisor's backend is itself
               a guest: its per-request work multiplies. *)
            Cores.execute_ns host.service_cores (p.vblk_req_ns *. io_factor);
            (* Extra buffer copies between guest and host I/O
               stacks; writes cross twice (data out, ack in). *)
            let copies =
              match req.Virtio_blk.op with
              | Virtio_blk.Write -> 2.0
              | Virtio_blk.Read | Virtio_blk.Flush -> 1.0
            in
            let copy_ns = copies *. float_of_int req.Virtio_blk.bytes /. p.copy_gb_s in
            Cores.execute_ns host.service_cores (copy_ns *. io_factor));
        let op =
          match req.Virtio_blk.op with
          | Virtio_blk.Read -> `Read
          | Virtio_blk.Write -> `Write
          | Virtio_blk.Flush -> `Flush
        in
        (match Blockstore.serve host.storage ~op ~bytes_:req.Virtio_blk.bytes with
        | `Served -> ()
        | `Rejected ->
          req.Virtio_blk.failed <- true;
          Metrics.incr_opt (Obs.metrics host.obs) "hyp.vm.blk_rejected");
        Sim.delay (p.vblk_sched_ns /. 2.0);
        (* Rare host block-layer hiccup: the source of the vm's
           heavy p99.9 storage tail (Fig. 11). *)
        if Rng.bernoulli vm_rng ~p:p.vblk_hiccup_p then
          Sim.delay (Rng.pareto vm_rng ~scale:p.vblk_hiccup_scale_ns ~shape:1.4);
        (* The completion thread itself can be preempted. *)
        Preempt.maybe_steal preempt;
        Vring.push_used (Virtio_blk.ring blkdev) ~head ~written:req.Virtio_blk.bytes;
        Virtio_blk.fire_interrupt blkdev
      in
      let rec loop () =
        Sim.Bounded.recv blk_hint;
        wait_vhost_alive host;
        let rec drain () =
          let rec burst n acc =
            if n >= host.batch then List.rev acc
            else
              let head = Vring.pop_avail (Virtio_blk.ring blkdev) in
              if head < 0 then List.rev acc else burst (n + 1) (head :: acc)
          in
          match burst 0 [] with
          | [] -> ()
          | heads ->
            Sim.fork (fun () -> List.iter process_blk heads);
            if host.batch > 1 then Sim.delay poll_tick_ns;
            drain ()
        in
        if host.batch > 1 then Sim.delay poll_tick_ns;
        drain ();
        loop ()
      in
      loop ());

  (* Keep rx buffers posted from the start. *)
  Sim.spawn sim (fun () -> ignore (Virtio_net.refill_rx net ~target:1536));

  (* Co-residency perturbs the shared LLC/SMT pipelines: a few percent
     of run-to-run noise on top of the deterministic overheads — the
     fluctuation the paper attributes to the cache (Fig. 16). *)
  let cache_noise () = 1.0 +. Float.abs (Rng.normal vm_rng ~mean:0.0 ~stddev:0.04) in
  let exec_ns natural =
    Preempt.maybe_steal preempt;
    Cores.execute_ns guest_cores (natural *. cpu_factor *. cache_noise ())
  in
  let exec_mem_ns ~working_set ~locality natural =
    Preempt.maybe_steal preempt;
    let factor = Ept.dilation_factor ~obs:host.obs tlb ~virtualized:true ~working_set ~locality in
    Cores.execute_ns guest_cores (natural *. cpu_factor *. factor *. cache_noise ())
  in
  let net_shed pkt =
    Metrics.incr_int_opt (Obs.metrics host.obs) ~by:pkt.Packet.count "hyp.vm.net_shed";
    false
  in
  let send pkt =
    Cores.execute_ns guest_cores
      (Guest_os.net_tx_ns os ~kind:pkt.Packet.protocol ~count:pkt.Packet.count *. io_factor);
    if Limits.net_admit config.net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size
    then Virtio_net.xmit net pkt
    else net_shed pkt
  in
  let send_dpdk pkt =
    Cores.execute_ns guest_cores (Guest_os.dpdk_tx_ns_of os ~count:pkt.Packet.count *. io_factor);
    if Limits.net_admit config.net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size
    then Virtio_net.xmit net pkt
    else net_shed pkt
  in
  (* With an assigned device the tx doorbell is a plain MMIO store to
     real hardware — no exit, no vhost worker: the device streams the
     descriptor at its arbitrated share and forwards it in hardware. *)
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
              Vswitch.forward_hw host.vswitch pkt)
        with
        | `Submitted _ -> true
        | `Rejected ->
          Metrics.incr_int_opt (Obs.metrics host.obs) ~by:pkt.Packet.count "hyp.vm.vf_tx_rejects";
          false
      in
      ( (fun pkt ->
          Cores.execute_ns guest_cores
            (Guest_os.net_tx_ns os ~kind:pkt.Packet.protocol ~count:pkt.Packet.count
            *. io_factor);
          if Limits.net_admit config.net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size
          then vf_xmit pkt
          else net_shed pkt),
        fun pkt ->
          Cores.execute_ns guest_cores
            (Guest_os.dpdk_tx_ns_of os ~count:pkt.Packet.count *. io_factor);
          if Limits.net_admit config.net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size
          then vf_xmit pkt
          else net_shed pkt )
  in
  let blk_attempt ~op ~bytes_ =
    Cores.execute_ns guest_cores (os.Guest_os.blk_submit_ns *. io_factor);
    if not (Limits.blk_admit config.blk_limits ~bytes_) then begin
      Metrics.incr_opt (Obs.metrics host.obs) "hyp.vm.blk_shed";
      Cores.execute_ns guest_cores (os.Guest_os.blk_complete_ns *. io_factor);
      Error `Limited
    end
    else begin
      (* Completion latency (fio's clat): measured once the request is
         admitted past the instance rate limiter. *)
      let t0 = Sim.clock () in
      let vop =
        match op with `Read -> Virtio_blk.Read | `Write -> Virtio_blk.Write | `Flush -> Virtio_blk.Flush
      in
      let req = Virtio_blk.make_req ~op:vop ~sector:0 ~bytes:bytes_ ~now:(Sim.clock ()) in
      if not (Virtio_blk.submit blkdev req) then begin
        Sim.delay 1_000.0;
        Cores.execute_ns guest_cores (os.Guest_os.blk_complete_ns *. io_factor);
        Error (`Busy (Sim.clock () -. t0))
      end
      else begin
        ignore (Sim.Ivar.read req.Virtio_blk.done_);
        Cores.execute_ns guest_cores (os.Guest_os.blk_complete_ns *. io_factor);
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
      Instance.name = config.name;
      kind = Instance.Virtual;
      spec;
      endpoint;
      cores = guest_cores;
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
      pause = (fun () -> Preempt.maybe_steal preempt);
      ipi =
        (fun () ->
          (* Sending the IPI exits the sender; delivery exits the target. *)
          Vmexit.record exits Vmexit.Ipi;
          Cores.execute_ns guest_cores (1_000.0 +. Vmexit.handle_ns Vmexit.Ipi));
      set_poll_mode = (fun b -> poll_mode := b);
      timer_arm =
        (fun () ->
          (* Arming the TSC-deadline timer is an MSR write: one exit. *)
          Vmexit.record exits Vmexit.Msr_access;
          Cores.execute_ns guest_cores (100.0 +. Vmexit.handle_ns Vmexit.Msr_access));
    }
  in
  let rekick () =
    if Vring.avail_pending (Virtio_net.tx_ring net) > 0 then
      ignore (Sim.Bounded.send tx_hint ());
    if Vring.avail_pending (Virtio_blk.ring blkdev) > 0 then
      ignore (Sim.Bounded.send blk_hint ())
  in
  host.vms <-
    ( config.name,
      {
        instance;
        exits;
        preempt;
        rekick;
        vm_datapath = (if Option.is_none vf_attached then Vf.Vring else config.datapath);
        vm_vf = vf_attached;
      } )
    :: host.vms;
  instance

let exit_counters host ~name =
  Option.map (fun vm -> vm.exits) (List.assoc_opt name host.vms)

let preempt_of host ~name = Option.map (fun vm -> vm.preempt) (List.assoc_opt name host.vms)

let vm_datapath host ~name =
  Option.map (fun vm -> vm.vm_datapath) (List.assoc_opt name host.vms)

let vm_vf host ~name = Option.bind (List.assoc_opt name host.vms) (fun vm -> vm.vm_vf)

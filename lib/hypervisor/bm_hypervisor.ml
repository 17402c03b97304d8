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
  board : Board.t;
  bridges : bridge_controls list;
  offload : Offload.t option;
  mutable backend_version : int;
}

type server = {
  sim : Sim.t;
  params : params;
  profile : Profile.t;
  base_cores : Cores.t;
  vswitch : Vswitch.t;
  board_pool : Board.t array;
  obs : Obs.t;
  backend : Backend.t;
  mutable guests : (string * guest_state) list;
}

let create_server ?(obs = Obs.none) ?(fault = Fault.none) sim _rng ~fabric ~storage
    ?(profile = Profile.Fpga) ?(board_spec = Cpu_spec.xeon_e5_2682_v4) ?(board_mem_gb = 64)
    ?(boards = 8) ?dma_gbit_s ?(params = default_params) ?(batch = 1) ?(vfs = 8)
    ?(vf_queues = 2) () =
  if boards < 1 || boards > 16 then invalid_arg "Bm_hypervisor: 1..16 boards per server (§3.3)";
  if batch < 1 then invalid_arg "Bm_hypervisor: batch must be >= 1";
  if vfs < 1 then invalid_arg "Bm_hypervisor: vfs must be >= 1";
  if vf_queues < 1 then invalid_arg "Bm_hypervisor: vf_queues must be >= 1";
  let base_cores = Cores.create sim ~spec:Cpu_spec.base_server_e5 () in
  let vswitch = Vswitch.create ~obs sim ~fabric ~cores:base_cores () in
  let board_pool =
    Array.init boards (fun id ->
        Board.create ~obs ~fault sim ~id ~spec:board_spec ~mem_gb:board_mem_gb ~profile
          ?dma_gbit_s ())
  in
  (* The per-guest backend processes are ordinary user-space processes
     whose queue state lives in the shadow vrings; the server's SR-IOV
     pool is an IO-Bond part. *)
  let backend =
    Backend.create ~obs ~fault sim ~vswitch ~storage ~prefix:"hyp.bm" ~worker:"pmd"
      ~trace_liveness:true ~batch ~vf_profile:profile ~vfs ~vf_queues ()
  in
  { sim; params; profile; base_cores; vswitch; board_pool; obs; backend; guests = [] }

let vswitch t = t.vswitch
let base_cores t = t.base_cores
let boards t = t.board_pool
let profile t = t.profile

let free_boards t =
  Array.fold_left (fun acc b -> if Board.power b = Board.Off then acc + 1 else acc) 0 t.board_pool

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
      let cores = Board.cores board in
      let memory = Board.memory board in
      let tlb = Tlb.create () in
      let iobond = Board.iobond board in
      let net_port = Iobond.attach_net iobond ~queue_size:Backend.net_queue_size () in
      let blk_port = Iobond.attach_blk iobond () in
      let net_tx = net_port.Iobond.net_tx and net_rx = net_port.Iobond.net_rx in
      let blk_queue = blk_port.Iobond.blk_queue in
      let offload_table = if offload then Some (Offload.create ()) else None in
      let vf = Backend.attach_vf t.backend ~owner:name datapath in
      (* Guest-side interrupts are genuine MSIs, no exits. A doorbell to
         IO-Bond is an uncached MMIO store to the FPGA BAR: ~300 ns of
         CPU stall per kick (a vm kick is a plain store into shared
         memory). Guest I/O runs natively: an I/O factor of 1.0. *)
      let cost =
        {
          Backend.irq_entry_ns = (fun () -> os.Guest_os.irq_entry_ns);
          io_factor = 1.0;
          doorbell_ns = 300.0;
        }
      in
      let g =
        Backend.guest t.backend ~name cost ~cores ~os ~net:net_port.Iobond.net_device
          ~blk:blk_port.Iobond.blk_device ~net_limits ~blk_limits
          ~rx_refilled:(fun () -> Queue_bridge.guest_notify net_rx)
          ~tx_pending:(fun () -> Queue_bridge.pending net_tx)
          ~blk_pending:(fun () -> Queue_bridge.pending blk_queue)
      in
      (* Per-guest bm-hypervisor backend process: net tx. *)
      let pmd_tx pkt =
        Metrics.mark_n_opt (Obs.metrics t.obs) ~n:pkt.Packet.count "hyp.bm.pmd_pkts"
          ~now:(Sim.now sim);
        Cores.execute_ns t.base_cores (p.pmd_pkt_ns *. float_of_int pkt.Packet.count)
      in
      let complete_tx req =
        Queue_bridge.complete net_tx req ~written:0 ();
        Queue_bridge.flush net_tx
      in
      (* One tx request: an offloaded flow never touches the base cores —
         the FPGA pipeline forwards it into the fabric (S6). *)
      let process_tx req =
        let pkt = req.Queue_bridge.payload in
        match Option.map (fun ot -> (ot, Offload.classify ot pkt)) offload_table with
        | Some (_, `Offloaded) ->
          Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.offload_hits";
          Sim.delay (Offload.fpga_forward_ns *. float_of_int pkt.Packet.count);
          complete_tx req;
          Vswitch.forward_hw t.vswitch pkt
        | Some (ot, `Slow_path) ->
          Metrics.incr_opt (Obs.metrics t.obs) "hyp.bm.offload_misses";
          pmd_tx pkt;
          Offload.install ot pkt;
          complete_tx req;
          Vswitch.send t.vswitch pkt
        | None ->
          pmd_tx pkt;
          complete_tx req;
          Vswitch.send t.vswitch pkt
      in
      Queue_bridge.set_work_hint net_tx (fun () -> Backend.kick g Backend.Tx);
      Backend.drain g Backend.Tx
        ~pop:(fun max -> Queue_bridge.pop_batch net_tx ~max)
        ~process:process_tx ();

      (* Net rx: the PMD pumps each burst into a posted guest buffer
         through the shadow rx ring. *)
      Backend.rx g vf ~post:(fun pkt ->
          Cores.execute_ns t.base_cores (p.pmd_pkt_ns *. float_of_int pkt.Packet.count);
          match Queue_bridge.pop net_rx with
          | Some req ->
            Queue_bridge.complete net_rx req ~payload:pkt ~written:pkt.Packet.size ();
            Queue_bridge.flush net_rx;
            true
          | None -> false);

      (* Blk backend: SPDK-style, one in-flight task per request. *)
      let process_blk req =
        let vreq = req.Queue_bridge.payload in
        Trace.begin_span_opt (Obs.trace t.obs) ~track:"hyp.bm" "blk_request" ~now:(Sim.now sim);
        Cores.execute_ns t.base_cores p.pmd_blk_ns;
        Backend.serve_blk t.backend vreq;
        Trace.end_span_opt (Obs.trace t.obs) ~track:"hyp.bm" "blk_request" ~now:(Sim.now sim);
        let written =
          match vreq.Virtio_blk.op with
          | Virtio_blk.Read -> vreq.Virtio_blk.bytes + 1
          | Virtio_blk.Write | Virtio_blk.Flush -> 1
        in
        Queue_bridge.complete blk_queue req ~written ();
        Queue_bridge.flush blk_queue
      in
      Queue_bridge.set_work_hint blk_queue (fun () -> Backend.kick g Backend.Blk);
      Backend.drain g Backend.Blk
        ~pop:(fun max -> Queue_bridge.pop_batch blk_queue ~max)
        ~process:process_blk ();

      (* Native execution, with the paper's ~4% board bonus. *)
      let cpu_factor = 1.0 /. (1.0 +. p.bm_cpu_bonus) in
      let exec_ns natural = Cores.execute_ns cores (natural *. cpu_factor) in
      let exec_mem_ns ~working_set ~locality natural =
        (* Native single-level page walks — no EPT on bare metal. *)
        let factor = Ept.dilation_factor tlb ~virtualized:false ~working_set ~locality in
        Cores.execute_ns cores (natural *. cpu_factor *. factor)
      in
      let instance =
        Backend.instance g ~kind:(Instance.Bare_metal t.profile) ~spec:(Board.spec board) ~memory
          ~exec_ns ~exec_mem_ns
          ~pause:(fun () -> ())
          ~ipi:(fun () -> Cores.execute_ns cores 1_000.0)
          ~timer_arm:(fun () -> Cores.execute_ns cores 100.0)
      in
      let controls q =
        {
          bridge_pause = (fun () -> Queue_bridge.pause q);
          bridge_resume = (fun () -> Queue_bridge.resume q);
        }
      in
      let bridges =
        [
          controls net_tx;
          controls net_rx;
          { bridge_pause = (fun () -> Queue_bridge.pause blk_queue);
            bridge_resume = (fun () -> Queue_bridge.resume blk_queue) };
        ]
      in
      t.guests <-
        (name, { board; bridges; offload = offload_table; backend_version = 1 })
        :: t.guests;
      Ok instance

let release t ~name =
  match List.assoc_opt name t.guests with
  | None -> ()
  | Some state ->
    Backend.release t.backend ~name;
    Board.power_off state.board;
    t.guests <- List.remove_assoc name t.guests

let guest_board t ~name = Option.map (fun s -> s.board) (List.assoc_opt name t.guests)
let rx_no_buffer_drops t ~name = Backend.rx_drops t.backend ~name

let offload_table t ~name =
  match List.assoc_opt name t.guests with Some s -> s.offload | None -> None

let backend_version t ~name =
  match List.assoc_opt name t.guests with Some s -> s.backend_version | None -> 0

let pmd_alive t = Backend.alive t.backend
let pmd_crashes t = Backend.crashes t.backend

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

(** The guest-I/O backend both hypervisors share.

    In the paper the bm-hypervisor's device glue "talks vhost-user to
    the cloud backends, same as the vm path" (§3.4.2): the two
    substrates run the same machinery and differ only in what it costs.
    This module is that machinery — the host's SR-IOV pool and VF
    attachment with counted fallback, backend-worker crash/respawn
    liveness, the bounded rx backlog and the vswitch-or-VF endpoint, the
    hint-driven drain loops, guest-side interrupts, transmit and block
    I/O, and assembly of the {!Bm_guest.Instance.t} handle.

    A substrate supplies a metric prefix and VF profile per host, a
    {!cost} record per guest, and the callbacks that touch its own
    rings: IO-Bond's shadow-vring bridges on bare metal, the virtio
    rings plus injected interrupts on the vm path. Each hypervisor calls
    the steps below in its own order, so each keeps its exact event
    schedule. *)

type cost = {
  irq_entry_ns : unit -> float;
      (** delay before a guest interrupt handler runs (outside poll
          mode); called once per interrupt, so it may record exits *)
  io_factor : float;  (** multiplier on guest-side I/O CPU work (1.0 native) *)
  doorbell_ns : float;  (** guest CPU stall per transmit kick *)
}

type t
(** One host's backend state: its vswitch, storage, VF pool, worker
    liveness and guests. *)

type guest

type queue = Tx | Blk

val net_queue_size : int
(** Net rings sized like a multiqueue device (8 queues x 256). *)

val create :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  vswitch:Bm_cloud.Vswitch.t ->
  storage:Bm_cloud.Blockstore.t ->
  prefix:string ->
  worker:string ->
  trace_liveness:bool ->
  batch:int ->
  vf_profile:Bm_iobond.Profile.t ->
  vfs:int ->
  vf_queues:int ->
  unit ->
  t
(** Metrics are named [prefix ^ ".<name>"]. Subscribes to [Pmd_crash]:
    the workers die for the event's dead-time
    (["<prefix>.<worker>_crashes"]), then respawn
    (["<prefix>.<worker>_respawns"]) and replay every guest's pending
    work hints. With [trace_liveness] both moments are also instants on
    the [prefix] trace track. [batch] is the poll-tick burst of every drain (see {!drain}); [vfs]
    and [vf_queues] size the SR-IOV pool, created on first use. *)

val alive : t -> bool
(** [false] only inside a [Pmd_crash] dead-time. *)

val crashes : t -> int

val attach_vf : t -> owner:string -> Bm_iobond.Vf.datapath -> Bm_iobond.Vf.vf option
(** [Vring] gets no VF; [Passthrough] a whole one-VF device of its own;
    [Sliced] one VF of the host pool, or [None] (and a
    ["<prefix>.vf_fallbacks"] count) when the pool is exhausted. *)

val guest :
  t ->
  name:string ->
  cost ->
  cores:Bm_hw.Cores.t ->
  os:Bm_guest.Guest_os.t ->
  net:Bm_virtio.Virtio_net.t ->
  blk:Bm_virtio.Virtio_blk.t ->
  net_limits:Bm_cloud.Limits.net ->
  blk_limits:Bm_cloud.Limits.blk ->
  rx_refilled:(unit -> unit) ->
  tx_pending:(unit -> int) ->
  blk_pending:(unit -> int) ->
  guest
(** Start a guest's I/O: install its net and blk interrupt handlers and
    run both vhost-user handshakes. [rx_refilled] runs whenever the
    guest posts fresh rx buffers; [tx_pending]/[blk_pending] count
    requests waiting in each queue, for the post-respawn rekick. *)

val kick : guest -> queue -> unit
(** Ring the queue's work hint (capacity 1: a kick while one is pending
    coalesces into it). *)

val drain :
  guest ->
  queue ->
  pop:(int -> 'a list) ->
  process:('a -> unit) ->
  ?after:(unit -> unit) ->
  unit ->
  unit
(** Spawn the queue's backend worker. On each hint (once the workers
    are alive) it calls [pop batch] until it returns [[]], forking one
    fiber that runs [process] over each burst, then runs [after]. At
    [batch > 1] it sleeps a 1 µs poll tick before and between bursts. *)

val rx : guest -> Bm_iobond.Vf.vf option -> post:(Bm_virtio.Packet.t -> bool) -> unit
(** Register the guest's vswitch endpoint and spawn its rx worker. On
    the ring path bursts queue in a 512-deep drop-tail backlog and
    [post] hands each one to a posted guest buffer, returning [false]
    when there is none; with a VF the device delivers straight into the
    guest. A missing buffer or a VF rejection counts as
    ["<prefix>.rx_drops"]. *)

val serve_blk : t -> Bm_virtio.Virtio_blk.req -> unit
(** Serve one request against cloud storage; an admission rejection
    marks it failed (["<prefix>.blk_rejected"]). From a process. *)

val instance :
  guest ->
  kind:Bm_guest.Instance.kind ->
  spec:Bm_hw.Cpu_spec.t ->
  memory:Bm_hw.Memory.t ->
  exec_ns:(float -> unit) ->
  exec_mem_ns:(working_set:float -> locality:float -> float -> unit) ->
  pause:(unit -> unit) ->
  ipi:(unit -> unit) ->
  timer_arm:(unit -> unit) ->
  Bm_guest.Instance.t
(** Assemble the guest's handle after {!rx}, register the guest with the
    host and post its initial rx buffers. Sends go over the VF when one
    is attached, else into the virtio tx ring. *)

val release : t -> name:string -> unit
(** Forget the guest: its endpoint leaves the vswitch and its VF, if
    any, is hot-unplugged on the agenda. *)

val rx_drops : t -> name:string -> int
(** Packets dropped on the guest's receive path (0 if unknown). *)

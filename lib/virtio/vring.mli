(** Virtio split virtqueue (descriptor table + avail ring + used ring).

    This is a faithful model of the split-ring layout from the virtio
    spec: a descriptor table managed through a free list, an avail ring
    written by the driver, and a used ring written by the device. Indices
    free-run modulo 2^16 as in real hardware. Buffers carry an arbitrary
    OCaml payload instead of guest-physical bytes, so descriptors carry
    no buffer address; their [len] values are real so DMA cost models
    can meter them.

    The same structure serves as the guest-side ring of a vm-guest
    (where the host backend maps it directly) and as both the guest ring
    and the bm-hypervisor's {e shadow vring} in the IO-Bond path (§3.4,
    Fig. 4). *)

type 'a t
(** A request is named by its {e head}: the index of its first table
    descriptor, an int in [\[0, size)]. Every operation that finds
    nothing to hand out returns [-1] instead of a head, so the datapath
    allocates no option, chain record or segment list: per-request
    state stays in the descriptor table, the request's indirect table
    and preallocated per-head arrays. *)

val create : size:int -> 'a t
(** [create ~size] — [size] must be a power of two (spec requirement),
    between 2 and 32768. *)

val set_obs : 'a t -> track:string -> Bm_engine.Obs.t -> unit
(** Install an observability context: {!add} and {!push_used} then emit
    instants on [track] and bump the ["virtio.vring.add"]/["virtio.vring.used"]
    counters. Off (and free) by default. *)

val size : 'a t -> int
val num_free : 'a t -> int
(** Free descriptors in the table. *)

val in_flight : 'a t -> int
(** Descriptors in use (table slots consumed by outstanding requests). *)

val in_flight_requests : 'a t -> int
(** Requests added but not yet reclaimed by {!pop_used}. *)

(** {2 Driver side} *)

val add : 'a t -> ?indirect:bool -> out:int list -> in_:int list -> 'a -> int
(** [add t ~out ~in_ payload] queues a request whose driver→device
    segments have the byte lengths [out] and device→driver segments
    [in_]. Uses one descriptor per segment, or a single slot when
    [indirect] (default false). Returns the head index, or [-1] when the
    table cannot hold the chain. At least one segment is required, and
    none may be negative ([Invalid_argument]). *)

val add_mirror : 'a t -> src:'b t -> head:int -> 'a -> int
(** [add_mirror t ~src ~head payload] queues on [t] a request with the
    segment lengths, directions and indirection of [src]'s outstanding
    request [head] — what IO-Bond's DMA engine does when it copies a
    guest chain's descriptors into the shadow ring. Returns the new head
    or [-1], as {!add}. *)

val pop_used : 'a t -> int
(** Driver-side completion reaping: the head of the oldest unseen used
    entry, or [-1] when none is pending. Recycles the chain's
    descriptors; its payload and written count stay readable through
    {!reaped} and {!reaped_written} until the next [pop_used]. *)

val reaped : 'a t -> 'a
(** Payload of the request the last {!pop_used} reaped. Raises
    [Invalid_argument] if that call returned [-1] (or none was made). *)

val reaped_written : 'a t -> int
(** Bytes the device reported written for that request. Raises as
    {!reaped}. *)

val used_pending : 'a t -> int
(** Used entries the driver has not reaped yet. *)

(** {2 Device side} *)

val avail_pending : 'a t -> int
(** Requests the device has not popped yet. *)

val pop_avail : 'a t -> int
(** Device-side: take the oldest unseen avail entry; its head, or [-1]. *)

val peek_avail : 'a t -> int
(** The head {!pop_avail} would take, without taking it; or [-1]. *)

(** The chain accessors below raise [Invalid_argument] unless [head] is
    outstanding (added and not yet reaped). *)

val payload : 'a t -> head:int -> 'a
(** Current payload of an outstanding request. *)

val out_bytes : 'a t -> head:int -> int
(** Sum of the driver→device segment lengths. *)

val in_bytes : 'a t -> head:int -> int
(** Sum of the device→driver segment lengths. *)

val indirect : 'a t -> head:int -> bool
(** Whether the chain sits in an indirect table (one table slot). *)

val segments : 'a t -> head:int -> int
(** Number of segments, driver→device ones first. *)

val segment_len : 'a t -> head:int -> int -> int
(** [segment_len t ~head i] is the byte length of segment [i]. *)

val segment_writable : 'a t -> head:int -> int -> bool
(** Whether segment [i] is device→driver (F_WRITE). *)

val set_payload : 'a t -> head:int -> 'a -> unit
(** Device-side write into the request's buffers (e.g. a received packet
    placed into an rx buffer) before completing it. *)

val push_used : 'a t -> head:int -> written:int -> unit
(** Device-side completion: publish [head] in the used ring with
    [written] bytes. Raises [Invalid_argument] if [head] is not
    outstanding. *)

(** {2 Inspection} *)

val avail_idx : 'a t -> int
(** Free-running (mod 2^16) driver index — IO-Bond mirrors this into its
    head/tail registers. *)

val used_idx : 'a t -> int

(** {2 EVENT_IDX notification suppression (virtio spec §2.6.7–2.6.8)}

    Negotiated through {!Feature.event_idx}. The driver arms
    {!set_used_event} with the used index at which it next wants an
    interrupt; the device arms {!set_avail_event} with the avail index at
    which it next wants a doorbell. Without arming, every completion
    interrupts and every kick notifies. *)

val set_used_event : 'a t -> int -> unit
val set_avail_event : 'a t -> int -> unit

val should_notify : 'a t -> bool
(** Driver side, after {!add}: must the device be kicked? *)

val should_interrupt : 'a t -> bool
(** Device side, after one or more {!push_used}: is an interrupt owed?
    Reading consumes the pending flag (interrupts coalesce). *)

val check_invariants : 'a t -> (unit, string) result
(** Internal consistency check used by the property tests. *)

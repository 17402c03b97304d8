exception Not_in_simulation
exception Stopped

type t = {
  mutable time : float;
  mutable seq : int;
  agenda : (unit -> unit) Pqueue.t;
  (* Hot lane: zero-delay events (every Fork, Suspend resume, spawn and
     Bounded wakeup) run at the current time, so they never need the
     heap — a FIFO preserves their (time, seq) order exactly. The seq
     counter stays global across both lanes, so interleaving with heap
     events at the same timestamp is bit-identical to the all-heap
     scheduler.

     The lane is a growable power-of-two ring over two parallel arrays
     (seq, callback) rather than a [Queue.t] of boxed pairs: pushing a
     zero-delay event — the majority of all events in I/O-heavy runs —
     allocates nothing. Popped slots are nulled so finished fibers stay
     collectable. *)
  mutable lane_seqs : int array;
  mutable lane_fns : (unit -> unit) array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable lane_executed : int;
  mutable heap_executed : int;
  mutable executed : int;
  mutable stopped : bool;
  (* One deep handler per simulator, built by [create] and reused by
     every fiber: [effc] parks the effect's payload in a slot below and
     returns a prebuilt [Some k_handler], which reads the slot back
     before running any code that could perform again. Only the
     continuation and its resume closure are allocated per effect. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  delay_slot : float array; (* one flat cell: the pending [Delay] *)
  mutable fork_slot : unit -> unit;
  mutable suspend_slot : Obj.t; (* the pending [Suspend]'s register fn *)
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Clock : float Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t

(* Shared filler for vacated lane slots: retains nothing. *)
let lane_nil () = ()

(* Placeholder until [create] installs the simulator's own handler. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

let suspend_nil = Obj.repr ()

let now t = t.time
let events_executed t = t.executed
let pending_events t = Pqueue.length t.agenda + t.lane_len

type stats = {
  executed : int;
  lane : int;
  heap : int;
  pending_lane : int;
  pending_heap : int;
  lane_capacity : int;
  heap_capacity : int;
}

let stats (t : t) =
  {
    executed = t.executed;
    lane = t.lane_executed;
    heap = t.heap_executed;
    pending_lane = t.lane_len;
    pending_heap = Pqueue.length t.agenda;
    lane_capacity = Array.length t.lane_fns;
    heap_capacity = Pqueue.capacity t.agenda;
  }

let lane_grow t =
  let cap = Array.length t.lane_fns in
  let cap' = max 16 (2 * cap) in
  let seqs' = Array.make cap' 0 in
  let fns' = Array.make cap' lane_nil in
  for k = 0 to t.lane_len - 1 do
    let i = (t.lane_head + k) land (cap - 1) in
    seqs'.(k) <- t.lane_seqs.(i);
    fns'.(k) <- t.lane_fns.(i)
  done;
  t.lane_seqs <- seqs';
  t.lane_fns <- fns';
  t.lane_head <- 0

let[@inline] lane_push t seq f =
  if t.lane_len = Array.length t.lane_fns then lane_grow t;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_fns - 1) in
  t.lane_seqs.(i) <- seq;
  t.lane_fns.(i) <- f;
  t.lane_len <- t.lane_len + 1

let[@inline] lane_pop t =
  let i = t.lane_head in
  let f = t.lane_fns.(i) in
  t.lane_fns.(i) <- lane_nil;
  t.lane_head <- (i + 1) land (Array.length t.lane_fns - 1);
  t.lane_len <- t.lane_len - 1;
  f

(* [schedule] past its guard; inlined so that a delay read unboxed out
   of [delay_slot] is never boxed on the way in. *)
let[@inline] enqueue t ~delay f =
  t.seq <- t.seq + 1;
  if delay = 0.0 then lane_push t t.seq f
  else Pqueue.add t.agenda ~time:(t.time +. delay) ~seq:t.seq f

let schedule t ~delay f =
  (* An explicit raise, not an assert: the guard must survive builds
     that compile assertions out (matches the Delay effect's behavior).
     The negated comparison also rejects a NaN delay. *)
  if not (delay >= 0.0) then invalid_arg "Sim.schedule: delay must be non-negative";
  enqueue t ~delay f

type timer = Pqueue.handle

(* A timer is an ordinary heap event that can be taken back out: same
   seq counter, same (time, seq) order, so arming one is
   indistinguishable from [schedule] until it is cancelled. A positive
   delay keeps it off the hot lane, whose FIFO slots cannot be
   removed. *)
let schedule_timer t ~delay f =
  if not (delay > 0.0) then invalid_arg "Sim.schedule_timer: delay must be positive";
  t.seq <- t.seq + 1;
  Pqueue.add_handle t.agenda ~time:(t.time +. delay) ~seq:t.seq f

let cancel t timer = ignore (Pqueue.cancel t.agenda timer)

(* Run [body] as a fiber, interpreting the blocking effects against [t]. *)
let exec t body = Effect.Deep.match_with body () t.handler

(* A prebuilt [Some k_handler] usable at every answer type. *)
type any_k = { k_handler : 'a. (('a, unit) Effect.Deep.continuation -> unit) option }

(* The handler [exec] installs, built once per simulator. [effc] runs
   and its [Some k_handler] is applied to the continuation at once, with
   nothing in between, so a slot written by [effc] is always the one its
   k_handler reads; each k_handler empties the slot (so nothing is
   retained) before it resumes any code that could perform again. An
   inner simulator run from a fiber has its own handler and slots, so
   nested simulators never see each other's payloads. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let delay_k =
    Some
      (fun (k : (unit, unit) continuation) ->
        let d = Array.unsafe_get t.delay_slot 0 in
        (* [schedule]'s guard, checked here so that a negative or NaN
           delay raises inside the fiber, where its own handler can
           catch it, rather than out of [run]. *)
        if not (d >= 0.0) then discontinue k (Invalid_argument "Sim.delay: negative or NaN")
        else enqueue t ~delay:d (fun () -> continue k ()))
  in
  let clock_k = Some (fun (k : (float, unit) continuation) -> continue k t.time) in
  let fork_k =
    Some
      (fun (k : (unit, unit) continuation) ->
        let body = t.fork_slot in
        t.fork_slot <- lane_nil;
        enqueue t ~delay:0.0 (fun () -> exec t body);
        continue k ())
  in
  (* [Suspend] is polymorphic in its answer type, so its slot holds the
     register function type-erased. The k_handler below is applied to
     the very continuation whose [Suspend register] filled the slot, so
     [Obj.obj] gives [register] back at the type it was performed at. *)
  let suspend_k =
    {
      k_handler =
        Some
          (fun (type a) (k : (a, unit) continuation) ->
            let register : (a -> unit) -> unit = Obj.obj t.suspend_slot in
            t.suspend_slot <- suspend_nil;
            let resumed = ref false in
            let resume v =
              if !resumed then invalid_arg "Sim.suspend: resumed twice";
              resumed := true;
              enqueue t ~delay:0.0 (fun () -> continue k v)
            in
            register resume);
    }
  in
  let effc (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option =
    match eff with
    | Delay d ->
      Array.unsafe_set t.delay_slot 0 d;
      delay_k
    | Clock -> clock_k
    | Suspend register ->
      t.suspend_slot <- Obj.repr register;
      suspend_k.k_handler
    | Fork body ->
      t.fork_slot <- body;
      fork_k
    | _ -> None
  in
  { retc = Fun.id; exnc = (fun e -> if e == Stopped then () else raise e); effc }

let create () =
  let t =
    {
      time = 0.0;
      seq = 0;
      agenda = Pqueue.create ();
      lane_seqs = [||];
      lane_fns = [||];
      lane_head = 0;
      lane_len = 0;
      lane_executed = 0;
      heap_executed = 0;
      executed = 0;
      stopped = false;
      handler = no_handler;
      delay_slot = [| 0.0 |];
      fork_slot = lane_nil;
      suspend_slot = suspend_nil;
    }
  in
  t.handler <- make_handler t;
  t

let spawn t body = schedule t ~delay:0.0 (fun () -> exec t body)

(* [run]'s inner loop. Every pending hot-lane event runs at the
   current time (zero-delay scheduling can only target "now", and the
   lane always drains before the clock advances), so the next event is
   either the lane's head or a heap event at the same instant with a
   smaller seq. Heap events run while their time is <= [horizon], which
   [Pqueue.min_le] at seq [max_int] tests without boxing a float (a
   plain [min_time <= horizon] costs ~1.25 words per heap event). No
   step of the loop allocates. *)
let exec_loop t ~horizon =
  let rec loop () =
    if not t.stopped then begin
      if t.lane_len > 0 then begin
        let lane_seq = t.lane_seqs.(t.lane_head) in
        if Pqueue.length t.agenda > 0 && Pqueue.min_le t.agenda ~time:t.time ~seq:lane_seq
        then begin
          t.time <- Pqueue.min_time t.agenda;
          let f = Pqueue.pop_min t.agenda in
          t.heap_executed <- t.heap_executed + 1;
          t.executed <- t.executed + 1;
          f ()
        end
        else begin
          let f = lane_pop t in
          t.lane_executed <- t.lane_executed + 1;
          t.executed <- t.executed + 1;
          f ()
        end;
        loop ()
      end
      else if Pqueue.length t.agenda > 0 && Pqueue.min_le t.agenda ~time:horizon ~seq:max_int
      then begin
        t.time <- Pqueue.min_time t.agenda;
        let f = Pqueue.pop_min t.agenda in
        t.heap_executed <- t.heap_executed + 1;
        t.executed <- t.executed + 1;
        f ();
        loop ()
      end
    end
  in
  loop ()

let run ?until t =
  t.stopped <- false;
  let horizon = match until with Some u -> u | None -> infinity in
  exec_loop t ~horizon;
  match until with
  | Some u when t.time < u && not t.stopped -> t.time <- u
  | _ -> ()

let stop t =
  t.stopped <- true;
  Pqueue.clear t.agenda;
  Array.fill t.lane_fns 0 (Array.length t.lane_fns) lane_nil;
  t.lane_head <- 0;
  t.lane_len <- 0

let delay d =
  try Effect.perform (Delay d) with Effect.Unhandled _ -> raise Not_in_simulation

let clock () = try Effect.perform Clock with Effect.Unhandled _ -> raise Not_in_simulation

let suspend register =
  try Effect.perform (Suspend register) with Effect.Unhandled _ -> raise Not_in_simulation

let fork body =
  try Effect.perform (Fork body) with Effect.Unhandled _ -> raise Not_in_simulation

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let fill iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      iv.state <- Full v;
      List.iter (fun resume -> resume v) (List.rev waiters)

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.state with
          | Full v -> resume v
          | Empty waiters -> iv.state <- Empty (resume :: waiters))

  (* The hop structure is that of the spawned reader fiber plus
     watcher fiber this replaces, so every event that has an effect
     keeps its place in the (time, seq) order and outputs stay
     byte-identical: one zero-delay hop where the reader was spawned
     (which checks the cell and arms the deadline where the watcher's
     [delay] armed it), one hop where the reader resumed after [fill],
     then the caller's own resume. Only the no-op events go: the
     watcher's start, and its wake-up after the reader won — that timer
     is cancelled instead. *)
  let read_timeout sim iv ~timeout =
    if not (timeout > 0.0) then invalid_arg "Sim.Ivar.read_timeout: timeout must be positive";
    suspend (fun resume ->
        schedule sim ~delay:0.0 (fun () ->
            match iv.state with
            | Full v -> resume (Some v)
            | Empty waiters ->
              let settled = ref false in
              let settle v =
                if not !settled then begin
                  settled := true;
                  resume v
                end
              in
              let timer = schedule_timer sim ~delay:timeout (fun () -> settle None) in
              let on_fill v =
                if not !settled then
                  schedule sim ~delay:0.0 (fun () ->
                      if not !settled then begin
                        cancel sim timer;
                        settle (Some v)
                      end)
              in
              iv.state <- Empty (on_fill :: waiters)))

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None
end

module Channel = struct
  type 'a channel = { items : 'a Queue.t; waiters : ('a -> unit) Queue.t }

  let create () = { items = Queue.create (); waiters = Queue.create () }

  let send ch v =
    match Queue.take_opt ch.waiters with
    | Some resume -> resume v
    | None -> Queue.add v ch.items

  let recv ch =
    match Queue.take_opt ch.items with
    | Some v -> v
    | None -> suspend (fun resume -> Queue.add resume ch.waiters)

  let try_recv ch = Queue.take_opt ch.items
  let length ch = Queue.length ch.items
end

module Bounded = struct
  type policy = Block | Drop_tail | Drop_head | Reject

  type probe_event = [ `Enqueue | `Deliver | `Drop | `Reject ]

  type 'a bounded = {
    capacity : int;
    policy : policy;
    items : 'a Queue.t;
    receivers : ('a -> unit) Queue.t;
    (* Senders parked under [Block]; their value is not yet in [items]. *)
    parked : ('a * (unit -> unit)) Queue.t;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable rejected : int;
    mutable probe : (probe_event -> depth:int -> unit) option;
  }

  let create ~capacity ~policy () =
    if capacity <= 0 then invalid_arg "Sim.Bounded.create: capacity must be positive";
    {
      capacity;
      policy;
      items = Queue.create ();
      receivers = Queue.create ();
      parked = Queue.create ();
      sent = 0;
      delivered = 0;
      rejected = 0;
      dropped = 0;
      probe = None;
    }

  let capacity q = q.capacity
  let policy q = q.policy
  let length q = Queue.length q.items
  let sent q = q.sent
  let delivered q = q.delivered
  let dropped q = q.dropped
  let rejected q = q.rejected
  let waiting_senders q = Queue.length q.parked
  let set_probe q f = q.probe <- Some f

  let note q ev =
    match q.probe with None -> () | Some f -> f ev ~depth:(Queue.length q.items)

  let enqueue q v =
    Queue.add v q.items;
    note q `Enqueue

  let note_delivered q =
    q.delivered <- q.delivered + 1;
    note q `Deliver

  let send q v =
    q.sent <- q.sent + 1;
    match Queue.take_opt q.receivers with
    | Some resume ->
      (* Direct handoff: a receiver is parked, so the queue is empty. *)
      note_delivered q;
      resume v;
      `Sent
    | None ->
      if Queue.length q.items < q.capacity then begin
        enqueue q v;
        `Sent
      end
      else begin
        match q.policy with
        | Block ->
          (* Backpressure: park until a receiver frees a slot. The slot
             transfer (enqueue) happens on the receiver side so FIFO
             order is preserved. *)
          suspend (fun resume -> Queue.add (v, fun () -> resume ()) q.parked);
          `Sent
        | Drop_tail ->
          q.dropped <- q.dropped + 1;
          note q `Drop;
          `Dropped
        | Drop_head ->
          (* Evict the oldest queued item to make room for the newest. *)
          ignore (Queue.take_opt q.items);
          q.dropped <- q.dropped + 1;
          note q `Drop;
          enqueue q v;
          `Sent
        | Reject ->
          q.rejected <- q.rejected + 1;
          note q `Reject;
          `Rejected
      end

  (* After a slot frees, move the oldest parked sender's item in and wake it. *)
  let unpark q =
    match Queue.take_opt q.parked with
    | Some (v, wake) ->
      enqueue q v;
      wake ()
    | None -> ()

  let recv q =
    match Queue.take_opt q.items with
    | Some v ->
      note_delivered q;
      unpark q;
      v
    | None ->
      (* items empty implies no parked senders (capacity > 0). *)
      suspend (fun resume -> Queue.add resume q.receivers)

  let try_recv q =
    match Queue.take_opt q.items with
    | Some v ->
      note_delivered q;
      unpark q;
      Some v
    | None -> None
end

module Resource = struct
  type waiter = { amount : int; resume : unit -> unit }

  type resource = { capacity : int; mutable used : int; queue : waiter Queue.t }

  (* Guards raise before anything is mutated, so a bad call leaves the
     resource as it was, assertions compiled in or not. *)
  let create ~capacity =
    if capacity <= 0 then invalid_arg "Sim.Resource.create: capacity must be positive";
    { capacity; used = 0; queue = Queue.create () }

  let capacity r = r.capacity
  let in_use r = r.used
  let waiting r = Queue.length r.queue

  (* Grant waiters strictly in FIFO order: stop at the first waiter that
     does not fit, even if a later, smaller one would (no barging). *)
  let rec grant r =
    match Queue.peek_opt r.queue with
    | Some w when r.used + w.amount <= r.capacity ->
      ignore (Queue.pop r.queue);
      r.used <- r.used + w.amount;
      w.resume ();
      grant r
    | Some _ | None -> ()

  (* The [?n] wrappers below box [Some n] at every call that passes it;
     these take it unboxed. *)
  let acquire_n r n =
    if n <= 0 || n > r.capacity then invalid_arg "Sim.Resource.acquire: n must be in [1, capacity]";
    if Queue.is_empty r.queue && r.used + n <= r.capacity then r.used <- r.used + n
    else
      suspend (fun resume -> Queue.add { amount = n; resume = (fun () -> resume ()) } r.queue)

  let release_n r n =
    if n <= 0 || n > r.used then invalid_arg "Sim.Resource.release: n must be in [1, in_use]";
    r.used <- r.used - n;
    grant r

  let acquire ?(n = 1) r = acquire_n r n
  let release ?(n = 1) r = release_n r n

  let with_resource ?(n = 1) r f =
    acquire_n r n;
    match f () with
    | v ->
      release_n r n;
      v
    | exception e ->
      release_n r n;
      raise e
end

exception Not_in_simulation
exception Stopped

(* Agenda payloads. Both lanes store [Obj.t] values of exactly three
   kinds, which [dispatch] tells apart by block tag:
   - a closure ([Closure_tag] or [Infix_tag]) of type [unit -> unit]:
     a [schedule]d callback, a timer or a fiber's start;
   - a continuation ([Obj.cont_tag]) of type
     [(unit, unit) Effect.Deep.continuation]: a fiber parked by [delay],
     resumed with [()];
   - a [resumption] record (tag 0): a fiber parked by [suspend] whose
     resume function has been called, with the value to resume it with.
   Only this module adds to the agenda, and each call site passes one
   of these three at its own type, so nothing else reaches [dispatch]. Storing the continuation or the record itself, rather
   than a [fun () -> continue k v] closure around it, is what keeps a
   delay and a resume free of a closure allocation. *)
type resumption = { k : Obj.t; mutable v : Obj.t; mutable resumed : bool }

type t = {
  mutable time : float;
  mutable seq : int;
  agenda : Obj.t Pqueue.t;
  (* Hot lane: zero-delay events (every Fork, Suspend resume, spawn and
     Bounded wakeup) run at the current time, so they never need the
     heap — a FIFO preserves their (time, seq) order exactly. The seq
     counter stays global across both lanes, so interleaving with heap
     events at the same timestamp is bit-identical to the all-heap
     scheduler.

     The lane is a growable power-of-two ring over two parallel arrays
     (seq, payload) rather than a [Queue.t] of boxed pairs: pushing a
     zero-delay event — the majority of all events in I/O-heavy runs —
     allocates nothing. Popped slots are nulled so finished fibers stay
     collectable. *)
  mutable lane_seqs : int array;
  mutable lane_fns : Obj.t array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable lane_executed : int;
  mutable heap_executed : int;
  mutable executed : int;
  mutable stopped : bool;
  (* One deep handler per simulator, built by [create] and reused by
     every fiber. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
}

(* Every effect is a constant constructor, so performing one allocates
   nothing but the continuation OCaml captures. Their arguments travel
   in the domain's [register] below. *)
type _ Effect.t += Delay : unit Effect.t | Suspend : 'a Effect.t | Fork : unit Effect.t

(* Filler for vacated agenda slots and the register's suspend cell. *)
let nil = Obj.repr ()

(* Filler for the register's fork cell: retains nothing. *)
let no_body () = ()

(* Placeholder until [create] installs the simulator's own handler. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

(* Stands for "no simulator is running on this domain"; never run. *)
let idle =
  {
    time = nan;
    seq = 0;
    agenda = Pqueue.create ();
    lane_seqs = [||];
    lane_fns = [||];
    lane_head = 0;
    lane_len = 0;
    lane_executed = 0;
    heap_executed = 0;
    executed = 0;
    stopped = true;
    handler = no_handler;
  }

(* The per-domain register. [running] is the simulator whose [run] is
   executing on this domain ([idle] outside any), which is all [clock]
   reads. The [pending_*] cells carry an effect's argument from the
   function that performs it ([delay], [suspend], [fork]) to the
   handler that receives it: nothing runs in between but the handlers'
   [effc] matches, so the handler always reads the value its own
   performer wrote, and it empties the cell before resuming any code
   that could perform again. One register per domain (not per
   simulator) is enough because a domain runs one fiber at a time and
   the nearest enclosing handler — of whichever simulator — is the one
   that reads. *)
type register = {
  mutable running : t;
  pending_delay : float array; (* one flat cell: no boxed float *)
  mutable pending_suspend : Obj.t; (* the [suspend]'s register function *)
  mutable pending_fork : unit -> unit;
}

let register_key =
  Domain.DLS.new_key (fun () ->
      { running = idle; pending_delay = [| 0.0 |]; pending_suspend = nil; pending_fork = no_body })

let[@inline] register () = Domain.DLS.get register_key

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
  let fns' = Array.make cap' nil in
  for k = 0 to t.lane_len - 1 do
    let i = (t.lane_head + k) land (cap - 1) in
    seqs'.(k) <- t.lane_seqs.(i);
    fns'.(k) <- t.lane_fns.(i)
  done;
  t.lane_seqs <- seqs';
  t.lane_fns <- fns';
  t.lane_head <- 0

let[@inline] lane_push t seq p =
  if t.lane_len = Array.length t.lane_fns then lane_grow t;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_fns - 1) in
  t.lane_seqs.(i) <- seq;
  t.lane_fns.(i) <- p;
  t.lane_len <- t.lane_len + 1

let[@inline] lane_pop t =
  let i = t.lane_head in
  let p = t.lane_fns.(i) in
  t.lane_fns.(i) <- nil;
  t.lane_head <- (i + 1) land (Array.length t.lane_fns - 1);
  t.lane_len <- t.lane_len - 1;
  p

(* [schedule] past its guard, for any payload kind; inlined so that a
   delay read unboxed out of the register is never boxed on the way
   in. *)
let[@inline] enqueue t ~delay (p : Obj.t) =
  t.seq <- t.seq + 1;
  if delay = 0.0 then lane_push t t.seq p
  else Pqueue.add t.agenda ~time:(t.time +. delay) ~seq:t.seq p

let schedule t ~delay (f : unit -> unit) =
  (* An explicit raise, not an assert: the guard must survive builds
     that compile assertions out (matches the Delay effect's behavior).
     The negated comparison also rejects a NaN delay. *)
  if not (delay >= 0.0) then invalid_arg "Sim.schedule: delay must be non-negative";
  enqueue t ~delay (Obj.repr f)

type timer = Pqueue.handle

(* A timer is an ordinary heap event that can be taken back out: same
   seq counter, same (time, seq) order, so arming one is
   indistinguishable from [schedule] until it is cancelled. A positive
   delay keeps it off the hot lane, whose FIFO slots cannot be
   removed. *)
let schedule_timer t ~delay (f : unit -> unit) =
  if not (delay > 0.0) then invalid_arg "Sim.schedule_timer: delay must be positive";
  t.seq <- t.seq + 1;
  Pqueue.add_handle t.agenda ~time:(t.time +. delay) ~seq:t.seq (Obj.repr f)

let cancel t timer = ignore (Pqueue.cancel t.agenda timer)

(* Run [body] as a fiber, interpreting the blocking effects against [t]. *)
let exec t body = Effect.Deep.match_with body () t.handler

(* Resume a suspended fiber at the current time: the record itself is
   the lane event. *)
let wake t r v =
  if r.resumed then invalid_arg "Sim.suspend: resumed twice";
  r.resumed <- true;
  r.v <- v;
  enqueue t ~delay:0.0 (Obj.repr r)

(* A prebuilt [Some k_handler] usable at every answer type. *)
type any_k = { k_handler : 'a. (('a, unit) Effect.Deep.continuation -> unit) option }

(* The handler [exec] installs, built once per simulator. [effc] only
   selects a prebuilt [Some k_handler]; the k_handler is applied to the
   continuation at once and reads the effect's argument out of the
   domain's register. An inner simulator run from a fiber has its own
   handler, so its fibers' effects never reach the outer one. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let delay_k =
    Some
      (fun (k : (unit, unit) continuation) ->
        let d = Array.unsafe_get (register ()).pending_delay 0 in
        (* [schedule]'s guard, checked here so that a negative or NaN
           delay raises inside the fiber, where its own handler can
           catch it, rather than out of [run]. *)
        if not (d >= 0.0) then discontinue k (Invalid_argument "Sim.delay: negative or NaN")
        else enqueue t ~delay:d (Obj.repr k))
  in
  let fork_k =
    Some
      (fun (k : (unit, unit) continuation) ->
        let r = register () in
        let body = r.pending_fork in
        r.pending_fork <- no_body;
        enqueue t ~delay:0.0 (Obj.repr (fun () -> exec t body));
        continue k ())
  in
  (* [Suspend] is polymorphic in its answer type, so the register holds
     the register function type-erased. The k_handler below is applied
     to the very continuation whose [suspend] filled the cell, so
     [Obj.obj] gives [register] back at the type it was performed at;
     the value handed to the resume function goes back to that
     continuation unchanged. *)
  let suspend_k =
    {
      k_handler =
        Some
          (fun (type a) (k : (a, unit) continuation) ->
            let reg = register () in
            let register : (a -> unit) -> unit = Obj.obj reg.pending_suspend in
            reg.pending_suspend <- nil;
            let r = { k = Obj.repr k; v = nil; resumed = false } in
            register (fun v -> wake t r (Obj.repr v)));
    }
  in
  let effc (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option =
    match eff with
    | Delay -> delay_k
    | Suspend -> suspend_k.k_handler
    | Fork -> fork_k
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
    }
  in
  t.handler <- make_handler t;
  t

let spawn t body = schedule t ~delay:0.0 (fun () -> exec t body)

(* Run one agenda payload; see the invariant at [resumption]. *)
let[@inline] dispatch (p : Obj.t) =
  let tag = Obj.tag p in
  if tag = Obj.cont_tag then
    Effect.Deep.continue (Obj.obj p : (unit, unit) Effect.Deep.continuation) ()
  else if tag = 0 then begin
    let r : resumption = Obj.obj p in
    let v = r.v in
    r.v <- nil;
    Effect.Deep.continue (Obj.obj r.k : (Obj.t, unit) Effect.Deep.continuation) v
  end
  else (Obj.obj p : unit -> unit) ()

(* [run]'s inner loop. Every pending hot-lane event runs at the
   current time (zero-delay scheduling can only target "now", and the
   lane always drains before the clock advances), so the next event is
   either the lane's head or a heap event at the same instant with a
   smaller seq. Heap events run while their time is <= [horizon], which
   [Pqueue.min_le] at seq [max_int] tests without boxing a float (a
   plain [min_time <= horizon] costs ~1.25 words per heap event). No
   step of the loop allocates but the boxed [time] a heap event sets. *)
let exec_loop t ~horizon =
  let rec loop () =
    if not t.stopped then begin
      if t.lane_len > 0 then begin
        let lane_seq = t.lane_seqs.(t.lane_head) in
        if Pqueue.length t.agenda > 0 && Pqueue.min_le t.agenda ~time:t.time ~seq:lane_seq
        then begin
          t.time <- Pqueue.min_time t.agenda;
          let p = Pqueue.pop_min t.agenda in
          t.heap_executed <- t.heap_executed + 1;
          t.executed <- t.executed + 1;
          dispatch p
        end
        else begin
          let p = lane_pop t in
          t.lane_executed <- t.lane_executed + 1;
          t.executed <- t.executed + 1;
          dispatch p
        end;
        loop ()
      end
      else if Pqueue.length t.agenda > 0 && Pqueue.min_le t.agenda ~time:horizon ~seq:max_int
      then begin
        t.time <- Pqueue.min_time t.agenda;
        let p = Pqueue.pop_min t.agenda in
        t.heap_executed <- t.heap_executed + 1;
        t.executed <- t.executed + 1;
        dispatch p;
        loop ()
      end
    end
  in
  loop ()

(* [run] makes [t] the domain's running simulator for the length of the
   loop and puts the previous one back however the loop ends, so a
   simulator run from inside another's fiber hands the clock back. *)
let run ?until t =
  t.stopped <- false;
  let horizon = match until with Some u -> u | None -> infinity in
  let reg = register () in
  let outer = reg.running in
  reg.running <- t;
  (match exec_loop t ~horizon with
  | () -> reg.running <- outer
  | exception e ->
    reg.running <- outer;
    raise e);
  match until with
  | Some u when t.time < u && not t.stopped -> t.time <- u
  | _ -> ()

let stop t =
  t.stopped <- true;
  Pqueue.clear t.agenda;
  Array.fill t.lane_fns 0 (Array.length t.lane_fns) nil;
  t.lane_head <- 0;
  t.lane_len <- 0

let delay d =
  Array.unsafe_set (register ()).pending_delay 0 d;
  try Effect.perform Delay with Effect.Unhandled _ -> raise Not_in_simulation

let clock () =
  let t = (register ()).running in
  if t == idle then raise Not_in_simulation else t.time

let suspend (type a) (register_fn : (a -> unit) -> unit) : a =
  let reg = register () in
  reg.pending_suspend <- Obj.repr register_fn;
  try Effect.perform (Suspend : a Effect.t)
  with Effect.Unhandled _ ->
    reg.pending_suspend <- nil;
    raise Not_in_simulation

let fork body =
  let reg = register () in
  reg.pending_fork <- body;
  try Effect.perform Fork
  with Effect.Unhandled _ ->
    reg.pending_fork <- no_body;
    raise Not_in_simulation

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
  type 'a reader = {
    sim : t;
    cell : 'a ivar;
    timeout : float;
    mutable resume : 'a option -> unit;
    mutable timer : timer;
    mutable answer : 'a option; (* [Some v] once the fill has arrived *)
    mutable settled : bool;
  }

  let settle rd answer =
    if not rd.settled then begin
      rd.settled <- true;
      rd.resume answer
    end

  (* The hop after [fill]: the deadline lost, so take it off the agenda. *)
  let deliver rd =
    if not rd.settled then begin
      cancel rd.sim rd.timer;
      settle rd rd.answer
    end

  let on_fill rd v =
    if not rd.settled then begin
      rd.answer <- Some v;
      schedule rd.sim ~delay:0.0 (fun () -> deliver rd)
    end

  (* The first hop: answer at once, or arm the deadline and wait. *)
  let arm rd =
    match rd.cell.state with
    | Full v -> rd.resume (Some v)
    | Empty waiters ->
      rd.timer <- schedule_timer rd.sim ~delay:rd.timeout (fun () -> settle rd None);
      rd.cell.state <- Empty ((fun v -> on_fill rd v) :: waiters)

  let read_timeout sim iv ~timeout =
    if not (timeout > 0.0) then invalid_arg "Sim.Ivar.read_timeout: timeout must be positive";
    (* One record holds what the hops share; each callback captures only
       it. *)
    let rd =
      { sim; cell = iv; timeout; resume = ignore; timer = Pqueue.no_handle; answer = None; settled = false }
    in
    suspend (fun resume ->
        rd.resume <- resume;
        schedule sim ~delay:0.0 (fun () -> arm rd))

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
          suspend (fun resume -> Queue.add (v, resume) q.parked);
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
      suspend (fun resume -> Queue.add { amount = n; resume } r.queue)

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

  (* [with_resource r (fun () -> delay d)] without the body closure: the
     shape of every service-time model on the datapath. *)
  let hold r d =
    acquire_n r 1;
    match delay d with
    | () -> release_n r 1
    | exception e ->
      release_n r 1;
      raise e
end

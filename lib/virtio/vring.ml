open Bm_engine

let wrap16 = 0xFFFF

(* Descriptor flags from the virtio spec. *)
let f_next = 0x1
let f_write = 0x2
let f_indirect = 0x4

type desc = { mutable len : int; mutable flags : int; mutable next : int }

(* Per-request state lives where the spec puts it — segment lengths and
   write flags in the descriptor table, or in the request's indirect
   table — plus a few int arrays indexed by head. Payloads stand in for
   guest buffers, so descriptors carry no buffer address. Nothing here
   is rebuilt per request: adding, popping and completing a chain write
   into preallocated slots, so a full add -> pop_avail -> push_used ->
   pop_used cycle allocates nothing. Payloads are stored as [Obj.t] so
   a vacated slot can hold a shared immediate without a dummy 'a, as in
   [Pqueue]; they enter through [Obj.repr] at type 'a and leave through
   [Obj.obj] at the same type, and only from heads with [ndesc > 0]. *)
type 'a t = {
  size : int;
  desc : desc array;
  avail : int array; (* ring of head indices *)
  used_heads : int array; (* used ring, head half *)
  used_written : int array; (* used ring, written-bytes half *)
  payloads : Obj.t array; (* per head *)
  ndesc : int array; (* per head: table descriptors consumed (1 if indirect); 0 = free *)
  nout : int array; (* per head: driver->device segments, which come first *)
  nsegs : int array; (* per head: all segments *)
  out_bytes : int array; (* per head *)
  in_bytes : int array; (* per head *)
  ind_len : int array array; (* per head: indirect table, grown on demand and reused *)
  mutable avail_idx : int; (* driver-written, free-running mod 2^16 *)
  mutable used_idx : int; (* device-written *)
  mutable last_avail : int; (* device's private progress index *)
  mutable last_used : int; (* driver's private progress index *)
  mutable free_head : int; (* singly-linked free list through desc.next *)
  mutable num_free : int;
  mutable requests : int; (* added but not yet reaped *)
  mutable reaped_head : int; (* head the last [pop_used] returned *)
  mutable reaped : Obj.t; (* its payload *)
  mutable reaped_written : int;
  (* EVENT_IDX suppression state (virtio spec 2.6.7/2.6.8) *)
  mutable used_event : int option; (* driver-written: interrupt threshold *)
  mutable avail_event : int option; (* device-written: notify threshold *)
  mutable interrupt_pending : bool;
  mutable obs : Obs.t;
  mutable track : string;
}

let nil = Obj.repr ()
let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size =
  if not (is_power_of_two size && size >= 2 && size <= 32768) then
    invalid_arg "Vring.create: size must be a power of two in [2, 32768]";
  {
    size;
    desc = Array.init size (fun i -> { len = 0; flags = 0; next = i + 1 });
    avail = Array.make size (-1);
    used_heads = Array.make size (-1);
    used_written = Array.make size 0;
    payloads = Array.make size nil;
    ndesc = Array.make size 0;
    nout = Array.make size 0;
    nsegs = Array.make size 0;
    out_bytes = Array.make size 0;
    in_bytes = Array.make size 0;
    ind_len = Array.make size [||];
    avail_idx = 0;
    used_idx = 0;
    last_avail = 0;
    last_used = 0;
    free_head = 0;
    num_free = size;
    requests = 0;
    reaped_head = -1;
    reaped = nil;
    reaped_written = 0;
    used_event = None;
    avail_event = None;
    interrupt_pending = false;
    obs = Obs.none;
    track = "virtio.vring";
  }

let set_obs t ~track obs =
  t.obs <- obs;
  t.track <- track

let size t = t.size
let num_free t = t.num_free

let avail_pending t = (t.avail_idx - t.last_avail) land wrap16
let used_pending t = (t.used_idx - t.last_used) land wrap16
let in_flight t = t.size - t.num_free
let in_flight_requests t = t.requests
let avail_idx t = t.avail_idx
let used_idx t = t.used_idx

(* Pop [n] descriptors off the free list, chained with F_NEXT. *)
let alloc_descs t n =
  let head = t.free_head in
  let cur = ref head in
  for _ = 2 to n do
    t.desc.(!cur).flags <- f_next;
    cur := t.desc.(!cur).next
  done;
  t.desc.(!cur).flags <- 0;
  t.free_head <- t.desc.(!cur).next;
  t.num_free <- t.num_free - n;
  head

(* Walk the chain to its tail and splice it back onto the free list. *)
let free_descs t head n =
  let last = ref head in
  for _ = 2 to n do
    last := t.desc.(!last).next
  done;
  t.desc.(!last).next <- t.free_head;
  t.free_head <- head;
  t.num_free <- t.num_free + n

let outstanding t head = head >= 0 && head < t.size && t.ndesc.(head) > 0
let is_indirect t head = t.desc.(head).flags land f_indirect <> 0

(* Take a head for a chain of [nsegs] segments, the first [nout] of them
   driver->device; -1 when the table or the avail ring is full. *)
let claim t ~indirect ~nout ~nsegs =
  let needed = if indirect then 1 else nsegs in
  if needed > t.num_free || avail_pending t >= t.size then -1
  else begin
    let head = alloc_descs t needed in
    t.ndesc.(head) <- needed;
    t.nout.(head) <- nout;
    t.nsegs.(head) <- nsegs;
    t.out_bytes.(head) <- 0;
    t.in_bytes.(head) <- 0;
    if indirect && Array.length t.ind_len.(head) < nsegs then begin
      let cap = max nsegs (2 * Array.length t.ind_len.(head)) in
      t.ind_len.(head) <- Array.make cap 0
    end;
    head
  end

(* Write segment [i] of [head]'s chain: into the indirect table, or
   into table descriptor [cur], returning the next descriptor. *)
let put_seg t ~head ~indirect ~cur i len =
  let write = i >= t.nout.(head) in
  if write then t.in_bytes.(head) <- t.in_bytes.(head) + len
  else t.out_bytes.(head) <- t.out_bytes.(head) + len;
  if indirect then begin
    t.ind_len.(head).(i) <- len;
    cur
  end
  else begin
    let d = t.desc.(cur) in
    d.len <- len;
    d.flags <- (d.flags land f_next) lor (if write then f_write else 0);
    d.next
  end

let rec put_segs t ~head ~indirect ~cur i = function
  | [] -> cur
  | len :: rest ->
    let cur = put_seg t ~head ~indirect ~cur i len in
    put_segs t ~head ~indirect ~cur (i + 1) rest

let publish t head ~indirect payload =
  if indirect then begin
    let d = t.desc.(head) in
    d.flags <- f_indirect;
    d.len <- t.nsegs.(head) * 16
  end;
  t.payloads.(head) <- Obj.repr payload;
  t.avail.(t.avail_idx land (t.size - 1)) <- head;
  t.avail_idx <- (t.avail_idx + 1) land wrap16;
  t.requests <- t.requests + 1;
  Trace.instant_opt (Obs.trace t.obs) ~track:t.track "add" ~now:(Obs.now t.obs);
  Metrics.incr_opt (Obs.metrics t.obs) "virtio.vring.add";
  head

let check_len l = if l < 0 then invalid_arg "Vring.add: negative segment"

let add t ?(indirect = false) ~out ~in_ payload =
  let nout = List.length out in
  let nsegs = nout + List.length in_ in
  if nsegs = 0 then invalid_arg "Vring.add: at least one segment required";
  List.iter check_len out;
  List.iter check_len in_;
  let head = claim t ~indirect ~nout ~nsegs in
  if head < 0 then -1
  else begin
    let cur = put_segs t ~head ~indirect ~cur:head 0 out in
    ignore (put_segs t ~head ~indirect ~cur nout in_);
    publish t head ~indirect payload
  end

let check_head t head what =
  if not (outstanding t head) then invalid_arg ("Vring." ^ what ^ ": head not outstanding")

let segments t ~head =
  check_head t head "segments";
  t.nsegs.(head)

(* Table descriptor holding segment [i] of a direct chain. *)
let nth_desc t head i =
  let cur = ref head in
  for _ = 1 to i do
    cur := t.desc.(!cur).next
  done;
  t.desc.(!cur)

let check_seg t head i what =
  check_head t head what;
  if i < 0 || i >= t.nsegs.(head) then invalid_arg ("Vring." ^ what ^ ": no such segment")

let segment_len t ~head i =
  check_seg t head i "segment_len";
  if is_indirect t head then t.ind_len.(head).(i) else (nth_desc t head i).len

let segment_writable t ~head i =
  check_seg t head i "segment_writable";
  i >= t.nout.(head)

let add_mirror t ~src ~head:sh payload =
  check_head src sh "add_mirror";
  let indirect = is_indirect src sh in
  let nout = src.nout.(sh) and nsegs = src.nsegs.(sh) in
  let head = claim t ~indirect ~nout ~nsegs in
  if head < 0 then -1
  else begin
    let cur = ref head and src_cur = ref sh in
    for i = 0 to nsegs - 1 do
      let len =
        if indirect then src.ind_len.(sh).(i)
        else begin
          let d = src.desc.(!src_cur) in
          src_cur := d.next;
          d.len
        end
      in
      cur := put_seg t ~head ~indirect ~cur:!cur i len
    done;
    publish t head ~indirect payload
  end

let peek_avail t = if avail_pending t = 0 then -1 else t.avail.(t.last_avail land (t.size - 1))

let pop_avail t =
  let head = peek_avail t in
  if head >= 0 then begin
    if t.ndesc.(head) = 0 then invalid_arg "Vring: no outstanding request at this head";
    t.last_avail <- (t.last_avail + 1) land wrap16
  end;
  head

let payload t ~head =
  check_head t head "payload";
  Obj.obj t.payloads.(head)

let set_payload t ~head payload =
  check_head t head "set_payload";
  t.payloads.(head) <- Obj.repr payload

let out_bytes t ~head =
  check_head t head "out_bytes";
  t.out_bytes.(head)

let in_bytes t ~head =
  check_head t head "in_bytes";
  t.in_bytes.(head)

let indirect t ~head =
  check_head t head "indirect";
  is_indirect t head

(* Spec: an event fires when the free-running index crossed [event]
   going from [old_idx] to [new_idx] (all mod 2^16). *)
let need_event ~event ~new_idx ~old_idx =
  (new_idx - event - 1) land wrap16 < (new_idx - old_idx) land wrap16

let set_used_event t idx = t.used_event <- Some (idx land wrap16)
let set_avail_event t idx = t.avail_event <- Some (idx land wrap16)

let should_notify t =
  match t.avail_event with
  | None -> true
  | Some event -> need_event ~event ~new_idx:t.avail_idx ~old_idx:((t.avail_idx - 1) land wrap16)

let should_interrupt t =
  let fire = t.interrupt_pending in
  t.interrupt_pending <- false;
  fire

let push_used t ~head ~written =
  check_head t head "push_used";
  let i = t.used_idx land (t.size - 1) in
  t.used_heads.(i) <- head;
  t.used_written.(i) <- written;
  let old_idx = t.used_idx in
  t.used_idx <- (t.used_idx + 1) land wrap16;
  Trace.instant_opt (Obs.trace t.obs) ~track:t.track "used" ~now:(Obs.now t.obs);
  Metrics.incr_opt (Obs.metrics t.obs) "virtio.vring.used";
  match t.used_event with
  | None -> t.interrupt_pending <- true
  | Some event ->
    if need_event ~event ~new_idx:t.used_idx ~old_idx then t.interrupt_pending <- true

let pop_used t =
  t.reaped_head <- -1;
  t.reaped <- nil;
  if used_pending t = 0 then -1
  else begin
    let i = t.last_used land (t.size - 1) in
    let head = t.used_heads.(i) in
    t.last_used <- (t.last_used + 1) land wrap16;
    if t.ndesc.(head) = 0 then invalid_arg "Vring.pop_used: corrupted used entry";
    t.reaped_head <- head;
    t.reaped <- t.payloads.(head);
    t.reaped_written <- t.used_written.(i);
    t.payloads.(head) <- nil;
    free_descs t head t.ndesc.(head);
    t.ndesc.(head) <- 0;
    t.requests <- t.requests - 1;
    head
  end

let reaped t =
  if t.reaped_head < 0 then invalid_arg "Vring.reaped: the last pop_used reaped nothing";
  Obj.obj t.reaped

let reaped_written t =
  if t.reaped_head < 0 then invalid_arg "Vring.reaped_written: the last pop_used reaped nothing";
  t.reaped_written

let check_invariants t =
  let outstanding = Array.fold_left ( + ) 0 t.ndesc in
  (* Count the free list. *)
  let rec count cur n =
    if n > t.size then Error "free list cycle"
    else if n = t.num_free then Ok n
    else count t.desc.(cur).next (n + 1)
  in
  (* Each outstanding chain's per-head byte totals match its segments. *)
  let rec chains head =
    if head = t.size then Ok ()
    else if t.ndesc.(head) = 0 then chains (head + 1)
    else begin
      let out = ref 0 and in_ = ref 0 in
      for i = 0 to t.nsegs.(head) - 1 do
        let len = segment_len t ~head i in
        if i < t.nout.(head) then out := !out + len else in_ := !in_ + len
      done;
      if !out <> t.out_bytes.(head) || !in_ <> t.in_bytes.(head) then
        Error (Printf.sprintf "chain %d: segment lengths disagree with its byte totals" head)
      else if t.ndesc.(head) <> (if is_indirect t head then 1 else t.nsegs.(head)) then
        Error (Printf.sprintf "chain %d: descriptor count disagrees with its segments" head)
      else chains (head + 1)
    end
  in
  match count t.free_head 0 with
  | Error e -> Error e
  | Ok free ->
    if free + outstanding <> t.size then
      Error
        (Printf.sprintf "descriptor leak: free=%d outstanding=%d size=%d" free outstanding t.size)
    else if avail_pending t > t.size then Error "avail overflow"
    else if used_pending t > t.size then Error "used overflow"
    else chains 0

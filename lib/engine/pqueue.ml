(* Key-only binary heap over a slot table.

   The heap arrays hold the (time, seq) key and a slot number and
   nothing else: [times] is an unboxed float array, [seqs] and [slots]
   plain int arrays. Every entry owns a slot, and the payload lives in
   [values] at that slot, written once when the entry is added and read
   and nulled once when it is popped or cancelled. A sift therefore
   moves three scalars per level and updates [index] (slot -> heap
   position) with a plain int store: nothing it writes is a pointer, so
   no level pays OCaml's [caml_modify] write barrier. A payload moved
   with its key would pay one per level — a fence, a remembered-set
   entry for every young closure or continuation stored into the
   major-heap array, and darkening while the GC marks — about nine per
   pop at a 500-entry agenda.

   The same slot doubles as the entry's cancellation handle: [index]
   finds its heap position in O(1), and removal is O(log n). Free slots
   are kept on a stack. Each entry holds exactly one slot, so the slot
   table and the heap arrays share one capacity and grow together, and
   the stack is empty exactly when the heap is full. *)

type handle = { slot : int; seq : int }

type 'a t = {
  mutable times : float array;  (* heap position -> time (flat, no boxing) *)
  mutable seqs : int array;  (* heap position -> seq *)
  mutable slots : int array;  (* heap position -> slot *)
  mutable size : int;
  mutable values : Obj.t array;  (* slot -> payload, [nil] when free *)
  mutable index : int array;  (* slot -> heap position, -1 when free *)
  mutable free : int array;  (* stack of free slots *)
  mutable nfree : int;
}

(* Payloads are stored as [Obj.t] so free slots can be nulled with a
   shared immediate (the unit value) without manufacturing a dummy 'a,
   and so a ['a = float] instantiation cannot flip the array to the
   flat float representation behind the generic accessors. Everything
   enters through [Obj.repr] in [push] and leaves through [Obj.obj] at
   the same type. *)
let nil = Obj.repr ()

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    values = [||];
    index = [||];
    free = [||];
    nfree = 0;
  }

let length q = q.size
let is_empty q = q.size = 0
let capacity q = Array.length q.times

(* (time, seq) lexicographic order on the flat keys. *)
let lt q i j =
  let ti = q.times.(i) and tj = q.times.(j) in
  ti < tj || (ti = tj && q.seqs.(i) < q.seqs.(j))

(* Write a key at heap position [i] and point its slot there. Inlined
   so that [time] is never boxed. *)
let[@inline] set q i ~time ~seq slot =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.slots.(i) <- slot;
  q.index.(slot) <- i

let move q ~src ~dst = set q dst ~time:q.times.(src) ~seq:q.seqs.(src) q.slots.(src)

(* Both sifts lift the key at [i] out, slide the keys it passes one
   level into the hole, and write it once at its final position: one
   copy per level instead of a swap's two. Each level stores two ints
   and a flat float into the heap arrays and one int into [index] —
   no pointer, so no write barrier.

   The loops are the hot path, so they read the arrays into locals
   (a mutable field is reloaded after every store) and skip bounds
   checks: every position they touch is below [q.size], which never
   exceeds the arrays' length, and every slot is below the slot table's
   length, which is the same. Loops with local refs, not recursive
   closures, so the float key stays unboxed and nothing allocates. *)
let sift_up q i =
  let times = q.times and seqs = q.seqs and slots = q.slots and index = q.index in
  let t = times.(i) and s = seqs.(i) and slot = slots.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let h = !hole in
    let parent = (h - 1) / 2 in
    let tp = Array.unsafe_get times parent and sp = Array.unsafe_get seqs parent in
    if t < tp || (t = tp && s < sp) then begin
      let slot_p = Array.unsafe_get slots parent in
      Array.unsafe_set times h tp;
      Array.unsafe_set seqs h sp;
      Array.unsafe_set slots h slot_p;
      Array.unsafe_set index slot_p h;
      hole := parent
    end
    else moving := false
  done;
  set q !hole ~time:t ~seq:s slot

let sift_down q i =
  let times = q.times and seqs = q.seqs and slots = q.slots and index = q.index in
  let size = q.size in
  let t = times.(i) and s = seqs.(i) and slot = slots.(i) in
  let hole = ref i and moving = ref true in
  while !moving do
    let h = !hole in
    let left = (2 * h) + 1 in
    if left >= size then moving := false
    else begin
      let right = left + 1 in
      let child =
        if right >= size then left
        else begin
          let tl = Array.unsafe_get times left and tr = Array.unsafe_get times right in
          if tr < tl || (tr = tl && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
          then right
          else left
        end
      in
      let tc = Array.unsafe_get times child and sc = Array.unsafe_get seqs child in
      if tc < t || (tc = t && sc < s) then begin
        let slot_c = Array.unsafe_get slots child in
        Array.unsafe_set times h tc;
        Array.unsafe_set seqs h sc;
        Array.unsafe_set slots h slot_c;
        Array.unsafe_set index slot_c h;
        hole := child
      end
      else moving := false
    end
  done;
  set q !hole ~time:t ~seq:s slot

(* Double every array when the heap is full — which is exactly when no
   slot is free — and stack the new slots, lowest on top. *)
let grow q =
  let n = Array.length q.times in
  if q.size = n then begin
    let n' = max 16 (2 * n) in
    let extend a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    q.times <- extend q.times 0.0;
    q.seqs <- extend q.seqs 0;
    q.slots <- extend q.slots 0;
    q.values <- extend q.values nil;
    q.index <- extend q.index (-1);
    q.free <- Array.init n' (fun k -> n' - 1 - k);
    q.nfree <- n' - n
  end

(* Add an entry and return the slot it took. *)
let push q ~time ~seq value =
  grow q;
  q.nfree <- q.nfree - 1;
  let slot = q.free.(q.nfree) in
  q.values.(slot) <- Obj.repr value;
  let i = q.size in
  set q i ~time ~seq slot;
  q.size <- i + 1;
  sift_up q i;
  slot

let add q ~time ~seq value = ignore (push q ~time ~seq value : int)
let add_handle q ~time ~seq value = { slot = push q ~time ~seq value; seq }

(* Its slot is past every slot table, so [cancel] never looks it up. *)
let no_handle = { slot = max_int; seq = min_int }

(* Null the payload, so the GC can reclaim it (a retained closure pins
   a whole fiber), and put the slot back on the free stack. *)
let release q slot =
  q.values.(slot) <- nil;
  q.index.(slot) <- -1;
  q.free.(q.nfree) <- slot;
  q.nfree <- q.nfree + 1

(* Remove the entry at heap position [i]: fill the hole with the last
   key, then restore the heap order in whichever direction it needs. *)
let remove_at q i =
  release q q.slots.(i);
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    move q ~src:last ~dst:i;
    if i > 0 && lt q i ((i - 1) / 2) then sift_up q i else sift_down q i
  end

(* A handle is stale once its entry has left the queue: its slot is then
   free (index -1) or owned by a newer entry with a different seq. *)
let cancel q { slot; seq } =
  if slot < Array.length q.index then begin
    let i = q.index.(slot) in
    if i >= 0 && q.seqs.(i) = seq then begin
      remove_at q i;
      true
    end
    else false
  end
  else false

(* {2 Zero-allocation run-loop accessors}

   The simulator's inner loop never materializes a (time, seq, value)
   tuple: it asks [min_le] (a bool), reads [min_time] and takes the
   payload alone with [pop_min]. Under dune's default dev profile
   ([-opaque]) nothing inlines across modules, so [min_time] still
   hands its caller a boxed float. All three are undefined on an empty
   queue — the caller checks [length] first. *)

let[@inline] min_time q = q.times.(0)
let[@inline] min_seq q = q.seqs.(0)

let[@inline] min_le q ~time ~seq =
  let t0 = q.times.(0) in
  t0 < time || (t0 = time && q.seqs.(0) <= seq)

let pop_min q =
  let v = q.values.(q.slots.(0)) in
  remove_at q 0;
  Obj.obj v

(* {2 Boxed convenience API} — model tests and non-hot-path callers. *)

let peek q =
  if q.size = 0 then None
  else Some (q.times.(0), q.seqs.(0), (Obj.obj q.values.(q.slots.(0)) : 'a))

let pop q =
  if q.size = 0 then None
  else begin
    let time = q.times.(0) and seq = q.seqs.(0) in
    let v = pop_min q in
    Some (time, seq, v)
  end

let pop_if_le q ~time ~seq = if q.size > 0 && min_le q ~time ~seq then pop q else None

(* Keep the arrays (steady-state simulations refill them at the same
   size), but release every entry's slot, which nulls its payload and
   makes all outstanding handles stale. *)
let clear q =
  for i = 0 to q.size - 1 do
    release q q.slots.(i)
  done;
  q.size <- 0

(* Structure-of-arrays binary heap: the (time, seq) key lives in two
   flat arrays — [times] is an unboxed float array, [seqs] a plain int
   array — and the payload in a third. Pushing or popping an event
   therefore allocates nothing: the old boxed { time; seq; value }
   entry record cost four words per event, which at millions of events
   per second was the single largest allocation source in the engine
   (see BENCH_engine.json "alloc"). Growth doubles all the per-entry
   arrays at once; the amortized cost is unchanged.

   Indexed removal: an entry added with [add_handle] owns a slot in a
   side table that maps slot -> current heap index. [handles] holds the
   owning slot per entry (-1 for ordinary entries), and every entry
   copy ([move], the sifts) keeps the table current, so a cancel finds
   its entry in O(1) and removes it in O(log n). Free slots are kept on
   a stack and reused; [remove_at] (so [pop_min] and [cancel]) and
   [clear] release them. *)

type handle = { slot : int; seq : int }

type 'a t = {
  mutable times : float array;  (* flat (Double_array_tag): no boxing *)
  mutable seqs : int array;
  mutable values : Obj.t array;  (* uniform representation, see below *)
  mutable handles : int array;  (* owning slot per entry, or -1 *)
  mutable size : int;
  mutable index : int array;  (* slot -> heap index; -1 when free *)
  mutable free : int array;  (* stack of free slots *)
  mutable nfree : int;
}

(* Payloads are stored as [Obj.t] so vacated slots can be nulled with a
   shared immediate (the unit value) without manufacturing a dummy 'a,
   and so a ['a = float] instantiation cannot flip the array to the
   flat float representation behind the generic accessors. The magic is
   confined to [add]/[value_at]: everything enters through Obj.repr and
   leaves through Obj.obj at the same type. *)
let nil = Obj.repr ()

let create () =
  {
    times = [||];
    seqs = [||];
    values = [||];
    handles = [||];
    size = 0;
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

(* Write an entry at [i], keeping its handle's index current. Inlined
   so that [time] is never boxed. *)
let[@inline] set q i ~time ~seq value slot =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.values.(i) <- value;
  q.handles.(i) <- slot;
  if slot >= 0 then q.index.(slot) <- i

let move q ~src ~dst =
  set q dst ~time:q.times.(src) ~seq:q.seqs.(src) q.values.(src) q.handles.(src)

(* Both sifts lift the moving entry out, slide the entries it passes one
   level into the hole, and write it once at its final index: one entry
   copy per level instead of a swap's two. Loops with local refs, not
   recursive closures, so the float key stays unboxed and nothing
   allocates. *)
let sift_up q i =
  let t = q.times.(i) and s = q.seqs.(i) and v = q.values.(i) and h = q.handles.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let tp = q.times.(parent) in
    if t < tp || (t = tp && s < q.seqs.(parent)) then begin
      move q ~src:parent ~dst:!hole;
      hole := parent
    end
    else moving := false
  done;
  set q !hole ~time:t ~seq:s v h

let sift_down q i =
  let t = q.times.(i) and s = q.seqs.(i) and v = q.values.(i) and h = q.handles.(i) in
  let hole = ref i and moving = ref true in
  while !moving do
    let left = (2 * !hole) + 1 in
    if left >= q.size then moving := false
    else begin
      let right = left + 1 in
      let child = if right < q.size && lt q right left then right else left in
      let tc = q.times.(child) in
      if tc < t || (tc = t && q.seqs.(child) < s) then begin
        move q ~src:child ~dst:!hole;
        hole := child
      end
      else moving := false
    end
  done;
  set q !hole ~time:t ~seq:s v h

let grow q =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let times' = Array.make capacity' 0.0 in
    let seqs' = Array.make capacity' 0 in
    let values' = Array.make capacity' nil in
    let handles' = Array.make capacity' (-1) in
    Array.blit q.times 0 times' 0 q.size;
    Array.blit q.seqs 0 seqs' 0 q.size;
    Array.blit q.values 0 values' 0 q.size;
    Array.blit q.handles 0 handles' 0 q.size;
    q.times <- times';
    q.seqs <- seqs';
    q.values <- values';
    q.handles <- handles'
  end

let push q ~time ~seq ~slot value =
  grow q;
  let i = q.size in
  set q i ~time ~seq (Obj.repr value) slot;
  q.size <- i + 1;
  sift_up q i

let add q ~time ~seq value = push q ~time ~seq ~slot:(-1) value

(* Take a free slot, doubling the slot table when none is left. *)
let take_slot q =
  if q.nfree = 0 then begin
    let n = Array.length q.index in
    let n' = max 16 (2 * n) in
    let index' = Array.make n' (-1) in
    Array.blit q.index 0 index' 0 n;
    q.index <- index';
    q.free <- Array.init n' (fun k -> n' - 1 - k);
    q.nfree <- n' - n
  end;
  q.nfree <- q.nfree - 1;
  q.free.(q.nfree)

let release_slot q slot =
  q.index.(slot) <- -1;
  q.free.(q.nfree) <- slot;
  q.nfree <- q.nfree + 1

(* Its slot is past every slot table, so [cancel] never looks it up. *)
let no_handle = { slot = max_int; seq = min_int }

let add_handle q ~time ~seq value =
  let slot = take_slot q in
  push q ~time ~seq ~slot value;
  { slot; seq }

(* Remove entry [i]: fill the hole with the last entry, then restore the
   heap order in whichever direction the moved key needs. *)
let remove_at q i =
  let h = q.handles.(i) in
  if h >= 0 then release_slot q h;
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    move q ~src:last ~dst:i;
    if i > 0 && lt q i ((i - 1) / 2) then sift_up q i else sift_down q i
  end;
  (* Null the vacated slot so the GC can reclaim the payload (fibers
     retained through popped closures were a genuine space leak). *)
  q.values.(last) <- nil

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
   payload alone with [pop_min]. [min_time] returns a boxed float
   unless the caller's build inlines across modules, which dune's dev
   profile does not ([-opaque]). All three are undefined on an empty
   queue — the caller checks [length] first. *)

let[@inline] min_time q = q.times.(0)
let[@inline] min_seq q = q.seqs.(0)

let[@inline] min_le q ~time ~seq =
  let t0 = q.times.(0) in
  t0 < time || (t0 = time && q.seqs.(0) <= seq)

let pop_min q =
  let v = q.values.(0) in
  remove_at q 0;
  Obj.obj v

(* {2 Boxed convenience API} — model tests and non-hot-path callers. *)

let peek q =
  if q.size = 0 then None else Some (q.times.(0), q.seqs.(0), (Obj.obj q.values.(0) : 'a))

let pop q =
  if q.size = 0 then None
  else begin
    let time = q.times.(0) and seq = q.seqs.(0) in
    let v = pop_min q in
    Some (time, seq, v)
  end

let pop_if_le q ~time ~seq = if q.size > 0 && min_le q ~time ~seq then pop q else None

let clear q =
  (* Keep the backing arrays (steady-state simulations re-fill them at
     the same size), but drop every payload reference held in them and
     hand every timer slot back, which makes all outstanding handles
     stale. *)
  for i = 0 to q.size - 1 do
    let h = q.handles.(i) in
    if h >= 0 then release_slot q h
  done;
  Array.fill q.values 0 q.size nil;
  q.size <- 0

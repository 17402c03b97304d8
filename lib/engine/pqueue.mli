(** Minimum priority queue on [(time, sequence)] keys.

    A binary heap whose arrays hold only the key — times in a flat
    unboxed float array, sequence numbers in an int array — and a slot
    number per entry. Payloads live in a slot table: each is written
    once by {!add} and read and released once by {!pop_min} or
    {!cancel}, so a sift moves no pointer and pays no GC write barrier,
    and {!add} and {!pop_min} allocate nothing. Ties on [time] are
    broken by an insertion sequence number supplied by the caller, which
    makes event ordering — and therefore whole simulations —
    deterministic.

    A popped, cancelled or cleared entry's payload is released at once,
    so event closures (i.e. whole fibers) never outlive their pop.

    Entries added with {!add_handle} can also be removed before they
    reach the top, in O(log n), through the {!handle} they return. *)

type 'a t

type handle
(** Names one {!add_handle} entry for {!cancel}: the entry's slot plus
    its sequence number. Immutable; stale once the entry has been
    popped, cancelled or cleared. *)

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array capacity, shared by the heap and the slot
    table (exposed for tests and benchmarks). *)

val add : 'a t -> time:float -> seq:int -> 'a -> unit
(** [add q ~time ~seq v] inserts [v] with priority [(time, seq)]. The
    entry takes a free slot (reused after the entry leaves the queue).
    Allocation-free except when the backing arrays double. *)

val add_handle : 'a t -> time:float -> seq:int -> 'a -> handle
(** [add_handle q ~time ~seq v] is {!add} that also returns a handle for
    {!cancel}; the handle is its only allocation beyond {!add}'s. *)

val no_handle : handle
(** A handle that names no entry: {!cancel} with it returns [false].
    A placeholder for a record field that is set before use. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes [h]'s entry and releases its payload, returning
    [true]; it returns [false] and changes nothing when [h] is stale —
    its entry already popped, cancelled or cleared, even if a newer entry
    has since reused the slot. The check compares sequence numbers, so
    every handle entry needs a distinct [seq] (the simulator's seq
    counter never repeats). *)

(** {2 Zero-allocation accessors — the simulator's inner loop}

    All three are undefined on an empty queue; check {!length} first. *)

val min_time : 'a t -> float
(** Time of the minimum element. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element. *)

val min_le : 'a t -> time:float -> seq:int -> bool
(** [min_le q ~time ~seq] is true iff the minimum key is [<= (time,
    seq)] lexicographically — the run-loop's pop guard, without
    materializing an option or boxing a float. *)

val pop_min : 'a t -> 'a
(** Remove the minimum element and return its payload alone (read
    {!min_time} first if the caller needs the timestamp). *)

(** {2 Boxed convenience API} *)

val peek : 'a t -> (float * int * 'a) option
(** [peek q] is the minimum element without removing it. *)

val pop : 'a t -> (float * int * 'a) option
(** [pop q] removes and returns the minimum element. *)

val pop_if_le : 'a t -> time:float -> seq:int -> (float * int * 'a) option
(** [pop_if_le q ~time ~seq] removes and returns the minimum element iff
    its key is [<= (time, seq)]. [None] otherwise. *)

val clear : 'a t -> unit
(** Drop every element. Keeps the backing arrays' capacity (a cleared
    simulation agenda is usually refilled to the same size) but releases
    every held reference and every handle slot, so all outstanding
    handles become stale. *)

(** Registry of reproducible experiments — one per table/figure of the
    paper plus the numbered in-text results.

    Each experiment builds its own simulated testbed (fresh simulator,
    deterministic seed), runs the corresponding workload, and returns a
    printable table with paper-vs-measured columns where the paper
    reports concrete numbers. [quick] shrinks durations/population sizes
    so the whole suite stays fast in tests; headline numbers in
    EXPERIMENTS.md come from full runs. *)

type outcome = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

type ctx = {
  quick : bool;  (** CI-sized populations and durations *)
  seed : int;  (** every simulator's seed (default 2020) *)
  trace : Bm_engine.Trace.t option;
      (** threaded into every testbed; recording is pure observation *)
  trace_file : string option;
      (** where the front ends write [trace] after the run ({!Cli.print_results});
          no experiment reads it *)
  metrics : Bm_engine.Metrics.t option;  (** same contract as [trace] *)
  faults : Bm_engine.Fault.plan option;
      (** armed in the testbeds of the experiments that model failure
          ([availability], [overload], [vf_*]) *)
  scenario : Scenario.spec option;
      (** [game_day]/[policy_race] timeline; [None] is
          {!Scenario.default_spec} at [seed] *)
  policy : Bm_cloud.Policy.kind option;
      (** the policy [game_day] closes the loop with; [None] is [Ladder].
          [policy_race] runs every policy regardless *)
  topo : Bm_fabric.Topology.t option;
      (** fabric override for [xhost_*] and [fleet_scale] *)
  hosts : int option;  (** [fleet_scale] host count; [None] keeps the config's *)
  guests : int option;  (** [fleet_scale] guest population *)
  tenants : int option;  (** [fleet_scale] tenant count *)
  vfs : int option;  (** SR-IOV functions per device/pool in the [vf_*] experiments *)
  datapath : Bm_iobond.Vf.datapath option;
      (** restrict [vf_ablation] to one datapath; [None] runs all three *)
  jobs : int;
      (** domain budget ({!run}): several experiments at once, or one
          experiment's independent arms ([game_day], [policy_race],
          [vf_scale], [vf_ablation]) *)
}
(** Everything an experiment may read. Each experiment reads only the
    fields it uses; output is byte-identical for any [jobs], and
    same ctx ⇒ bit-identical outcome. The flags of both front ends
    ({!Cli.flags}) build one. *)

val default : ctx
(** Full scale, seed 2020, no sinks or overrides, [jobs = 1]. *)

type spec = {
  id : string;
  title : string;
  paper_ref : string;
  run : ctx -> outcome;
  check : ctx -> (unit, string) result;
      (** The overrides [run] would reject (such as a [topo] smaller
          than the fleet), as an [Error] naming them; runs nothing. *)
}

val all : spec list
val find : string -> spec option
val ids : unit -> string list

val run : ctx -> string list -> (string * (outcome, string) result) list
(** Run the named experiments (every one when the list is empty) on up
    to [ctx.jobs] domains ({!Parallel.map}), never more: a single target
    hands the budget to its own independent arms, several targets run
    up to [jobs] at a time with their arms sequential. Results come back
    in argument order, so output is byte-identical for any [jobs].
    Every target is checked before any runs: if an id is unknown, or an
    override is one its experiment rejects (such as a [topo] smaller
    than the fleet), nothing runs and the result lists only the rejected
    targets, each with its [Error]. Because [trace] and [metrics]
    sinks are shared mutable buffers, passing either forces [jobs = 1]. *)

val run_one :
  ?quick:bool ->
  ?seed:int ->
  ?trace:Bm_engine.Trace.t ->
  ?metrics:Bm_engine.Metrics.t ->
  string ->
  (outcome, string) result
(** One experiment on the calling domain, over {!default}. *)

val run_many :
  ?quick:bool ->
  ?seed:int ->
  ?trace:Bm_engine.Trace.t ->
  ?metrics:Bm_engine.Metrics.t ->
  ?jobs:int ->
  string list ->
  (string * (outcome, string) result) list
(** {!run} over {!default} with the given fields. *)

val print_outcome : outcome -> unit

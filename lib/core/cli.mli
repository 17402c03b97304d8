(** The experiment flags, defined once for both front ends
    ([bench/main.exe] and [bmhive_cli run]), and the output they share.

    Each flag parses and validates its value into an {!Experiments.ctx};
    a bad value is an [Error] naming the flag, never an exception, so
    no input reaches an experiment that would make it raise. *)

type arg =
  | Switch of (Experiments.ctx -> Experiments.ctx)  (** takes no value *)
  | Value of {
      docv : string;  (** the value's placeholder in usage text *)
      parse : string -> Experiments.ctx -> (Experiments.ctx, string) result;
    }

type flag = {
  names : string list;  (** long name first; one-letter names are short flags *)
  doc : string;  (** plain text *)
  arg : arg;
}

val flags : flag list
(** [--quick --seed --trace --metrics --faults --scenario --policy
    --jobs/-j --topology --hosts --guests --tenants --vfs
    --datapath], each setting only its own field. *)

val dashed : string -> string
(** ["seed"] ↦ ["--seed"], ["j"] ↦ ["-j"]. *)

val print_list : unit -> unit
(** One line per registered experiment: id, paper reference, title. *)

val trace_line : Bm_engine.Trace.t -> string -> string
(** [trace_line t file] is the line {!print_results} reports the trace
    export with: the events written to [file] and, when the ring
    wrapped, how many earlier events it dropped. *)

val print_results :
  Experiments.ctx -> (string * (Experiments.outcome, string) result) list -> (unit, string) result
(** Print the outcomes in order, then the metrics table and the trace
    file the ctx asked for. Stops at the first [Error] and returns it. *)

open Bm_engine
open Experiments

type arg =
  | Switch of (ctx -> ctx)
  | Value of { docv : string; parse : string -> ctx -> (ctx, string) result }

type flag = { names : string list; doc : string; arg : arg }

let dashed name = if String.length name = 1 then "-" ^ name else "--" ^ name

let switch names doc set = { names; doc; arg = Switch set }

(* Every error names the flag, so both front ends print it as is. *)
let value names docv doc parse =
  let parse s ctx =
    Result.map_error (Printf.sprintf "%s: %s" (dashed (List.hd names))) (parse s ctx)
  in
  { names; doc; arg = Value { docv; parse } }

let int_in ?(hi = max_int) ~lo s =
  match int_of_string_opt s with
  | Some n when n >= lo && n <= hi -> Ok n
  | Some _ | None when hi = max_int -> Error (Printf.sprintf "expected an integer >= %d, got %S" lo s)
  | Some _ | None -> Error (Printf.sprintf "expected an integer in %d..%d, got %S" lo hi s)

(* 0 means one domain per recommended core. *)
let domains s = Result.map (function 0 -> Parallel.default_jobs () | n -> n) (int_in ~lo:0 s)

let named what all name s =
  match List.find_opt (fun x -> name x = s) all with
  | Some x -> Ok x
  | None ->
    Error (Printf.sprintf "unknown %s %S (try: %s)" what s (String.concat ", " (List.map name all)))

let flags =
  [
    switch [ "quick" ] "Run at reduced scale (CI-sized populations and durations)." (fun c ->
        { c with quick = true });
    value [ "seed" ] "N" "Deterministic seed for every simulation (default 2020)." (fun s c ->
        match int_of_string_opt s with
        | Some seed -> Ok { c with seed }
        | None -> Error (Printf.sprintf "expected an integer, got %S" s));
    value [ "trace" ] "FILE"
      "Record the datapath as Chrome trace_event JSON into FILE (open in chrome://tracing or \
       Perfetto)."
      (fun file c ->
        let dir = Filename.dirname file in
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          Error (Printf.sprintf "no such directory %S" dir)
        else if Sys.file_exists file && Sys.is_directory file then
          Error (Printf.sprintf "%S is a directory" file)
        else Ok { c with trace = Some (Trace.create ()); trace_file = Some file });
    switch [ "metrics" ] "Collect datapath metrics and print the summary table after the run."
      (fun c -> { c with metrics = Some (Metrics.create ()) });
    value [ "faults" ] "SEED:SPEC"
      "Arm a deterministic fault plan in the experiments that model failure. SPEC is 'default' \
       or comma-separated kind=count pairs (kinds: link_down, dma_stall, mailbox_drop, \
       firmware_wedge, pmd_crash, server_failure, fabric_link_down, vf_stall, \
       vf_reassign_timeout), optionally with horizon=NS. Example: 42:link_down=2,firmware_wedge=1."
      (fun s c -> Result.map (fun p -> { c with faults = Some p }) (Fault.parse_spec s));
    value [ "scenario" ] "SEED:SPEC"
      "Game-day timeline for game_day and policy_race. SPEC is 'default' or comma-separated \
       key=value pairs (keys: hosts, links, congest, evac, brownout, vfstall, vfwedge, \
       ramp=LO-HI, horizon=NS). Example: 42:hosts=2,links=1,congest=1,evac=1."
      (fun s c -> Result.map (fun sc -> { c with scenario = Some sc }) (Scenario.parse_spec s));
    value [ "policy" ] "NAME"
      "Degradation policy game_day closes the loop with: ladder (default), selective, tiered or \
       congestion. policy_race runs all four regardless."
      (fun s c ->
        Result.map
          (fun p -> { c with policy = Some p })
          (named "policy" Bm_cloud.Policy.all Bm_cloud.Policy.name s));
    value [ "jobs"; "j" ] "N"
      "Use up to N domains (0 = one per core): several experiments run at once, or a single \
       experiment races its independent arms (game_day, policy_race, vf_scale, vf_ablation). \
       Output is byte-identical for any N; forced to 1 by --trace or --metrics."
      (fun s c -> Result.map (fun jobs -> { c with jobs }) (domains s));
    value [ "topology" ] "SPEC"
      "Fabric topology for the cross-host (xhost_*) and fleet experiments: 'two_host' or \
       comma-separated key=value pairs (keys: hosts, tors, spines, host_gbit, spine_gbit, \
       host_lat_us, spine_lat_us, queue). Example: hosts=4,tors=2,spines=2,spine_gbit=10."
      (fun s c ->
        match Bm_fabric.Topology.parse_spec s with
        | Ok t when t.Bm_fabric.Topology.hosts >= 2 -> Ok { c with topo = Some t }
        | Ok _ -> Error "the cross-host experiments need hosts >= 2"
        | Error e -> Error e);
    (* The floors Fleet.Live.build enforces. *)
    value [ "hosts" ] "N" "Host count for fleet_scale (at least 2)." (fun s c ->
        Result.map (fun n -> { c with hosts = Some n }) (int_in ~lo:2 s));
    value [ "guests" ] "N" "Guest population for fleet_scale." (fun s c ->
        Result.map (fun n -> { c with guests = Some n }) (int_in ~lo:1 s));
    value [ "tenants" ] "N" "Tenant count for fleet_scale." (fun s c ->
        Result.map (fun n -> { c with tenants = Some n }) (int_in ~lo:1 s));
    value [ "vfs" ] "N"
      (Printf.sprintf
         "SR-IOV virtual functions per device/pool in vf_scale, vf_reassign and vf_ablation \
          (1..%d); each experiment's default otherwise."
         Bm_iobond.Vf.max_vfs)
      (fun s c ->
        Result.map (fun n -> { c with vfs = Some n }) (int_in ~lo:1 ~hi:Bm_iobond.Vf.max_vfs s));
    value [ "datapath" ] "NAME"
      "Restrict vf_ablation to one guest datapath: vring (the shadow-vring poll loop), \
       passthrough (whole-device assignment) or vf (one sliced virtual function)."
      (fun s c ->
        Result.map
          (fun d -> { c with datapath = Some d })
          (named "datapath" Bm_iobond.Vf.all_datapaths Bm_iobond.Vf.datapath_name s));
  ]

let print_list () =
  List.iter
    (fun (s : spec) -> Printf.printf "%-10s %-10s %s\n" s.id s.paper_ref s.title)
    Experiments.all

let trace_line t file =
  let dropped = Trace.dropped t in
  Printf.sprintf "trace: %d event(s) written to %s%s (open in chrome://tracing)"
    (List.length (Trace.events t))
    file
    (if dropped > 0 then Printf.sprintf ", %d earlier event(s) dropped" dropped else "")

let print_results ctx results =
  let rec outcomes = function
    | [] -> Ok ()
    | (_, Error e) :: _ -> Error e
    | (_, Ok o) :: rest ->
      print_outcome o;
      outcomes rest
  in
  Result.map
    (fun () ->
      (match ctx.metrics with
      | Some m when not (Metrics.is_empty m) ->
        print_endline "";
        print_endline (Report.metrics_table ~title:"datapath metrics" m)
      | Some _ | None -> ());
      match (ctx.trace, ctx.trace_file) with
      | Some t, Some file ->
        Out_channel.with_open_text file (fun oc -> output_string oc (Trace.export_json t));
        Printf.printf "\n%s\n" (trace_line t file)
      | _ -> ())
    (outcomes results)

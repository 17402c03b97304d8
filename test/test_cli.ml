(* The shared flag table: every flag parses a good value, and every bad
   value is an [Error] naming the flag — never an exception, so neither
   front end can crash on its input. *)

open Bmhive

let tmp = Filename.get_temp_dir_name ()
let max_vfs = Bm_iobond.Vf.max_vfs

(* (flag, good values, bad values); switches take no value. *)
let cases =
  [
    ("quick", [], []);
    ("seed", [ "7"; "-3" ], [ "x"; "1.5"; "" ]);
    ("trace", [ Filename.concat tmp "t.json" ], [ "/no/such/dir/t.json"; tmp ]);
    ("metrics", [], []);
    ("faults", [ "42:default"; "7:link_down=2,firmware_wedge=1" ], [ "bogus"; "x:default"; "7:warp=1" ]);
    ("scenario", [ "42:default"; "7:hosts=2,links=1,evac=1" ], [ "bogus"; "7:hosts=x"; "7:nope=1" ]);
    ("policy", [ "ladder"; "selective"; "tiered"; "congestion" ], [ "panic"; "" ]);
    ("jobs", [ "0"; "1"; "4" ], [ "-1"; "x"; "2.5" ]);
    ("topology", [ "two_host"; "hosts=4,tors=2,spines=2" ], [ "bogus"; "hosts=x"; "hosts=1" ]);
    ("hosts", [ "2"; "40" ], [ "0"; "1"; "-4"; "x" ]);
    ("guests", [ "1"; "800" ], [ "0"; "-1"; "many" ]);
    ("tenants", [ "1"; "8" ], [ "0"; "x" ]);
    ("vfs", [ "1"; string_of_int max_vfs ], [ "0"; string_of_int (max_vfs + 1); "1000"; "x" ]);
    ("datapath", [ "vring"; "passthrough"; "vf" ], [ "sriov"; "" ]);
  ]

let find name = List.find (fun (f : Cli.flag) -> List.hd f.names = name) Cli.flags

let test_table_covered () =
  Alcotest.(check (list string))
    "one case per flag"
    (List.map (fun (f : Cli.flag) -> List.hd f.names) Cli.flags)
    (List.map (fun (n, _, _) -> n) cases)

let test_values () =
  List.iter
    (fun (name, good, bad) ->
      match (find name).arg with
      | Switch set -> ignore (set Experiments.default)
      | Value { parse; _ } ->
        List.iter
          (fun v ->
            match parse v Experiments.default with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "--%s %S rejected: %s" name v e)
          good;
        List.iter
          (fun v ->
            match parse v Experiments.default with
            | Ok _ -> Alcotest.failf "--%s %S accepted" name v
            | Error e ->
              Alcotest.(check bool)
                (Printf.sprintf "--%s %S error names the flag" name v)
                true
                (String.starts_with ~prefix:("--" ^ name ^ ":") e)
            | exception ex -> Alcotest.failf "--%s %S raised %s" name v (Printexc.to_string ex))
          bad)
    cases

(* Each flag sets its own field; 0 domains means one per core. *)
let test_fields () =
  let parse name v =
    match (find name).arg with
    | Value { parse; _ } -> Result.get_ok (parse v Experiments.default)
    | Switch set -> set Experiments.default
  in
  let open Experiments in
  Alcotest.(check bool) "quick" true (parse "quick" "").quick;
  Alcotest.(check int) "seed" 7 (parse "seed" "7").seed;
  Alcotest.(check bool) "metrics sink" true ((parse "metrics" "").metrics <> None);
  Alcotest.(check (option int)) "hosts" (Some 40) (parse "hosts" "40").hosts;
  Alcotest.(check (option int)) "vfs" (Some 4) (parse "vfs" "4").vfs;
  Alcotest.(check int) "jobs 0" (Parallel.default_jobs ()) (parse "jobs" "0").jobs;
  Alcotest.(check bool) "policy" true ((parse "policy" "tiered").policy = Some Bm_cloud.Policy.Tiered);
  Alcotest.(check (option string))
    "trace file" (Some (Filename.concat tmp "t.json"))
    (parse "trace" (Filename.concat tmp "t.json")).trace_file

(* The trace line names the events a wrapped ring dropped, and says
   nothing of drops when there were none. *)
let test_trace_line () =
  let t = Bm_engine.Trace.create ~capacity:4 () in
  let emit n =
    for i = 1 to n do
      Bm_engine.Trace.instant t ~track:"cli" "e" ~now:(float_of_int i)
    done
  in
  emit 3;
  Alcotest.(check string)
    "no drops" "trace: 3 event(s) written to t.json (open in chrome://tracing)"
    (Cli.trace_line t "t.json");
  emit 7;
  Alcotest.(check string)
    "drops reported"
    "trace: 4 event(s) written to t.json, 6 earlier event(s) dropped (open in chrome://tracing)"
    (Cli.trace_line t "t.json")

let suites =
  [
    ( "core.cli",
      [
        Alcotest.test_case "every flag has a case" `Quick test_table_covered;
        Alcotest.test_case "good values parse, bad values are errors" `Quick test_values;
        Alcotest.test_case "flags set their fields" `Quick test_fields;
        Alcotest.test_case "trace line reports drops" `Quick test_trace_line;
      ] );
  ]

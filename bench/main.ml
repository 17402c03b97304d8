(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     bench/main.exe                 run every experiment (full scale)
     bench/main.exe fig12 fig13     run selected experiments
     bench/main.exe --quick         reduced scale (CI-sized)
     bench/main.exe --list          list experiment ids
     bench/main.exe --help          every flag (the table in Bmhive.Cli) *)

open Bmhive

let usage oc =
  let synopsis (f : Cli.flag) =
    let name = Cli.dashed (List.hd f.names) in
    match f.arg with Switch _ -> name | Value { docv; _ } -> name ^ " " ^ docv
  in
  Printf.fprintf oc "usage: main.exe [flags] [--list] [experiment ids...]\n";
  List.iter (fun f -> Printf.fprintf oc "  %-20s %s\n" (synopsis f) f.Cli.doc) Cli.flags

(* Flags consume their own values; everything else is a positional
   experiment id. *)
let rec parse (ctx, mode, ids) = function
  | [] -> Ok (ctx, mode, List.rev ids)
  | "--list" :: rest -> parse (ctx, `List, ids) rest
  | ("--help" | "-h") :: rest -> parse (ctx, `Help, ids) rest
  | arg :: rest when String.length arg > 1 && arg.[0] = '-' -> (
    let named (f : Cli.flag) = List.exists (fun n -> Cli.dashed n = arg) f.names in
    match List.find_opt named Cli.flags with
    | None -> Error (Printf.sprintf "unknown flag %S" arg)
    | Some { arg = Switch set; _ } -> parse (set ctx, mode, ids) rest
    | Some { arg = Value { docv; parse = value }; _ } -> (
      match rest with
      | v :: rest -> Result.bind (value v ctx) (fun ctx -> parse (ctx, mode, ids) rest)
      | [] -> Error (Printf.sprintf "%s expects %s" arg docv)))
  | id :: rest -> parse (ctx, mode, id :: ids) rest

let () =
  match parse (Experiments.default, `Run, []) (List.tl (Array.to_list Sys.argv)) with
  | Error e ->
    prerr_endline e;
    usage stderr;
    exit 2
  | Ok (_, `Help, _) -> usage stdout
  | Ok (_, `List, _) -> Cli.print_list ()
  | Ok (ctx, `Run, ids) ->
    let t0 = Unix.gettimeofday () in
    (* Cells run on up to --jobs domains; results come back in argument
       order, so stdout is byte-identical whatever the job count. *)
    let results = Experiments.run ctx ids in
    (match Cli.print_results ctx results with
    | Ok () -> ()
    | Error e ->
      prerr_endline e;
      exit 1);
    Printf.printf "\n%d experiment(s) in %.1fs (%s scale, seed %d)\n" (List.length results)
      (Unix.gettimeofday () -. t0)
      (if ctx.Experiments.quick then "quick" else "full")
      ctx.seed

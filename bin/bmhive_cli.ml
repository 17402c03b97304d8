(* bmhive — command-line front end for the BM-Hive reproduction.

   Subcommands:
     list                      experiment registry
     run <id>... [--quick]     regenerate tables/figures
     catalogue                 Table 3 instance families
     demo                      provision + boot + a little traffic
*)

open Cmdliner

(* The shared flag table (Bmhive.Cli) as one cmdliner term: each flag
   becomes an optional argument, folded into the ctx in table order. The
   first bad value becomes a usage error naming the flag. *)
let ctx_term flags =
  List.fold_left
    (fun acc (f : Bmhive.Cli.flag) ->
      match f.arg with
      | Switch set ->
        let on = Arg.(value & flag & info f.names ~doc:f.doc) in
        Term.(const (fun acc on -> if on then Result.map set acc else acc) $ acc $ on)
      | Value { docv; parse } ->
        let v = Arg.(value & opt (some string) None & info f.names ~docv ~doc:f.doc) in
        Term.(const (fun acc v -> Option.fold v ~none:acc ~some:(fun s -> Result.bind acc (parse s)))
              $ acc $ v))
    (Term.const (Ok Bmhive.Experiments.default))
    flags

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible experiment (one per table/figure).")
    Term.(const (fun () -> Bmhive.Cli.print_list (); 0) $ const ())

(* --- run ------------------------------------------------------------ *)

let run_cmd =
  let ids_arg =
    let doc = "Experiment ids (see $(b,list)); all when omitted." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  (* A bad flag is a usage error (cmdliner's exit 124); an experiment
     that rejects its target or settings exits 1, as bench/main.exe
     does. *)
  let run ctx ids =
    match ctx with
    | Error e -> `Error (true, e)
    | Ok ctx -> (
      match Bmhive.Cli.print_results ctx (Bmhive.Experiments.run ctx ids) with
      | Ok () -> `Ok 0
      | Error e ->
        prerr_endline e;
        `Ok 1)
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"on an unknown experiment id or a setting an experiment rejects."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Regenerate the paper's tables and figures from the simulation.")
    Term.(ret (const run $ ctx_term Bmhive.Cli.flags $ ids_arg))

(* --- catalogue ------------------------------------------------------ *)

let catalogue_cmd =
  let run () =
    List.iter
      (fun i -> Format.printf "%a@." Bmhive.Instances.pp i)
      Bmhive.Instances.catalogue
  in
  Cmd.v (Cmd.info "catalogue" ~doc:"Print the bare-metal instance catalogue (Table 3).")
    Term.(const (fun () -> run (); 0) $ const ())

(* --- demo ----------------------------------------------------------- *)

let demo_cmd =
  let run seed =
    let open Bm_engine in
    let open Bm_workload in
    let tb = Testbed.make ~seed () in
    let server = Testbed.bm_server tb in
    (match Bm_hyp.Bm_hypervisor.provision server ~name:"demo" () with
    | Error e -> `Error (false, e)
    | Ok guest ->
      Sim.spawn tb.Testbed.sim (fun () ->
          match Bm_guest.Boot.run guest ~image:Bm_cloud.Image.centos7 () with
          | Error e -> failwith e
          | Ok t ->
            Printf.printf "booted %s on a compute board in %s\n"
              Bm_cloud.Image.centos7.Bm_cloud.Image.name
              (Simtime.to_string t.Bm_guest.Boot.total_ns);
            let lat = ref 0.0 in
            for _ = 1 to 100 do
              lat := !lat +. guest.Bm_guest.Instance.blk ~op:`Read ~bytes_:4096
            done;
            Printf.printf "cloud storage: %.0fus avg over 100 reads\n" (!lat /. 100.0 /. 1e3));
      Testbed.run tb;
      print_endline "demo done.";
      `Ok 0)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Provision a bm-guest, boot it, and run a little I/O.")
    Term.(
      ret
        (const (function Ok ctx -> run ctx.Bmhive.Experiments.seed | Error e -> `Error (true, e))
        $ ctx_term (List.filter (fun f -> f.Bmhive.Cli.names = [ "seed" ]) Bmhive.Cli.flags)))

let () =
  let doc = "BM-Hive (ASPLOS '20) reproduction: high-density multi-tenant bare-metal cloud" in
  let info = Cmd.info "bmhive" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ list_cmd; run_cmd; catalogue_cmd; demo_cmd ]))

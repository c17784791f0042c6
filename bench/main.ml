(* Experiment harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe            run everything
     dune exec bench/main.exe -- -e ID   run one experiment
     dune exec bench/main.exe -- -l      list experiments

   Exits 1 when a shape check an experiment makes is false.

   Environment:
     SIDER_BENCH_RUNS   repetitions per Table II cell (default 1)
     SIDER_BENCH_FULL   "1" to include the slow d=128 Table II column
     SIDER_TRACE        "stderr" prints every span (each FastICA fit with
                        its iteration count and convergence) and, at exit,
                        the counters; as for sider *)

let experiments =
  [ "fig2", "3-D introduction example (Fig. 2)", Exp_fig2.run;
    "table1", "X̂5 ICA score decay (Table I, Figs. 3, 4, 6)", Exp_table1.run;
    "fig5", "adversarial convergence (Fig. 5)", Exp_fig5.run;
    "table2", "runtime grid (Table II)", Exp_table2.run;
    "fig7", "BNC use case (Figs. 7-8)", Exp_corpus.run;
    "fig9", "Image Segmentation use case (Fig. 9)", Exp_segmentation.run;
    "related", "static embeddings vs SIDER (Secs. I, V)", Exp_related.run;
    "ablation", "design-choice ablations", Exp_ablation.run ]

let aliases =
  [ "fig3", "table1"; "fig4", "table1"; "fig6", "table1"; "fig8", "fig7";
    "fig7+fig8", "fig7" ]

let list_experiments () =
  List.iter
    (fun (id, title, _) -> Printf.printf "%-10s %s\n" id title)
    experiments

let run_one id =
  let id = match List.assoc_opt id aliases with Some a -> a | None -> id in
  match List.find_opt (fun (i, _, _) -> String.equal i id) experiments with
  | Some (_, _, f) -> f ()
  | None ->
    Printf.eprintf "unknown experiment %S; use -l to list\n" id;
    exit 1

let () =
  Sider_obs.Obs.install_from_env ();
  at_exit Sider_obs.Obs.flush;
  let args = Array.to_list Sys.argv in
  (match args with
   | _ :: "-l" :: _ -> list_experiments ()
   | _ :: "-e" :: ids -> List.iter run_one ids
   | _ :: [] ->
     let t0 = Unix.gettimeofday () in
     List.iter (fun (_, _, f) -> f ()) experiments;
     Printf.printf "\nAll experiments finished in %.1f s.\n"
       (Unix.gettimeofday () -. t0)
   | _ ->
     prerr_endline "usage: main.exe [-l | -e EXPERIMENT...]";
     exit 1);
  match !Bench_common.failed_checks with
  | [] -> ()
  | failed ->
    List.iter (Printf.eprintf "shape check failed: %s\n") (List.rev failed);
    exit 1

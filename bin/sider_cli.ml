(* sider — command-line interface to the SIDER engine.

   Subcommands:
     datasets     list the built-in datasets
     view         print the most informative projection of a dataset
     explore      run the full simulated-analyst exploration loop
     repl         interactive session (select / cluster / update / next)
     replay       reload a saved session snapshot and continue
     export       generate a built-in dataset as CSV
     runtime      run a single OPTIM/ICA timing cell (Table II)
     trace        replay a session with the observability stderr sink on
     convergence  plot the solver's per-sweep convergence
     api          run the multi-tenant session service (JSON API + WAL,
                  Prometheus /metrics); the one command that hosts it
     load         drive concurrent analysts against a running session API
     top          poll a session API's /metrics and render a dashboard

   Datasets are built-in generators (three_d, x5, corpus, segmentation,
   gaussian) or any CSV file with a header row.

   Telemetry defaults: every invocation honours SIDER_TRACE (stderr /
   null), keeps the crash-forensics flight recorder on (auto-dumping to
   stderr when the engine records an error), and accepts a uniform
   --trace-json FILE flag that mirrors the span/metric stream to a
   JSON-lines file. *)

open Cmdliner
open Sider_data
open Sider_core
open Sider_projection
module Obs = Sider_obs.Obs

(* --- dataset loading ------------------------------------------------------- *)

let builtin_datasets =
  [ "three_d", "150×3, the paper's Fig. 2 introduction data";
    "x5", "1000×5, the paper's Fig. 3 running example";
    "corpus", "1335×100 synthetic BNC stand-in (Sec. IV-B)";
    "segmentation", "2310×19 synthetic UCI stand-in (Sec. IV-C)";
    "cytometry", "20000×10 synthetic flow-cytometry events (Sec. VI)";
    "gaussian", "1000×8 pure noise (null case)" ]

let load_dataset ~seed ~label_column name =
  match name with
  | "three_d" -> Synth.three_d ~seed ()
  | "x5" -> (Synth.x5 ~seed ()).Synth.data
  | "corpus" -> Corpus.generate ~seed ()
  | "segmentation" -> Segmentation.generate ~seed ()
  | "cytometry" -> Cytometry.generate ~seed ()
  | "gaussian" -> Synth.gaussian ~seed ~n:1000 ~d:8 ()
  | path when Sys.file_exists path -> Csv.read_file ?label_column path
  | other ->
    raise
      (Failure
         (Printf.sprintf
            "unknown dataset %S (not a builtin, not an existing file)" other))

(* --- common options ----------------------------------------------------------- *)

(* Uniform tracing flag: every subcommand accepts [--trace-json FILE] and
   mirrors the observability stream there as JSON lines.  The channel is
   closed (after a best-effort flush) by the [at_exit] hook in [main], so
   even a run that dies on an exception keeps the spans written so far. *)
let trace_json_out : out_channel option ref = ref None

let setup_trace_json = function
  | None -> ()
  | Some path ->
    let oc = open_out path in
    trace_json_out := Some oc;
    Obs.set_sink
      (Some
         (Obs.json_sink (fun line ->
              output_string oc line;
              output_char oc '\n')))

let trace_json_t =
  let doc =
    "Mirror the observability stream (spans, metrics flush) to $(docv) \
     as JSON lines."
  in
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE" ~doc)

let obs_setup_t = Term.(const setup_trace_json $ trace_json_t)

let seed_t =
  let doc = "Random seed (controls generators, sampling and FastICA)." in
  Arg.(value & opt int 2018 & info [ "seed" ] ~docv:"SEED" ~doc)

let label_column_t =
  let doc = "Name of the class-label column when loading a CSV file." in
  Arg.(value & opt (some string) None & info [ "label-column" ] ~docv:"COL" ~doc)

let dataset_t =
  let doc =
    "Dataset: a builtin name (see $(b,sider datasets)) or a CSV path."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DATASET" ~doc)

let method_t =
  let method_conv = Arg.enum [ ("pca", View.Pca); ("ica", View.Ica) ] in
  let doc = "Projection method: $(b,pca) or $(b,ica)." in
  Arg.(value & opt method_conv View.Pca & info [ "method" ] ~docv:"M" ~doc)

let svg_t =
  let doc = "Also write the view as an SVG file to $(docv)." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"PATH" ~doc)

(* --- datasets ------------------------------------------------------------------ *)

let datasets_cmd =
  let run () =
    List.iter
      (fun (name, desc) -> Printf.printf "%-14s %s\n" name desc)
      builtin_datasets
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List built-in datasets")
    Term.(const run $ obs_setup_t)

(* --- view ------------------------------------------------------------------------ *)

let view_cmd =
  let run () dataset seed label_column method_ svg =
    let ds = load_dataset ~seed ~label_column dataset in
    let session = Session.create ~seed ~method_ ds in
    print_endline (Dataset.describe ds);
    print_string (Sider_viz.Ascii_plot.render_session ~width:76 ~height:22 session);
    (match svg with
     | Some path ->
       Sider_viz.Svg.write_file path (Sider_viz.Svg.session_figure session);
       Printf.printf "wrote %s\n" path
     | None -> ())
  in
  Cmd.v
    (Cmd.info "view"
       ~doc:"Show the most informative projection of a dataset")
    Term.(const run $ obs_setup_t $ dataset_t $ seed_t $ label_column_t
          $ method_t $ svg_t)

(* --- explore --------------------------------------------------------------------- *)

let explore_cmd =
  let iterations_t =
    Arg.(value & opt int 6 & info [ "iterations" ] ~docv:"N"
           ~doc:"Maximum exploration iterations.")
  in
  let threshold_t =
    Arg.(value & opt float 0.01 & info [ "threshold" ] ~docv:"S"
           ~doc:"Stop when the leading view score drops below $(docv).")
  in
  let cutoff_t =
    Arg.(value & opt float 10.0 & info [ "time-cutoff" ] ~docv:"SECONDS"
           ~doc:"MaxEnt solver time cutoff per update (SIDER default 10s).")
  in
  let run () dataset seed label_column method_ iterations threshold cutoff =
    let ds = load_dataset ~seed ~label_column dataset in
    let session = Session.create ~seed ~method_ ds in
    print_endline (Dataset.describe ds);
    let result =
      Auto_explore.run ~max_iterations:iterations ~score_threshold:threshold
        ~time_cutoff:cutoff session
    in
    List.iter
      (fun it ->
        let s1, s2 = it.Auto_explore.scores in
        Printf.printf "\n== Iteration %d (scores %.3g / %.3g) ==\n"
          it.Auto_explore.step s1 s2;
        Printf.printf "%s\n%s\n" it.Auto_explore.axis1_label
          it.Auto_explore.axis2_label;
        Array.iteri
          (fun i sel ->
            let cls =
              match it.Auto_explore.class_matches.(i) with
              | (c, j) :: _ -> Printf.sprintf " -> %s (Jaccard %.3f)" c j
              | [] -> ""
            in
            Printf.printf "marked %d points%s\n" (Array.length sel) cls)
          it.Auto_explore.selections;
        Printf.printf "solver: %d sweeps in %.2f s\n"
          it.Auto_explore.solver_report.Sider_maxent.Solver.sweeps
          it.Auto_explore.solver_report.Sider_maxent.Solver.elapsed)
      result.Auto_explore.iterations;
    let s1, s2 = result.Auto_explore.final_scores in
    Printf.printf "\nfinal scores %.3g / %.3g — %s\n" s1 s2
      (match result.Auto_explore.stopped with
       | `Converged -> "background explains the data"
       | `Max_iterations -> "iteration budget reached"
       | `Degraded e ->
         Printf.sprintf
           "stopped early after a numerical fault (%s); showing the last \
            good state"
           (Sider_robust.Sider_error.to_string e))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Run the full simulated-analyst exploration loop")
    Term.(const run $ obs_setup_t $ dataset_t $ seed_t $ label_column_t
          $ method_t $ iterations_t $ threshold_t $ cutoff_t)

(* --- repl ------------------------------------------------------------------------ *)

let repl_cmd =
  let run () dataset seed label_column method_ =
    let ds = load_dataset ~seed ~label_column dataset in
    let session = Session.create ~seed ~method_ ds in
    print_endline (Dataset.describe ds);
    Repl.run session
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive terminal session (select / cluster / update / next)")
    Term.(const run $ obs_setup_t $ dataset_t $ seed_t $ label_column_t
          $ method_t)

(* --- replay ---------------------------------------------------------------------- *)

let replay_cmd =
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SESSION.json"
           ~doc:"Session snapshot written by the repl's `savesession`.")
  in
  let run () path =
    let session = Persist.load path in
    Printf.printf "replayed %s: %d constraints, %d interactions\n" path
      (Array.length (Sider_maxent.Solver.constraints (Session.solver session)))
      (List.length (Session.history session));
    print_string
      (Sider_viz.Ascii_plot.render_session ~width:76 ~height:22 session);
    Repl.run session
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Reload a saved session (exact deterministic replay) and \
             continue interactively")
    Term.(const run $ obs_setup_t $ path_t)

(* --- export ----------------------------------------------------------------------- *)

let export_cmd =
  let out_t =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT.csv"
           ~doc:"Output CSV path.")
  in
  let run () dataset seed out =
    let ds = load_dataset ~seed ~label_column:None dataset in
    Csv.write_file out ds;
    Printf.printf "wrote %s (%s)\n" out (Dataset.describe ds)
  in
  Cmd.v (Cmd.info "export" ~doc:"Write a built-in dataset to CSV")
    Term.(const run $ obs_setup_t $ dataset_t $ seed_t $ out_t)

(* --- doctor ----------------------------------------------------------------------- *)

let doctor_cmd =
  let shallow_t =
    Arg.(value & flag
         & info [ "shallow" ]
             ~doc:"Skip the end-to-end solver probe (static checks only).")
  in
  let flight_t =
    Arg.(value & flag
         & info [ "flight-recorder" ]
             ~doc:"After the report, dump the flight recorder's current \
                   entries (JSON lines) to stdout.")
  in
  let snapshot_t =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Validate a persistence artifact instead of a dataset: \
                   a session snapshot or a write-ahead journal.  Checks \
                   format version, checksum and full replayability \
                   exactly as boot-time recovery would.")
  in
  let trace_id_t =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"ID"
             ~doc:"Correlate a trace id with flight-recorder dumps: \
                   search the positional argument (a dump file, or a \
                   directory of dumps; default $(b,.)) for lines \
                   containing $(docv) and print each with its location. \
                   Exits 0 when at least one line matched, 2 otherwise.")
  in
  let dataset_opt_t =
    let doc =
      "Dataset: a builtin name (see $(b,sider datasets)) or a CSV path. \
       Optional when $(b,--snapshot) is given; with $(b,--trace), a \
       flight-dump file or directory instead."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DATASET" ~doc)
  in
  (* Naive scan — dump files are small (bounded ring).  The match is
     token-exact, not substring: an occurrence only counts when the
     surrounding characters fall outside the trace-id charset, so
     grepping for [load-0-1] cannot also hit [load-0-10]. *)
  let id_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | ':' | '-' -> true
    | _ -> false
  in
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let bounded i =
      (i = 0 || not (id_char hay.[i - 1]))
      && (i + nn = nh || not (id_char hay.[i + nn]))
    in
    let rec go i =
      i + nn <= nh
      && ((String.sub hay i nn = needle && bounded i) || go (i + 1))
    in
    nn = 0 || go 0
  in
  let grep_trace id path =
    let files =
      if Sys.file_exists path && Sys.is_directory path then
        Sys.readdir path |> Array.to_list |> List.sort compare
        |> List.map (Filename.concat path)
        |> List.filter (fun f -> not (Sys.is_directory f))
      else [ path ]
    in
    let hits = ref 0 in
    List.iter
      (fun file ->
        match open_in file with
        | exception Sys_error _ -> ()
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let ln = ref 0 in
              try
                while true do
                  let line = input_line ic in
                  incr ln;
                  if contains_sub line id then begin
                    incr hits;
                    Printf.printf "%s:%d: %s\n" file !ln line
                  end
                done
              with End_of_file -> ()))
      files;
    !hits
  in
  let run () dataset seed label_column shallow flight snapshot trace_id =
    match trace_id with
    | Some id ->
      let path = Option.value dataset ~default:"." in
      let hits = grep_trace id path in
      Printf.printf "%d line(s) matching trace %s under %s\n" hits id path;
      if hits = 0 then Stdlib.exit 2
    | None ->
    let report =
      match (snapshot, dataset) with
      | Some path, _ -> Doctor.check_store path
      | None, Some dataset ->
        (match
           Sider_robust.Sider_error.protect (fun () ->
               load_dataset ~seed ~label_column dataset)
         with
         | Ok ds ->
           Printf.printf "%s\n" (Dataset.describe ds);
           Doctor.check_dataset ~deep:(not shallow) ~seed ds
         | Error e ->
           Doctor.fault ~check:"load"
             (Sider_robust.Sider_error.to_string e)
         | exception Failure msg -> Doctor.fault ~check:"load" msg)
      | None, None ->
        Doctor.fault ~check:"usage"
          "a DATASET argument or --snapshot FILE is required"
    in
    print_string (Doctor.to_string report);
    if flight then
      ignore
        (Obs.dump_flight_recorder ~out:stdout
           ~reason:"doctor --flight-recorder" ());
    if not report.Doctor.healthy then Stdlib.exit 2
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:"Diagnose a dataset (static health checks, an end-to-end \
             solver probe, a telemetry self-check), a persistence \
             artifact with $(b,--snapshot), or correlate a request \
             trace id with flight-recorder dumps with $(b,--trace).  \
             Exits 0 when healthy, 2 when a fault was diagnosed.")
    Term.(const run $ obs_setup_t $ dataset_opt_t $ seed_t $ label_column_t
          $ shallow_t $ flight_t $ snapshot_t $ trace_id_t)

(* --- trace ------------------------------------------------------------------------ *)

(* Replays a canonical two-round feedback session with the stderr
   tracing sink installed: every solver sweep, whitening and projection
   fit prints as an indented span (children close before their parent),
   and the run ends with the metrics tables (the solver's update and
   Woodbury fast-path counters, the end-to-end update latency histogram,
   GC gauges).  Spans go to stderr so stdout stays scriptable. *)
let trace_cmd =
  let cutoff_t =
    Arg.(value & opt float 10.0 & info [ "time-cutoff" ] ~docv:"SECONDS"
           ~doc:"MaxEnt solver time cutoff per update.")
  in
  let run () dataset seed label_column method_ cutoff =
    let ds = load_dataset ~seed ~label_column dataset in
    print_endline (Dataset.describe ds);
    (* [--trace-json] (or SIDER_TRACE) may have installed a sink already;
       keep it — the stderr sink is only the default. *)
    let installed_here = not (Obs.sink_installed ()) in
    if installed_here then Obs.set_sink (Some (Obs.stderr_sink ()));
    Fun.protect
      ~finally:(fun () -> if installed_here then Obs.set_sink None)
    @@ fun () ->
    let session = Session.create ~seed ~method_ ds in
    let report label = function
      | Ok r ->
        Printf.printf "%s: %d sweeps in %.3fs, converged %b\n%!" label
          r.Sider_maxent.Solver.sweeps r.Sider_maxent.Solver.elapsed
          r.Sider_maxent.Solver.converged
      | Error e ->
        Printf.printf "%s: rolled back (%s)\n%!" label
          (Sider_robust.Sider_error.to_string e)
    in
    Session.add_margin_constraint session;
    report "margin update"
      (Session.update_background ~time_cutoff:cutoff session);
    ignore (Session.recompute_view session);
    Session.add_one_cluster_constraint session;
    report "1-cluster update"
      (Session.update_background ~time_cutoff:cutoff session);
    ignore (Session.recompute_view session);
    let s1, s2 = Session.view_scores session in
    Printf.printf "final view scores %.3g / %.3g\n%!" s1 s2;
    Obs.flush ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a margin + 1-cluster feedback session with the \
             tracing sink enabled: nested spans with per-sweep timings \
             and a metrics summary on stderr.")
    Term.(const run $ obs_setup_t $ dataset_t $ seed_t $ label_column_t
          $ method_t $ cutoff_t)

(* --- runtime ---------------------------------------------------------------------- *)

let runtime_cmd =
  let n_t = Arg.(value & opt int 2048 & info [ "n" ] ~doc:"Rows.") in
  let d_t = Arg.(value & opt int 16 & info [ "d" ] ~doc:"Dimensions.") in
  let k_t = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Clusters.") in
  let run () n d k seed =
    let ds = Synth.clustered ~seed ~n ~d ~k () in
    let data = Dataset.matrix ds in
    let constraints =
      Sider_maxent.Constr.margin data
      @ (if k > 1 then
           List.concat_map
             (fun cls ->
               Sider_maxent.Constr.cluster ~data
                 ~rows:(Dataset.class_indices ds cls) ())
             (Dataset.classes ds)
         else [])
    in
    let solver = Sider_maxent.Solver.create data constraints in
    let t0 = Unix.gettimeofday () in
    let report = Sider_maxent.Solver.solve solver in
    let t_optim = Unix.gettimeofday () -. t0 in
    let y = Whiten.whiten solver in
    let t1 = Unix.gettimeofday () in
    ignore (Fastica.fit (Sider_rand.Rng.create seed) y);
    let t_ica = Unix.gettimeofday () -. t1 in
    Printf.printf
      "n=%d d=%d k=%d: OPTIM %.2fs (%d sweeps, converged %b), ICA %.2fs\n" n d
      k t_optim report.Sider_maxent.Solver.sweeps
      report.Sider_maxent.Solver.converged t_ica
  in
  Cmd.v
    (Cmd.info "runtime" ~doc:"Time one cell of the paper's Table II grid")
    Term.(const run $ obs_setup_t $ n_t $ d_t $ k_t $ seed_t)

(* --- convergence ------------------------------------------------------------------ *)

(* Replays the canonical margin + 1-cluster session: the two solves
   [Session.update_background] would run ([Solver.add_constraints], then
   [Solver.solve], on the session's solver and data), each with a
   [trace] callback that takes the sweep's record and computes the
   per-kind residuals.  The wall column is the time between callbacks,
   the residual scan excluded. *)
let convergence_cmd =
  let cutoff_t =
    Arg.(value & opt float 10.0 & info [ "time-cutoff" ] ~docv:"SECONDS"
           ~doc:"MaxEnt solver time cutoff per update.")
  in
  let run () dataset seed label_column cutoff =
    let module Solver = Sider_maxent.Solver in
    let module Constr = Sider_maxent.Constr in
    let ds = load_dataset ~seed ~label_column dataset in
    print_endline (Dataset.describe ds);
    let session = Session.create ~seed ds in
    let data = Session.data session in
    let solver = ref (Session.solver session) in
    (* (record, linear residual, quadratic residual, wall s), newest
       first. *)
    let rows = ref [] in
    let now_s () = Int64.to_float (Obs.now_ns ()) *. 1e-9 in
    let update label constraints =
      let s = Solver.add_constraints !solver constraints in
      let last = ref (now_s ()) in
      let trace (r : Solver.sweep) =
        let wall = now_s () -. !last in
        let res_l, res_q = Solver.residual_by_kind s in
        rows := (r, res_l, res_q, wall) :: !rows;
        last := now_s ()
      in
      match
        Sider_robust.Sider_error.protect (fun () ->
            Solver.solve ~time_cutoff:cutoff ~trace s)
      with
      | Ok r ->
        solver := s;
        Printf.printf "%s: %d sweeps, converged %b\n" label r.Solver.sweeps
          r.Solver.converged
      | Error e ->
        Printf.printf "%s: rolled back (%s)\n" label
          (Sider_robust.Sider_error.to_string e)
    in
    update "margin update" (Constr.margin ~tag:"margin" data);
    update "1-cluster update" (Constr.one_cluster ~tag:"1-cluster" data);
    match List.rev !rows with
    | [] -> print_endline "no sweeps recorded"
    | rows ->
      (* The sweep column restarts at 1 for each update; the plot x-axis
         is the cumulative row index so both updates show in sequence. *)
      let curve value =
        Array.of_list
          (List.mapi
             (fun i row ->
               (float_of_int (i + 1),
                Float.log10 (Float.max 1e-16 (value row))))
             rows)
      in
      print_string
        (Sider_viz.Ascii_plot.render ~width:72 ~height:18
           ~title:"solver convergence (log10, per recorded sweep)"
           ~xlabel:"sweep (cumulative over updates)" ~ylabel:"log10"
           [ { Sider_viz.Ascii_plot.points =
                 curve (fun ((r : Solver.sweep), _, _, _) -> r.max_dlambda);
               glyph = 'L'; name = "L max|dlambda|" };
             { Sider_viz.Ascii_plot.points =
                 curve (fun ((r : Solver.sweep), _, _, _) -> r.max_dparam);
               glyph = 'p'; name = "p max dparam/sd" };
             { Sider_viz.Ascii_plot.points = curve (fun (_, l, _, _) -> l);
               glyph = 'l'; name = "l residual linear" };
             { Sider_viz.Ascii_plot.points = curve (fun (_, _, q, _) -> q);
               glyph = 'q'; name = "q residual quadratic" } ]);
      Printf.printf "%5s %12s %12s %12s %12s %6s %6s %9s\n" "sweep"
        "max|dl|" "max dparam" "res lin" "res quad" "wfast" "wrec"
        "wall s";
      List.iter
        (fun ((r : Solver.sweep), res_l, res_q, wall) ->
          Printf.printf "%5d %12.4g %12.4g %12.4g %12.4g %6d %6d %9.2g\n"
            r.sweep r.max_dlambda r.max_dparam res_l res_q r.woodbury_fast
            r.woodbury_recompute wall)
        rows
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:"Replay a margin + 1-cluster feedback session and plot the \
             solver's per-sweep convergence (deltas, per-kind residuals, \
             Woodbury fast-path counts).")
    Term.(const run $ obs_setup_t $ dataset_t $ seed_t $ label_column_t
          $ cutoff_t)

(* --- api -------------------------------------------------------------------------- *)

let api_cmd =
  let port_t =
    Arg.(value & opt int 9101 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port for the session API; 0 picks an ephemeral port.")
  in
  let data_dir_t =
    Arg.(value & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Directory for per-session write-ahead journals.  \
                   Journals found there are replayed on boot; without \
                   this flag sessions are in-memory only.")
  in
  let workers_t =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Request worker threads.")
  in
  let queue_t =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Bounded request queue; connections beyond it are shed \
                 with 429 + Retry-After.")
  in
  let max_sessions_t =
    Arg.(value & opt int 256 & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Concurrent session cap (429 beyond it).")
  in
  let deadline_t =
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline including queue wait (503 beyond \
                 it).")
  in
  let ttl_t =
    Arg.(value & opt float 0.0 & info [ "ttl" ] ~docv:"SECONDS"
           ~doc:"Evict sessions idle beyond $(docv) (journal kept; the \
                 next request rehydrates).  0 disables eviction.")
  in
  let compact_t =
    Arg.(value & opt int 1024 & info [ "compact-threshold" ] ~docv:"N"
           ~doc:"Compact a session journal into a snapshot once it \
                 exceeds $(docv) events; 0 disables compaction.")
  in
  let keepalive_t =
    Arg.(value & opt int 1000 & info [ "keepalive-requests" ] ~docv:"N"
           ~doc:"Requests served per connection before the server \
                 closes it.")
  in
  let idle_timeout_t =
    Arg.(value & opt float 5.0 & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Close parked keep-alive connections idle beyond \
                 $(docv).")
  in
  let access_log_t =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Write a structured JSON access log to $(docv): one line \
                   per request with trace id, tenant, route, status, \
                   duration, queue wait, journal fsync time and the \
                   update's solver sweeps.")
  in
  let run () port data_dir workers queue max_sessions deadline ttl compact
      keepalive idle_timeout access_log =
    if not (Obs.enabled ()) then Obs.set_sink (Some Obs.null_sink);
    let access_oc = Option.map open_out access_log in
    let config =
      { Sider_serve.Service.default_config with
        port; data_dir; workers; queue_capacity = queue; max_sessions;
        deadline_s = deadline; session_ttl_s = ttl; compact_events = compact;
        keepalive_requests = keepalive; idle_timeout_s = idle_timeout;
        access_log = access_oc }
    in
    let svc = Sider_serve.Service.start ~config () in
    List.iter
      (fun (path, e) ->
        Printf.eprintf "recovery skipped %s: %s\n%!" path
          (Sider_robust.Sider_error.to_string e))
      (Sider_serve.Service.recovery_failures svc);
    Printf.printf
      "session API on http://127.0.0.1:%d (%d session(s) recovered, %d \
       worker(s)); Ctrl-C drains and exits\n%!"
      (Sider_serve.Service.port svc)
      (Sider_serve.Registry.count (Sider_serve.Service.registry svc))
      workers;
    let stop_requested = ref false in
    let request_stop _ = stop_requested := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not !stop_requested do
      Unix.sleepf 0.2
    done;
    Printf.printf "draining...\n%!";
    Sider_serve.Service.stop svc;
    Option.iter (fun oc -> try close_out oc with Sys_error _ -> ()) access_oc;
    Printf.printf "stopped\n%!"
  in
  Cmd.v
    (Cmd.info "api"
       ~doc:"Run the multi-tenant session service: the full interactive \
             loop (create session, add constraint, update background, \
             fetch projection) as a JSON API with write-ahead \
             journaling, journal compaction, keep-alive connections, \
             TTL session eviction, bounded-queue overload shedding and \
             /metrics.")
    Term.(const run $ obs_setup_t $ port_t $ data_dir_t $ workers_t
          $ queue_t $ max_sessions_t $ deadline_t $ ttl_t $ compact_t
          $ keepalive_t $ idle_timeout_t $ access_log_t)

(* --- a running service's state ------------------------------------------------ *)

(* GET [path] from the session API on 127.0.0.1:[port]: the body of a
   200, or why not.  `sider load` and `sider top` read a service only
   through this and [scrape]. *)
let fetch ~port path =
  match Sider_serve.Http.request ~meth:"GET" ~port path with
  | Ok resp when resp.Sider_serve.Http.status = 200 ->
    Ok resp.Sider_serve.Http.r_body
  | Ok resp ->
    Error (Printf.sprintf "GET %s: HTTP %d" path resp.Sider_serve.Http.status)
  | Error e -> Error (Printf.sprintf "GET %s: %s" path e)

(* The service's /metrics, parsed back with [Serve.parse_sample], the
   contract a real scraper uses. *)
let scrape ~port =
  Result.map
    (fun body ->
      String.split_on_char '\n' body
      |> List.filter_map Sider_serve.Serve.parse_sample)
    (fetch ~port "/metrics")

(* An unlabeled sample's value in a scrape; 0 for a series the service
   has not recorded yet. *)
let sample samples name =
  match
    List.find_opt (fun (n, labels, _) -> n = name && labels = []) samples
  with
  | Some (_, _, v) -> v
  | None -> 0.0

(* --- load ------------------------------------------------------------------------- *)

(* Closed-loop load generator: [--concurrency] analyst threads drive
   [--sessions] persona-shaped interaction loops (create -> constrain ->
   update -> projection) against the session API on [--port] over
   persistent keep-alive connections (one per thread), retrying on
   429/503 shed responses with exponential backoff.  Sessions are left
   alive until the end of the run, unless the service's own TTL sweep
   evicts the idle ones: the lifecycle line then shows how far the
   resident population was bounded below the tenant count. *)
let load_cmd =
  let sessions_t =
    Arg.(value & opt int 100 & info [ "sessions" ] ~docv:"N"
           ~doc:"Analyst sessions to drive.")
  in
  let concurrency_t =
    Arg.(value & opt int 32 & info [ "concurrency" ] ~docv:"N"
           ~doc:"Concurrent analyst threads.")
  in
  let port_t =
    Arg.(value & opt int 9101 & info [ "port" ] ~docv:"PORT"
           ~doc:"Port of the running session API to drive.")
  in
  let rows_t =
    Arg.(value & opt int 48 & info [ "rows" ] ~docv:"N"
           ~doc:"Rows of the per-session synthetic dataset.")
  in
  let persona_t =
    Arg.(value
         & opt (Arg.enum Sider_serve.Persona.all) Sider_serve.Persona.Basic
         & info [ "persona" ] ~docv:"KIND"
             ~doc:"Analyst behaviour: $(b,basic) (constrain, update, \
                   fetch), $(b,outlier-hunter) (marks the view's \
                   farthest points, switches to ICA), \
                   $(b,cluster-splitter) (client-side k-means over the \
                   view, marks each cluster), $(b,adversarial) \
                   (pathological row sets, constraint spam, starved \
                   cutoffs) or $(b,mixed).")
  in
  let run () sessions concurrency port rows seed persona =
    (* Eviction, compaction and rehydration totals, from the target's
       /metrics: the lifecycle line reports their rise over the run. *)
    let service_error e =
      failwith (Printf.sprintf "session API on 127.0.0.1:%d: %s" port e)
    in
    let lifecycle_counters () =
      match scrape ~port with
      | Ok samples ->
        let total name = sample samples ("sider_serve_" ^ name ^ "_total") in
        (total "evictions", total "compactions", total "rehydrations")
      | Error e -> service_error e
    in
    let before = lifecycle_counters () in
    let ds = Synth.gaussian ~seed ~n:rows ~d:4 () in
    let create_body =
      Json.to_string
        (Json.Obj
           [ ("dataset", Persist.dataset_to_json ds);
             ("seed", Json.Number (float_of_int seed)) ])
    in
    let lock = Mutex.create () in
    let next = ref 0 in
    let latencies = ref [] in  (* (latency_s, trace id) per ok response *)
    let shed_429 = ref 0 in
    let shed_503 = ref 0 in
    let failures = ref 0 in
    let failed_traces = ref [] in
    let record lat trace =
      Mutex.lock lock; latencies := (lat, trace) :: !latencies; Mutex.unlock lock
    in
    let record_failed trace =
      Mutex.lock lock; failed_traces := trace :: !failed_traces; Mutex.unlock lock
    in
    let bump ?(by = 1) r = Mutex.lock lock; r := !r + by; Mutex.unlock lock in
    let analyst ti () =
      let rng = Sider_rand.Rng.create (seed + (1000 * ti)) in
      let trace_seq = ref 0 in
      (* One persistent connection per analyst thread: latency is
         measured in keep-alive steady state, not dominated by per-
         request connect/teardown. *)
      let client = Sider_serve.Http.client ~port () in
      (* One request with shed-aware retry; returns the successful
         response, or None after exhausting the budget.  Every attempt
         of one logical call shares a trace id, so the access log shows
         the retries as one story. *)
      let rec call ~trace ?body ~meth path attempt =
        if attempt > 8 then (record_failed trace; None)
        else begin
          let headers =
            [ (Sider_serve.Http.trace_response_header, trace) ]
          in
          let t0 = Unix.gettimeofday () in
          match Sider_serve.Http.client_request ~headers ?body client ~meth path with
          | Error _ ->
            Sider_serve.Http.client_close client;
            Thread.delay (0.01 *. float_of_int (1 lsl attempt));
            call ~trace ?body ~meth path (attempt + 1)
          | Ok resp when resp.Sider_serve.Http.status = 429
                      || resp.Sider_serve.Http.status = 503 ->
            bump (if resp.Sider_serve.Http.status = 429 then shed_429 else shed_503);
            Thread.delay (0.01 *. float_of_int (1 lsl attempt));
            call ~trace ?body ~meth path (attempt + 1)
          | Ok resp ->
            record (Unix.gettimeofday () -. t0) trace;
            if resp.Sider_serve.Http.status >= 500 then record_failed trace;
            Some resp
        end
      in
      let call ?body ~meth path =
        let trace =
          incr trace_seq;
          Printf.sprintf "load-%d-%d" ti !trace_seq
        in
        call ~trace ?body ~meth path 0
      in
      let api =
        { Sider_serve.Persona.call =
            (fun ?body ~meth path ->
              Option.map
                (fun r ->
                  (r.Sider_serve.Http.status, r.Sider_serve.Http.r_body))
                (call ?body ~meth path)) }
      in
      let rec next_session () =
        let i = (Mutex.lock lock;
                 let i = !next in next := i + 1; Mutex.unlock lock; i) in
        if i >= sessions then ()
        else begin
          (match call ~body:create_body ~meth:"POST" "/sessions" with
           | Some resp when resp.Sider_serve.Http.status = 201 ->
             let id =
               Json.to_str
                 (Json.member "id" (Json.of_string resp.Sider_serve.Http.r_body))
             in
             let o = Sider_serve.Persona.drive ~rng ~rows persona api ~id in
             if o.Sider_serve.Persona.steps_failed > 0 then
               bump ~by:o.Sider_serve.Persona.steps_failed failures
           | _ -> bump failures);
          next_session ()
        end
      in
      Fun.protect
        ~finally:(fun () -> Sider_serve.Http.client_close client)
        next_session
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init concurrency (fun ti -> Thread.create (analyst ti) ())
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let pairs = Array.of_list !latencies in
    let lats = Array.map fst pairs in
    let q p = Obs.quantile_type7 lats p in
    let p50 = q 0.5 and p95 = q 0.95 and p99 = q 0.99 in
    let mx = Array.fold_left Float.max 0.0 lats in
    let n_req = Array.length lats in
    (* Trace ids of the slowest requests (at or above p99, capped at 5):
       the handle into the access log, span tree and flight dumps for
       exactly the requests worth investigating. *)
    let slowest =
      let sorted = Array.copy pairs in
      Array.sort (fun (a, _) (b, _) -> compare b a) sorted;
      Array.to_list sorted
      |> List.filteri (fun i _ -> i < 5)
      |> List.filter (fun (l, _) -> n_req > 0 && l >= p99)
    in
    Printf.printf
      "%d sessions via %d threads in %.2fs: %d ok (%.0f rps), %d shed \
       (429), %d shed (503), %d failure(s)\n\
       persona %s\n\
       latency p50 %.4fs  p95 %.4fs  p99 %.4fs  max %.4fs\n"
      sessions concurrency wall n_req
      (float_of_int n_req /. wall)
      !shed_429 !shed_503 !failures
      (Sider_serve.Persona.to_string persona)
      p50 p95 p99 mx;
    (match slowest with
     | [] -> ()
     | l ->
       Printf.printf "slowest (>= p99):%s\n"
         (String.concat ""
            (List.map
               (fun (lat, tr) -> Printf.sprintf " %s=%.4fs" tr lat)
               l)));
    (match !failed_traces with
     | [] -> ()
     | l ->
       let shown = List.filteri (fun i _ -> i < 10) (List.rev l) in
       Printf.printf "failed request trace(s) (%d):%s%s\n" (List.length l)
         (String.concat "" (List.map (fun tr -> " " ^ tr) shown))
         (if List.length l > 10 then " ..." else ""));
    let (e0, c0, r0), (e1, c1, r1) = (before, lifecycle_counters ()) in
    let table =
      match fetch ~port "/sessions" with
      | Ok body -> Json.of_string body
      | Error e -> service_error e
    in
    let field name = Json.to_int (Json.member name table) in
    Printf.printf
      "lifecycle: %.0f eviction(s), %.0f compaction(s), %.0f \
       rehydration(s), %d/%d session(s) resident\n"
      (e1 -. e0) (c1 -. c0) (r1 -. r0) (field "resident") (field "count");
    if !failures > 0 then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive concurrent analyst sessions against a running session \
             API ($(b,sider api)) over keep-alive connections and report \
             throughput, latency quantiles and the service's lifecycle \
             over the run (evictions, compactions, rehydrations, resident \
             sessions).  Exits 1 if any analyst loop failed outright; \
             shed 429/503 responses are retried, not failures.")
    Term.(const run $ obs_setup_t $ sessions_t $ concurrency_t $ port_t
          $ rows_t $ seed_t $ persona_t)

(* --- top -------------------------------------------------------------------------- *)

(* Live service dashboard: poll /metrics through [scrape] and render the
   labeled request families as a per-route/status latency table, plus
   session lifecycle and SLO burn. *)
type top_row = {
  mutable tr_count : float;
  mutable tr_p50 : float;
  mutable tr_p95 : float;
  mutable tr_p99 : float;
}

let top_cmd =
  let port_t =
    Arg.(value & opt int 9101 & info [ "port" ] ~docv:"PORT"
           ~doc:"Port of the running session API to scrape.")
  in
  let interval_t =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Seconds between scrapes.")
  in
  let count_t =
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N"
           ~doc:"Scrapes before exiting; 0 (default) polls until \
                 interrupted.")
  in
  let run () port interval count =
    let render i samples =
      let rows : (string * string, top_row) Hashtbl.t = Hashtbl.create 16 in
      let row route status =
        match Hashtbl.find_opt rows (route, status) with
        | Some r -> r
        | None ->
          let r =
            { tr_count = 0.0; tr_p50 = Float.nan; tr_p95 = Float.nan;
              tr_p99 = Float.nan }
          in
          Hashtbl.replace rows (route, status) r;
          r
      in
      List.iter
        (fun (name, labels, v) ->
          let l k = List.assoc_opt k labels in
          match name with
          | "sider_serve_request_s" ->
            (match (l "route", l "status", l "quantile") with
             | Some r, Some s, Some q ->
               let row = row r s in
               (match q with
                | "0.5" -> row.tr_p50 <- v
                | "0.95" -> row.tr_p95 <- v
                | "0.99" -> row.tr_p99 <- v
                | _ -> ())
             | _ -> ())
          | "sider_serve_request_s_count" ->
            (match (l "route", l "status") with
             | Some r, Some s -> (row r s).tr_count <- v
             | _ -> ())
          | _ -> ())
        samples;
      let g = sample samples in
      Printf.printf "-- scrape %d @ 127.0.0.1:%d --\n" i port;
      Printf.printf "%-12s %-7s %9s %9s %9s %9s\n" "route" "status"
        "count" "p50_ms" "p95_ms" "p99_ms";
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows []
      |> List.sort compare
      |> List.iter (fun ((route, status), r) ->
          Printf.printf "%-12s %-7s %9.0f %9.2f %9.2f %9.2f\n" route status
            r.tr_count (1000.0 *. r.tr_p50) (1000.0 *. r.tr_p95)
            (1000.0 *. r.tr_p99));
      Printf.printf
        "sessions: %.0f resident, %.0f evicted, %.0f rehydrated; \
         requests %.0f, shed %.0f\n"
        (g "sider_serve_resident_sessions")
        (g "sider_serve_evictions_total")
        (g "sider_serve_rehydrations_total")
        (g "sider_serve_requests_total")
        (g "sider_serve_rejected_queue_full_total"
         +. g "sider_serve_rejected_sessions_full_total");
      Printf.printf "slo burn: 5m %.2f, 1h %.2f\n%!"
        (g "sider_serve_slo_burn_5m") (g "sider_serve_slo_burn_1h")
    in
    let i = ref 0 in
    while count = 0 || !i < count do
      incr i;
      (match scrape ~port with
       | Ok samples -> render !i samples
       | Error e -> Printf.eprintf "scrape: %s\n%!" e);
      if count = 0 || !i < count then Unix.sleepf interval
    done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Poll a running session API's /metrics endpoint and render \
             per-route/status latency quantiles, session lifecycle \
             counts and SLO burn rates.")
    Term.(const run $ obs_setup_t $ port_t $ interval_t $ count_t)

let main =
  let doc = "SIDER: interactive visual data exploration with subjective feedback" in
  Cmd.group
    (Cmd.info "sider" ~version:"1.0.0" ~doc)
    [ datasets_cmd; view_cmd; explore_cmd; repl_cmd; replay_cmd;
      export_cmd; runtime_cmd; doctor_cmd; trace_cmd; convergence_cmd;
      api_cmd; load_cmd; top_cmd ]

(* Every exception [Sider_error.protect] maps becomes a one-line
   diagnostic instead of an OCaml backtrace: [Failure] (a bad argument
   or input) exits 1, the rest (a structured engine error, a rejected
   value, a filesystem error) are diagnosed faults and exit 2. *)
let () =
  (* Production telemetry defaults: honour SIDER_TRACE, keep the
     crash-forensics ring on (auto-dumping new entries to stderr whenever
     the engine records an error), and flush whatever sink is live on the
     way out — including the --trace-json channel. *)
  Obs.install_from_env ();
  Obs.set_flight_recorder ~capacity:512 true;
  Obs.set_flight_auto_dump (Some stderr);
  at_exit (fun () ->
      (try Obs.flush () with _ -> ());
      match !trace_json_out with
      | Some oc ->
        trace_json_out := None;
        (try Stdlib.flush oc; close_out oc with _ -> ())
      | None -> ());
  match
    Sider_robust.Sider_error.protect (fun () ->
        try Cmd.eval ~catch:false main
        with Failure msg -> Printf.eprintf "sider: %s\n" msg; 1)
  with
  | Ok code -> exit code
  | Error e ->
    Printf.eprintf "sider: %s\n" (Sider_robust.Sider_error.to_string e);
    exit 2

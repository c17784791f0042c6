(* Machine-readable perf-regression harness.

     dune exec bench/bench_regress.exe -- [options]

   Runs a fixed set of scenarios covering the pipeline's hot paths (micro
   solver sweeps, Table-II-style session updates — a first solve and an
   incremental one — on synthetic and segmentation data, whiten+PCA, ICA
   cold and warm, the full pipeline, and the service's session-create
   path: JSON parse, projection serialise, journal start) and writes one
   JSON document per invocation:

     { "schema": "sider-bench/3", "label": "pr9", "smoke": false,
       "domains": 1, "ocaml_version": "...",
       "scenarios": [ { "name": ..., "wall_s": ..., "wall_min_s": ...,
                        "sweeps": ..., "classes": ...,
                        "peak_heap_words": ..., "allocated_words": ...,
                        "runs": ... }, ... ],
       "scaling": [ { "name": ..., "domains": ..., "wall_s": ... } ] }

   Per scenario: median and minimum wall-clock of the timed section over
   --runs repetitions, sweeps-to-convergence and row-equivalence-class
   count where a solver is involved, peak heap words ([Gc.stat] after
   the runs) and the median words allocated by a single run.  [wall_s]
   keeps its v1 meaning (the median), so a v1/v2 file works as --baseline
   and a v3 file works as a baseline for older-era outputs.  Committed v3
   files may also carry "warm_sweeps" and "cold_sweeps" keys; nothing
   reads them.

   A non-smoke run also enforces the incremental-update gate: the
   session_update_warm_synthetic scenario, an update that starts from
   the parameters of the previous round, must converge in strictly
   fewer sweeps than session_update_synthetic, a first solve, measured
   in the same invocation (exit 1 otherwise).

   Every run, smoke included, also checks the JSON codec on the data its
   two scenarios time: json_parse_create's decoded dataset must re-print
   to the body's exact dataset bytes, and json_serialise_projection's
   text must parse back to the same floats, bit for bit (exit 1
   otherwise).

   Options:
     --out PATH        output path (default BENCH_pr9.json)
     --baseline PATH   compare against a previous output; exit 1 when any
                       scenario regresses by more than 25% wall-clock.
                       Repeatable: the first file that actually contains
                       a scenario table is used, so a load-test JSON (or
                       other schema) earlier in the list falls through
                       to the next
     --smoke           tiny inputs, 1 run: exercises the harness in
                       seconds (wired into `make verify`)
     --runs N          repetitions per scenario (default 3; smoke 1)
     --label STR       label recorded in the output (default pr9)
     --scaling         also run the Sider_par-enabled scenarios at 1, 2
                       and 4 domains and record a "scaling" section *)

open Sider_data
open Sider_maxent
open Sider_projection
open Sider_core
module Par = Sider_par.Par

type run_result = {
  wall : float;
  sweeps : int;
  classes : int;
}

type scenario = {
  name : string;
  descr : string;
  run : smoke:bool -> run_result;
}

(* --- scenario building blocks -------------------------------------------- *)

let sweeps_of = function Ok r -> r.Solver.sweeps | Error _ -> 0

let clustered_constraints ds =
  let data = Dataset.matrix ds in
  Constr.margin data
  @ List.concat_map
      (fun cls -> Constr.cluster ~data ~rows:(Dataset.class_indices ds cls) ())
      (Dataset.classes ds)

(* Micro solver sweeps: a bounded number of sweeps over margin + cluster
   constraints, the per-sweep cost the paper's OPTIM column is built from. *)
let micro_solver ~smoke =
  let n, d, k = if smoke then (128, 4, 2) else (512, 8, 4) in
  let ds = Sider_data.Synth.clustered ~seed:31 ~n ~d ~k () in
  let solver = Solver.create (Dataset.matrix ds) (clustered_constraints ds) in
  let report, wall =
    Bench_common.time_of (fun () ->
        Solver.solve ~max_sweeps:25 ~lambda_tol:0.0 ~param_tol:0.0 solver)
  in
  { wall; sweeps = report.Solver.sweeps; classes = Solver.n_classes solver }

(* Quadratic updates at moderate dimension: root finding + rank-1
   Woodbury, on overlapping row sets so classes refine. *)
let quadratic_updates ~smoke =
  let d = if smoke then 8 else 32 in
  let rng = Sider_rand.Rng.create 7 in
  let data = Sider_rand.Sampler.normal_mat rng 256 d in
  let constraints =
    List.init 4 (fun i ->
        let w =
          Sider_linalg.Vec.normalize (Sider_rand.Sampler.normal_vec rng d)
        in
        let rows = Array.init 96 (fun r -> r + (32 * i)) in
        Constr.quadratic ~tag:(Printf.sprintf "q%d" i) ~data ~rows ~w ())
  in
  let solver = Solver.create data constraints in
  let report, wall =
    Bench_common.time_of (fun () ->
        Solver.solve ~max_sweeps:10 ~lambda_tol:0.0 ~param_tol:0.0 solver)
  in
  { wall; sweeps = report.Solver.sweeps; classes = Solver.n_classes solver }

(* Table-II-style end-to-end session update on synthetic clusters: the
   latency an analyst sees between marking a cluster and the next view. *)
let session_update_synthetic ~smoke =
  let n, d, k = if smoke then (256, 8, 2) else (2048, 16, 4) in
  let ds = Sider_data.Synth.clustered ~seed:5 ~n ~d ~k () in
  let session = Session.create ~seed:5 ds in
  Session.add_margin_constraint session;
  Session.add_cluster_constraint session
    (Dataset.class_indices ds (List.hd (Dataset.classes ds)));
  let report, wall =
    Bench_common.time_of (fun () ->
        Session.update_background ~time_cutoff:60.0 session)
  in
  { wall; sweeps = sweeps_of report;
    classes = Solver.n_classes (Session.solver session) }

(* The incremental counterpart of session_update_synthetic.  Setup
   (untimed): the same session, margin + first cluster, solved from the
   prior.  Timed: the paper's canonical follow-up interaction — the
   analyst marks a cluster of points in the current 2-D view — and the
   update behind it.  The solve starts from the previous optimum, which
   already satisfies the old constraints, so its sweep count must sit
   strictly below the first solve's (checked by the in-harness gate). *)
let session_update_warm_synthetic ~smoke =
  let n, d, k = if smoke then (256, 8, 2) else (2048, 16, 4) in
  let ds = Sider_data.Synth.clustered ~seed:5 ~n ~d ~k () in
  let session = Session.create ~seed:5 ds in
  Session.add_margin_constraint session;
  let classes = Dataset.classes ds in
  (match classes with
   | c1 :: _ ->
     Session.add_cluster_constraint session (Dataset.class_indices ds c1)
   | [] -> ());
  ignore (Session.update_background ~time_cutoff:60.0 session);
  (match classes with
   | _ :: c2 :: _ ->
     Session.add_two_d_constraint session (Dataset.class_indices ds c2)
   | _ -> ());
  let report, wall =
    Bench_common.time_of (fun () ->
        Session.update_background ~time_cutoff:60.0 session)
  in
  { wall; sweeps = sweeps_of report;
    classes = Solver.n_classes (Session.solver session) }

(* The same update on the (synthetic stand-in for the) UCI Image
   Segmentation data of the paper's Sec. IV-C. *)
let session_update_segmentation ~smoke =
  let ds = Sider_data.Segmentation.generate ~seed:2018 () in
  let ds =
    if smoke then Dataset.select_rows ds (Array.init 330 Fun.id) else ds
  in
  let session = Session.create ~seed:2018 ds in
  Session.add_margin_constraint session;
  (match Dataset.classes ds with
   | cls :: _ ->
     Session.add_cluster_constraint session (Dataset.class_indices ds cls)
   | [] -> ());
  let report, wall =
    Bench_common.time_of (fun () ->
        Session.update_background ~time_cutoff:60.0 session)
  in
  { wall; sweeps = sweeps_of report;
    classes = Solver.n_classes (Session.solver session) }

(* Whiten + PCA over a solved background: the per-interaction view cost
   once the solver is warm. *)
let whiten_pca ~smoke =
  let n, d, k = if smoke then (256, 8, 2) else (1024, 16, 4) in
  let ds = Sider_data.Synth.clustered ~seed:13 ~n ~d ~k () in
  let solver = Solver.create (Dataset.matrix ds) (clustered_constraints ds) in
  ignore (Solver.solve ~time_cutoff:30.0 solver);
  let _, wall =
    Bench_common.time_of (fun () ->
        let y = Whiten.whiten solver in
        let fitted = Pca.fit y in
        ignore (Pca.top2 fitted))
  in
  { wall; sweeps = 0; classes = Solver.n_classes solver }

(* FastICA on whitened data: the paper's ICA column (O(n d²)). *)
let ica_projection ~smoke =
  let n, d, k = if smoke then (256, 6, 2) else (1024, 8, 3) in
  let ds = Sider_data.Synth.clustered ~seed:17 ~n ~d ~k () in
  let data = Dataset.matrix ds in
  let solver = Solver.create data (Constr.margin data) in
  ignore (Solver.solve ~time_cutoff:30.0 solver);
  let y = Whiten.whiten solver in
  let _, wall =
    Bench_common.time_of (fun () ->
        ignore (Fastica.fit (Sider_rand.Rng.create 17) y))
  in
  { wall; sweeps = 0; classes = Solver.n_classes solver }

(* FastICA warmed by a previous unmixing matrix: prepare once, fit cold
   to get [unmixing], then time a fit seeded with it — the per-feedback
   view cost once the session threads [?ica_w0] through. *)
let ica_projection_warm ~smoke =
  let n, d, k = if smoke then (256, 6, 2) else (1024, 8, 3) in
  let ds = Sider_data.Synth.clustered ~seed:17 ~n ~d ~k () in
  let data = Dataset.matrix ds in
  let solver = Solver.create data (Constr.margin data) in
  ignore (Solver.solve ~time_cutoff:30.0 solver);
  let y = Whiten.whiten solver in
  let prep = Fastica.prepare y in
  let cold = Fastica.fit_prepared (Sider_rand.Rng.create 17) prep in
  let _, wall =
    Bench_common.time_of (fun () ->
        ignore
          (Fastica.fit_prepared ~w0:cold.Fastica.unmixing
             (Sider_rand.Rng.create 18) prep))
  in
  { wall; sweeps = 0; classes = Solver.n_classes solver }

(* Full pipeline on the paper's introduction data: session creation,
   two feedback rounds, view recomputation and the scatter readout. *)
let full_pipeline ~smoke:_ =
  let ds = Sider_data.Synth.three_d ~seed:2018 () in
  let result, wall =
    Bench_common.time_of (fun () ->
        let session = Session.create ~seed:2018 ds in
        Session.add_margin_constraint session;
        let r1 = Session.update_background ~time_cutoff:30.0 session in
        ignore (Session.recompute_view session);
        Session.add_cluster_constraint session
          (Dataset.class_indices ds (List.hd (Dataset.classes ds)));
        let r2 = Session.update_background ~time_cutoff:30.0 session in
        ignore (Session.recompute_view session);
        ignore (Session.scatter session);
        (sweeps_of r1 + sweeps_of r2,
         Solver.n_classes (Session.solver session)))
  in
  let sweeps, classes = result in
  { wall; sweeps; classes }

(* Observability overhead: the session_update_synthetic workload under
   the three telemetry states a deployment can be in.  The _off variant
   re-measures the baseline inside the same process so the three rows
   are directly comparable; the acceptance bar is null-sink overhead
   within ~5% of wall on this scenario. *)
let obs_overhead mode ~smoke =
  let module Obs = Sider_obs.Obs in
  (match mode with
   | `Off -> ()
   | `Null_sink -> Obs.set_sink (Some Obs.null_sink)
   | `Recorder -> Obs.set_flight_recorder ~capacity:256 true);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink None;
      Obs.set_flight_recorder false;
      Obs.flight_reset ();
      Obs.reset ())
    (fun () -> session_update_synthetic ~smoke)

(* Labeled-metrics overhead: the session_update_synthetic workload with
   the per-request labeled writes the service issues in [serve_one] —
   the route/status latency histogram, the per-tenant counter and a
   stage observation through a preregistered handle — inside the timed
   section, under the null sink.  The comparison row is
   obs_overhead_null_sink (same workload, unlabeled instrumentation
   only); the in-harness gate below holds the delta within 5%. *)
let obs_labels_overhead ~smoke =
  let module Obs = Sider_obs.Obs in
  Obs.set_sink (Some Obs.null_sink);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink None;
      Obs.reset ())
    (fun () ->
      let n, d, k = if smoke then (256, 8, 2) else (2048, 16, 4) in
      let ds = Sider_data.Synth.clustered ~seed:5 ~n ~d ~k () in
      let session = Session.create ~seed:5 ds in
      Session.add_margin_constraint session;
      Session.add_cluster_constraint session
        (Dataset.class_indices ds (List.hd (Dataset.classes ds)));
      let stage_solve =
        Obs.labeled_hist "serve.stage_s" [ ("stage", "solve") ]
      in
      let report, wall =
        Bench_common.time_of (fun () ->
            let t0 = Obs.now_ns () in
            let r = Session.update_background ~time_cutoff:60.0 session in
            let dur = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
            Obs.observe_into stage_solve dur;
            Obs.observe_labeled "serve.request_s"
              [ ("route", "update"); ("status", "200") ]
              dur;
            Obs.count_labeled "serve.tenant_requests" [ ("tenant", "bench") ];
            r)
      in
      { wall; sweeps = sweeps_of report;
        classes = Solver.n_classes (Session.solver session) })

(* The create path of the end-to-end benchmark's projection_reads
   workload (n=1024, d=16, k=8; quarter size under --smoke), one layer at
   a time under the names of its per-layer metrics. *)
let reads_dataset ~smoke =
  let n = if smoke then 256 else 1024 in
  Sider_data.Synth.clustered ~seed:7919 ~n ~d:16 ~k:8 ()

let no_solve wall = { wall; sweeps = 0; classes = 0 }

(* The two codec scenarios also check, outside the timed region, that
   the codec is exact on the data they time; a failure exits 1. *)
let codec_check name ok =
  if not ok then begin
    Printf.eprintf "bench_regress: %s: codec check FAILED\n%!" name;
    exit 1
  end

(* Decode a session-create body (about 329 KB at full size) as the
   service does, the rows read straight into one float array; the
   decoded dataset must re-print to the body's exact dataset bytes. *)
let json_parse_create ~smoke =
  let dataset = Json.to_string (Persist.dataset_to_json (reads_dataset ~smoke)) in
  let body = Printf.sprintf {|{"dataset":%s,"method":"pca","seed":1}|} dataset in
  let create, wall =
    Bench_common.time_of (fun () -> Sider_serve.Service.decode_create body)
  in
  codec_check "json_parse_create: re-printed dataset differs"
    (String.equal
       (Json.to_string (Persist.dataset_to_json create.Sider_serve.Service.dataset))
       dataset);
  no_solve wall

(* Print the projection of a margin-solved session (about 126 KB at full
   size), the body of GET /sessions/:id/projection, with the service's
   printer into a warm writer, as a service worker prints it; the text
   must parse back to [Session.scatter]'s points, floats bit for bit. *)
let json_serialise_projection ~smoke =
  let session = Session.create ~seed:1 (reads_dataset ~smoke) in
  Session.add_margin_constraint session;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 session);
  ignore (Session.recompute_view session);
  let scratch = Sider_serve.Service.scratch () and w = Json.writer 4096 in
  let print () =
    Json.clear w;
    Sider_serve.Service.write_projection scratch w session
  in
  print ();
  let (), wall = Bench_common.time_of print in
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let same_point p (q : Session.point) =
    let num k = Json.to_float (Json.member k p) in
    let bx, by = q.background in
    Json.to_int (Json.member "i" p) = q.index
    && same (num "x") q.x && same (num "y") q.y
    && same (num "bx") bx && same (num "by") by
    && Option.equal String.equal
         (Option.map Json.to_str (Json.member_opt "label" p)) q.label
  in
  let points = Json.to_list (Json.member "points" (Json.of_string (Json.contents w))) in
  let scatter = Array.to_list (Session.scatter session) in
  codec_check "json_serialise_projection: parsed projection differs"
    (List.compare_lengths points scatter = 0
     && List.for_all2 same_point points scatter);
  no_solve wall

(* Start a session's journal: the checksummed header carrying the whole
   dataset, written and fsynced to a fresh file in the temp directory. *)
let persist_journal_start ~smoke =
  let session = Session.create ~seed:1 (reads_dataset ~smoke) in
  let path = Filename.temp_file "bench_journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _, wall =
        Bench_common.time_of (fun () ->
            Persist.journal_close (Persist.journal_start path session))
      in
      no_solve wall)

let scenarios =
  [ { name = "micro_solver_sweeps";
      descr = "25 bounded sweeps, margin+cluster constraints";
      run = micro_solver };
    { name = "quadratic_updates_d32";
      descr = "10 sweeps of 4 overlapping quadratic constraints";
      run = quadratic_updates };
    { name = "session_update_synthetic";
      descr = "Table-II-style session update, synthetic clusters";
      run = session_update_synthetic };
    { name = "session_update_warm_synthetic";
      descr = "2-D view feedback on a solved session (inherited optimum)";
      run = session_update_warm_synthetic };
    { name = "session_update_segmentation";
      descr = "session update on the segmentation stand-in";
      run = session_update_segmentation };
    { name = "whiten_pca";
      descr = "whiten a solved background and fit PCA";
      run = whiten_pca };
    { name = "ica_projection";
      descr = "FastICA on whitened data";
      run = ica_projection };
    { name = "ica_projection_warm";
      descr = "FastICA re-fit seeded with the previous unmixing";
      run = ica_projection_warm };
    { name = "full_pipeline";
      descr = "two feedback rounds end-to-end on three_d";
      run = full_pipeline };
    { name = "obs_overhead_off";
      descr = "session update, telemetry fully disabled";
      run = obs_overhead `Off };
    { name = "obs_overhead_null_sink";
      descr = "session update, null sink installed (full instrumentation)";
      run = obs_overhead `Null_sink };
    { name = "obs_overhead_recorder";
      descr = "session update, flight recorder on (ring writes only)";
      run = obs_overhead `Recorder };
    { name = "obs_labels_overhead";
      descr = "session update + per-request labeled writes, null sink";
      run = obs_labels_overhead };
    { name = "json_parse_create";
      descr = "decode a projection_reads session-create body";
      run = json_parse_create };
    { name = "json_serialise_projection";
      descr = "serialise a projection_reads projection body";
      run = json_serialise_projection };
    { name = "persist_journal_start";
      descr = "start a journal: checksummed dataset header, fsynced";
      run = persist_journal_start } ]

(* --- measurement ----------------------------------------------------------- *)

type measured = {
  m_name : string;
  m_wall : float;          (* median over runs *)
  m_wall_min : float;      (* fastest run — least scheduler/GC noise *)
  m_sweeps : int;
  m_classes : int;
  m_peak_heap : int;       (* Gc top_heap_words after the runs *)
  m_alloc_words : int;     (* median words allocated by a single run *)
  m_runs : int;
}

let median values =
  let v = Array.copy values in
  Array.sort compare v;
  let n = Array.length v in
  if n = 0 then nan
  else if n mod 2 = 1 then v.(n / 2)
  else 0.5 *. (v.((n / 2) - 1) +. v.(n / 2))

(* Lower median, so the reported value is an actually-observed count
   rather than an average that no run produced. *)
let median_int (values : int array) =
  let v = Array.copy values in
  Array.sort compare v;
  let n = Array.length v in
  if n = 0 then 0 else v.((n - 1) / 2)

let measure ~smoke ~runs sc =
  let walls = Array.make runs 0.0 in
  let allocs = Array.make runs 0 in
  let results =
    Array.init runs (fun i ->
        let a0 = Gc.allocated_bytes () in
        let r = sc.run ~smoke in
        allocs.(i) <-
          int_of_float ((Gc.allocated_bytes () -. a0) /. 8.0);
        walls.(i) <- r.wall;
        r)
  in
  let peak = (Gc.stat ()).Gc.top_heap_words in
  let last = results.(runs - 1) in
  {
    m_name = sc.name;
    m_wall = median walls;
    m_wall_min = Array.fold_left Float.min walls.(0) walls;
    m_sweeps = last.sweeps;
    m_classes = last.classes;
    m_peak_heap = peak;
    m_alloc_words = median_int allocs;
    m_runs = runs;
  }

(* --- JSON in / out --------------------------------------------------------- *)

(* Schema v3 keeps [wall_s] as the median so v1/v2 consumers (and
   [baseline_walls] below, pointed at any version) read the same
   statistic, on top of v2's minimum-wall and execution environment. *)
let to_json ~label ~smoke ~scaling measured =
  let scenario_json m =
    Json.Obj
      [ ("name", Json.String m.m_name);
        ("wall_s", Json.Number m.m_wall);
        ("wall_min_s", Json.Number m.m_wall_min);
        ("sweeps", Json.Number (float_of_int m.m_sweeps));
        ("classes", Json.Number (float_of_int m.m_classes));
        ("peak_heap_words", Json.Number (float_of_int m.m_peak_heap));
        ("allocated_words", Json.Number (float_of_int m.m_alloc_words));
        ("runs", Json.Number (float_of_int m.m_runs)) ]
  in
  Json.Obj
    ([ ("schema", Json.String "sider-bench/3");
       ("label", Json.String label);
       ("smoke", Json.Bool smoke);
       ("domains", Json.Number (float_of_int (Par.domain_count ())));
       ("ocaml_version", Json.String Sys.ocaml_version);
       ("scenarios", Json.List (List.map scenario_json measured)) ]
     @
     match scaling with
     | [] -> []
     | rows ->
       [ ("scaling",
          Json.List
            (List.map
               (fun (name, domains, wall) ->
                 Json.Obj
                   [ ("name", Json.String name);
                     ("domains", Json.Number (float_of_int domains));
                     ("wall_s", Json.Number wall) ])
               rows)) ])

(* Tolerant reader: any schema version works (only name + wall_s are
   read), and a JSON document without a scenario table — e.g. a
   sider-load/* output committed under a BENCH_* name — yields [] so a
   repeated --baseline list can fall through to the next file. *)
let baseline_walls path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let doc = Json.of_string text in
  match Json.member_opt "scenarios" doc with
  | None -> []
  | Some scenarios ->
    Json.to_list scenarios
    |> List.map (fun s ->
        (Json.to_str (Json.member "name" s),
         Json.to_float (Json.member "wall_s" s)))

(* A regression needs both a >25% relative slowdown and a 2ms absolute
   one: sub-millisecond scenarios jitter far more than 25% run to run. *)
let regressed ~old_wall ~new_wall =
  new_wall > (old_wall *. 1.25) +. 0.002

let diff_against ~baseline measured =
  Printf.printf "\n  %-30s %12s %12s %9s\n" "scenario" "baseline(s)"
    "now(s)" "delta";
  Printf.printf "  %s\n" (String.make 68 '-');
  let regressions = ref [] in
  List.iter
    (fun m ->
      match List.assoc_opt m.m_name baseline with
      | None ->
        Printf.printf "  %-30s %12s %12.4f %9s\n%!" m.m_name "-" m.m_wall
          "new"
      | Some old_wall ->
        let delta =
          if old_wall > 0.0 then 100.0 *. ((m.m_wall /. old_wall) -. 1.0)
          else 0.0
        in
        let flag = regressed ~old_wall ~new_wall:m.m_wall in
        if flag then regressions := m.m_name :: !regressions;
        Printf.printf "  %-30s %12.4f %12.4f %+8.1f%%%s\n%!" m.m_name
          old_wall m.m_wall delta
          (if flag then "  REGRESSION" else ""))
    measured;
  List.rev !regressions

(* --- driver ---------------------------------------------------------------- *)

(* Domain-scaling sweep: the three projection/session scenarios that
   fan out through [Sider_par], each at 1, 2 and 4 domains.  Results are
   deterministic for any domain count, so the sweep is purely about
   wall clock. *)
let scaling_names =
  [ "session_update_synthetic"; "whiten_pca"; "ica_projection" ]

let scaling_domain_counts = [ 1; 2; 4 ]

let run_scaling ~smoke =
  let restore = Par.domain_count () in
  let rows =
    List.concat_map
      (fun name ->
        let sc = List.find (fun sc -> sc.name = name) scenarios in
        List.map
          (fun d ->
            Par.set_domains d;
            let r = sc.run ~smoke in
            Printf.printf "  %-30s domains=%d %.4fs\n%!" sc.name d r.wall;
            (name, d, r.wall))
          scaling_domain_counts)
      scaling_names
  in
  Par.set_domains restore;
  rows

let () =
  let smoke = ref false in
  let out = ref "BENCH_pr9.json" in
  let baselines = ref [] in
  let runs = ref 0 in
  let label = ref "pr9" in
  let scaling = ref false in
  let specs =
    [ ("--smoke", Arg.Set smoke, "tiny inputs, 1 run (harness self-test)");
      ("--out", Arg.Set_string out, "PATH output JSON path");
      ("--baseline",
       Arg.String (fun p -> baselines := !baselines @ [ p ]),
       "PATH previous output to diff against (exit 1 on >25% regression); \
        repeatable — the first file with a scenario table wins");
      ("--runs", Arg.Set_int runs, "N repetitions per scenario");
      ("--label", Arg.Set_string label, "STR label recorded in the output");
      ("--scaling", Arg.Set scaling,
       " also run the par-enabled scenarios at 1/2/4 domains") ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench_regress [--smoke] [--out PATH] [--baseline PATH] [--runs N] \
     [--scaling]";
  let smoke = !smoke in
  let runs = if !runs > 0 then !runs else if smoke then 1 else 3 in
  Printf.printf "bench_regress: %d scenarios, %d run(s) each%s\n%!"
    (List.length scenarios) runs
    (if smoke then " [smoke]" else "");
  let measured =
    List.map
      (fun sc ->
        Printf.printf "  %-30s %s ...%!" sc.name sc.descr;
        let m = measure ~smoke ~runs sc in
        Printf.printf " %.4fs (min %.4fs, sweeps %d, classes %d)\n%!"
          m.m_wall m.m_wall_min m.m_sweeps m.m_classes;
        m)
      scenarios
  in
  let scaling_rows =
    if !scaling then begin
      Printf.printf "  domain scaling:\n%!";
      run_scaling ~smoke
    end
    else []
  in
  let json =
    Json.to_string (to_json ~label:!label ~smoke ~scaling:scaling_rows measured)
  in
  Bench_common.write_file !out (json ^ "\n");
  Printf.printf "  wrote %s\n%!" !out;
  (* The incremental-update gate (full runs only: smoke sizes converge
     in too few sweeps to separate the two meaningfully).
     Deterministic — sweep counts don't jitter with the scheduler. *)
  if not smoke then begin
    let find n = List.find_opt (fun m -> m.m_name = n) measured in
    match
      (find "session_update_synthetic", find "session_update_warm_synthetic")
    with
    | Some first, Some incremental ->
      if incremental.m_sweeps >= first.m_sweeps then begin
        Printf.eprintf
          "bench_regress: incremental-update gate FAILED: \
           session_update_warm_synthetic took %d sweeps, the first solve \
           took %d (the incremental update must be strictly below)\n%!"
          incremental.m_sweeps first.m_sweeps;
        exit 1
      end
      else
        Printf.printf
          "  incremental-update gate: %d sweeps < %d for a first solve ok\n%!"
          incremental.m_sweeps first.m_sweeps
    | _ -> ()
  end;
  (* The labeled-metrics gate (full runs only): the per-request labeled
     writes must stay within 5% of the unlabeled null-sink row, with
     the same 2ms absolute slack as [regressed] for jitter. *)
  if not smoke then begin
    let find n = List.find_opt (fun m -> m.m_name = n) measured in
    match (find "obs_overhead_null_sink", find "obs_labels_overhead") with
    | Some plain, Some labeled ->
      if labeled.m_wall > (plain.m_wall *. 1.05) +. 0.002 then begin
        Printf.eprintf
          "bench_regress: labeled-metrics gate FAILED: \
           obs_labels_overhead %.4fs vs obs_overhead_null_sink %.4fs \
           (must be within 5%%)\n%!"
          labeled.m_wall plain.m_wall;
        exit 1
      end
      else
        Printf.printf
          "  labeled-metrics gate: %.4fs vs %.4fs null-sink (%+.1f%%) ok\n%!"
          labeled.m_wall plain.m_wall
          (if plain.m_wall > 0.0 then
             100.0 *. ((labeled.m_wall /. plain.m_wall) -. 1.0)
           else 0.0)
    | _ -> ()
  end;
  if not (List.is_empty !baselines) then begin
    (* First baseline with a scenario table wins; unreadable or
       scenario-less files fall through with a note.  Exhausting the
       list without finding one is still an error — a CI invocation
       that silently skipped its diff would defeat the gate. *)
    let rec pick = function
      | [] ->
        Printf.eprintf
          "bench_regress: no usable baseline among: %s\n%!"
          (String.concat ", " !baselines);
        exit 2
      | path :: rest ->
        (match baseline_walls path with
         | [] ->
           Printf.printf "  baseline %s: no scenario table, skipping\n%!"
             path;
           pick rest
         | exception Sys_error msg ->
           Printf.printf "  baseline unreadable (%s), skipping\n%!" msg;
           pick rest
         | exception Json.Parse_error msg ->
           Printf.printf "  baseline %s: bad JSON (%s), skipping\n%!" path
             msg;
           pick rest
         | walls -> (path, walls))
    in
    let path, baseline = pick !baselines in
    Printf.printf "  diffing against %s\n%!" path;
    match diff_against ~baseline measured with
    | [] -> Printf.printf "\n  no regressions > 25%%\n%!"
    | names ->
      Printf.printf "\n  %d regression(s): %s\n%!" (List.length names)
        (String.concat ", " names);
      exit 1
  end

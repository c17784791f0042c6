(* The in-process benchmark harness: the pipeline's hot paths one layer at
   a time, each with the exact work it did.

     dune exec bench/bench_regress.exe -- [options]

   Each scenario builds its inputs, then times one section: bounded
   solver sweeps, quadratic updates, one Fig. 5 Case-B sweep,
   Table-II-style session updates (a first solve and an incremental one)
   on synthetic and segmentation data, whiten+PCA, ICA cold and warm, the
   full pipeline, the telemetry states, and the service's session-create
   path (JSON parse, projection print, journal start).  It writes one
   JSON document per invocation:

     { "schema": "sider-bench/5", "ocaml_version": "...", "ica_simd": true,
       "scenarios": [ { "name": ..., "counts": { "sweeps": ..., ... },
                        "runs": ..., "wall_s": ..., "wall_min_s": ... },
                      ... ] }

   [wall_s] is the median of the timed section over --runs repetitions
   and [wall_min_s] the fastest.  [counts] is the work the timed section
   did: the solver's [sweeps], [updates] and [classes], FastICA's
   [iterations], the [bytes] a codec scenario prints, and [words], the
   words it allocated (minor words plus the words allocated straight into
   the major heap, as [Test_helpers.allocated_words] counts them).  Each
   scenario runs once before its counted runs, so one-off set-up is not
   counted, and every count must repeat exactly over the counted runs
   (exit 1 otherwise).

   [words] depends on the OCaml version and, where FastICA runs, on
   whether its AVX2 kernel ran; [iterations] depends on the kernel,
   whose bits differ from the portable path's.  The document records the
   OCaml version and the kernel.

   Every run enforces three gates and the codec checks (exit 1 on a
   failure):
   - incremental update: session_update_warm_synthetic, an update that
     starts from the previous optimum, takes strictly fewer sweeps than
     session_update_synthetic, a first solve;
   - null sink and labeled metrics: in 48 interleaved runs each of one
     solve with telemetry off, with the null sink and with the null sink
     plus the service's labeled writes, the median ratio of null sink to
     off, and of labeled to null sink, is at most 1.05 ([overhead_gates]);
   - json_parse_create's decoded dataset re-prints to the body's exact
     dataset bytes, and json_serialise_projection's text parses back to
     the same floats, bit for bit.

   Options:
     --out PATH        output path (default _artifacts/bench_regress.json)
     --baseline PATH   compare every count with a document this harness
                       wrote; exit 1 when a count differs or a scenario
                       or count is on one side only.  A count whose
                       environment differs from the baseline's is
                       skipped and named.  Walls are not compared.
     --runs N          repetitions per scenario (default 3) *)

open Sider_data
open Sider_maxent
open Sider_projection
open Sider_core

type run = {
  wall : float;
  counts : (string * int) list;
}

type scenario = {
  name : string;
  descr : string;
  run : unit -> run;
}

(* --- scenario building blocks -------------------------------------------- *)

(* Words allocated so far on this domain: minor words plus the words
   allocated straight into the major heap.  Both are exact whatever
   collections run; [Gc.allocated_bytes] is not on OCaml 5.1. *)
let words_so_far () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Time [f ()] and count the words it allocates; [counts] then reads the
   work done off its result, outside the clock and the word count.
   Setup garbage is collected first, so the wall measures [f] rather
   than a collection it inherited. *)
let timed f counts =
  Gc.minor ();
  let w0 = words_so_far () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let words = int_of_float (words_so_far () -. w0) in
  { wall; counts = counts r @ [ ("words", words) ] }

let solver_counts solver (r : Solver.report) =
  [ ("sweeps", r.sweeps); ("updates", r.updates);
    ("classes", Solver.n_classes solver) ]

let update session =
  match Session.update_background ~time_cutoff:60.0 session with
  | Ok r -> r
  | Error e -> failwith (Sider_robust.Sider_error.to_string e)

let session_counts session r = solver_counts (Session.solver session) r

let clustered_constraints ds =
  let data = Dataset.matrix ds in
  Constr.margin data
  @ List.concat_map
      (fun cls -> Constr.cluster ~data ~rows:(Dataset.class_indices ds cls) ())
      (Dataset.classes ds)

(* Micro solver sweeps: a bounded number of sweeps over margin + cluster
   constraints, the per-sweep cost the paper's OPTIM column is built from. *)
let micro_solver () =
  let ds = Synth.clustered ~seed:31 ~n:512 ~d:8 ~k:4 () in
  let solver = Solver.create (Dataset.matrix ds) (clustered_constraints ds) in
  timed
    (fun () -> Solver.solve ~max_sweeps:25 ~lambda_tol:0.0 ~param_tol:0.0 solver)
    (solver_counts solver)

(* Quadratic updates at moderate dimension: root finding + rank-1
   Woodbury, on overlapping row sets so classes refine. *)
let quadratic_updates () =
  let d = 32 in
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
  timed
    (fun () -> Solver.solve ~max_sweeps:10 ~lambda_tol:0.0 ~param_tol:0.0 solver)
    (solver_counts solver)

(* Fig. 5's Case B: two clusters sharing a point of [Synth.adversarial],
   each fixed by the linear and quadratic constraint along both axes.
   Its optimum is at infinity, so a sweep never stops early.  Timed:
   building the solver and one sweep. *)
let case_b_sweep () =
  let data = Dataset.matrix (Synth.adversarial ()) in
  let cluster rows =
    [ Constr.linear ~data ~rows ~w:[| 1.0; 0.0 |] ();
      Constr.quadratic ~data ~rows ~w:[| 1.0; 0.0 |] ();
      Constr.linear ~data ~rows ~w:[| 0.0; 1.0 |] ();
      Constr.quadratic ~data ~rows ~w:[| 0.0; 1.0 |] () ]
  in
  let constraints = cluster [| 0; 2 |] @ cluster [| 1; 2 |] in
  timed
    (fun () ->
      let solver = Solver.create data constraints in
      (solver, Solver.solve ~max_sweeps:1 ~lambda_tol:0.0 ~param_tol:0.0 solver))
    (fun (solver, r) -> solver_counts solver r)

(* A synthetic-clusters session (n=2048, d=16, k=4) with the margin and
   the first cluster queued, not yet solved. *)
let synthetic_session () =
  let ds = Synth.clustered ~seed:5 ~n:2048 ~d:16 ~k:4 () in
  let session = Session.create ~seed:5 ds in
  Session.add_margin_constraint session;
  Session.add_cluster_constraint session
    (Dataset.class_indices ds (List.hd (Dataset.classes ds)));
  (ds, session)

(* Table-II-style session update on synthetic clusters: the latency an
   analyst sees between marking a cluster and the next view. *)
let session_update_synthetic () =
  let _, session = synthetic_session () in
  timed (fun () -> update session) (session_counts session)

(* The incremental counterpart of session_update_synthetic.  Setup
   (untimed): the same session, margin + first cluster, solved from the
   prior.  Timed: the paper's canonical follow-up interaction — the
   analyst marks a cluster of points in the current 2-D view — and the
   update behind it.  The solve starts from the previous optimum, which
   already satisfies the old constraints, so its sweep count must sit
   strictly below the first solve's (the incremental-update gate). *)
let session_update_warm_synthetic () =
  let ds, session = synthetic_session () in
  ignore (update session);
  Session.add_two_d_constraint session
    (Dataset.class_indices ds (List.nth (Dataset.classes ds) 1));
  timed (fun () -> update session) (session_counts session)

(* The same update on the (synthetic stand-in for the) UCI Image
   Segmentation data of the paper's Sec. IV-C. *)
let session_update_segmentation () =
  let ds = Segmentation.generate ~seed:2018 () in
  let session = Session.create ~seed:2018 ds in
  Session.add_margin_constraint session;
  Session.add_cluster_constraint session
    (Dataset.class_indices ds (List.hd (Dataset.classes ds)));
  timed (fun () -> update session) (session_counts session)

(* Whiten + PCA over a solved background: the per-interaction view cost
   once the solver is warm. *)
let whiten_pca () =
  let ds = Synth.clustered ~seed:13 ~n:1024 ~d:16 ~k:4 () in
  let solver = Solver.create (Dataset.matrix ds) (clustered_constraints ds) in
  ignore (Solver.solve ~time_cutoff:30.0 solver);
  timed
    (fun () -> Pca.top2 (Pca.fit (Whiten.whiten solver)))
    (fun _ -> [ ("classes", Solver.n_classes solver) ])

(* Whitened data of a margin-solved clustered dataset, FastICA's input.
   At k=3 no fit converges in its 200 iterations; at k=8 a cold fit
   converges in 22 and a warm refit from it in 1. *)
let ica_input ~k =
  let ds = Synth.clustered ~seed:17 ~n:1024 ~d:8 ~k () in
  let data = Dataset.matrix ds in
  let solver = Solver.create data (Constr.margin data) in
  ignore (Solver.solve ~time_cutoff:30.0 solver);
  Whiten.whiten solver

let ica_counts (fitted : Fastica.t) = [ ("iterations", fitted.iterations) ]

(* FastICA on whitened data: the paper's ICA column (O(n d²)). *)
let ica_projection () =
  let y = ica_input ~k:3 in
  timed (fun () -> Fastica.fit (Sider_rand.Rng.create 17) y) ica_counts

(* FastICA warmed by a previous unmixing matrix: prepare once, fit cold
   to get [unmixing], then time a fit seeded with it — the per-feedback
   view cost once the session threads [?ica_w0] through.  The cold fit
   converges, so this scenario covers the converged path that
   ica_projection, capped at 200 iterations, never reaches. *)
let ica_projection_warm () =
  let prep = Fastica.prepare (ica_input ~k:8) in
  let cold = Fastica.fit_prepared (Sider_rand.Rng.create 17) prep in
  timed
    (fun () ->
      Fastica.fit_prepared ~w0:cold.Fastica.unmixing
        (Sider_rand.Rng.create 18) prep)
    ica_counts

(* Full pipeline on the paper's introduction data: session creation,
   two feedback rounds, view recomputation and the scatter readout. *)
let full_pipeline () =
  let ds = Synth.three_d ~seed:2018 () in
  timed
    (fun () ->
      let session = Session.create ~seed:2018 ds in
      Session.add_margin_constraint session;
      let r1 = update session in
      ignore (Session.recompute_view session);
      Session.add_cluster_constraint session
        (Dataset.class_indices ds (List.hd (Dataset.classes ds)));
      let r2 = update session in
      ignore (Session.recompute_view session);
      ignore (Session.scatter session);
      (session, r1, r2))
    (fun (session, (r1 : Solver.report), (r2 : Solver.report)) ->
      [ ("sweeps", r1.sweeps + r2.sweeps); ("updates", r1.updates + r2.updates);
        ("classes", Solver.n_classes (Session.solver session)) ])

(* Observability overhead: the session_update_synthetic workload under
   the three telemetry states a deployment can be in.  The _off variant
   re-measures the baseline inside the same process so the three rows
   are directly comparable; the null-sink gate ([overhead_gates]) bounds
   the null sink's cost at 5%. *)
let obs_overhead mode () =
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
    session_update_synthetic

(* The per-request labeled writes of a request that started at [t0]. *)
let labeled_writes t0 =
  let module Obs = Sider_obs.Obs in
  let dur = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
  Obs.observe ~labels:[ ("stage", "solve") ] "serve.stage_s" dur;
  Obs.observe
    ~labels:[ ("route", "update"); ("status", "200") ]
    "serve.request_s" dur;
  Obs.count ~labels:[ ("tenant", "bench") ] "serve.tenant_requests"

(* Labeled-metrics overhead: the session_update_synthetic workload with
   the per-request labeled writes the service issues in [serve_one] —
   the route/status latency histogram, the per-tenant counter and a
   stage observation — inside the timed section, under the null sink.
   The comparison row is obs_overhead_null_sink (same workload,
   unlabeled instrumentation only); the labeled-metrics gate
   ([overhead_gates]) bounds the delta at 5%. *)
let obs_labels_overhead () =
  let module Obs = Sider_obs.Obs in
  Obs.set_sink (Some Obs.null_sink);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink None;
      Obs.reset ())
    (fun () ->
      let _, session = synthetic_session () in
      timed
        (fun () ->
          let t0 = Obs.now_ns () in
          let r = update session in
          labeled_writes t0;
          r)
        (session_counts session))

(* The create path of the end-to-end benchmark's projection_reads
   workload (n=1024, d=16, k=8), one layer at a time under the names of
   its per-layer metrics. *)
let reads_dataset () = Synth.clustered ~seed:7919 ~n:1024 ~d:16 ~k:8 ()

(* The two codec scenarios also check, outside the timed region, that
   the codec is exact on the data they time; a failure exits 1. *)
let codec_check name ok =
  if not ok then begin
    Printf.eprintf "bench_regress: %s: codec check FAILED\n%!" name;
    exit 1
  end

(* Decode a session-create body (about 329 KB) as the service does: its
   bytes arrive [Http.read_step] at a time into a window of that size,
   as a worker reads them into its buffer, and the rows go from there
   straight into one float array.  The decoded dataset must re-print to
   the body's exact dataset bytes. *)
let json_parse_create () =
  let dataset = Json.to_string (Persist.dataset_to_json (reads_dataset ())) in
  let body = Printf.sprintf {|{"dataset":%s,"method":"pca","seed":1}|} dataset in
  let window = Bytes.create Sider_serve.Http.read_step in
  let source () =
    let at = ref 0 in
    Json.source window 0 0 (fun b off n ->
        let k = min n (String.length body - !at) in
        Bytes.blit_string body !at b off k;
        at := !at + k;
        k)
  in
  timed
    (fun () -> Sider_serve.Service.read_create (source ()))
    (fun create ->
      codec_check "json_parse_create: re-printed dataset differs"
        (String.equal
           (Json.to_string
              (Persist.dataset_to_json create.Sider_serve.Service.dataset))
           dataset);
      [ ("bytes", String.length body) ])

(* Print the projection of a margin-solved session (about 126 KB), the
   body of GET /sessions/:id/projection, with the service's printer into
   a warm writer, as a service worker prints it; the text must parse back
   to [Session.scatter]'s points, floats bit for bit. *)
let json_serialise_projection () =
  let session = Session.create ~seed:1 (reads_dataset ()) in
  Session.add_margin_constraint session;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 session);
  ignore (Session.recompute_view session);
  let w = Json.writer 4096 in
  let print () =
    Json.clear w;
    Sider_serve.Service.write_projection w session
  in
  print ();
  let r = timed print (fun () -> [ ("bytes", Json.length w) ]) in
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
  r

(* Start a session's journal: the checksummed header carrying the whole
   dataset, written and fsynced to a fresh file in the temp directory. *)
let persist_journal_start () =
  let session = Session.create ~seed:1 (reads_dataset ()) in
  let path = Filename.temp_file "bench_journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      timed
        (fun () -> Persist.journal_close (Persist.journal_start path session))
        (fun () -> [ ("bytes", (Unix.stat path).Unix.st_size) ]))

let scenarios =
  [ { name = "micro_solver_sweeps";
      descr = "25 bounded sweeps, margin+cluster constraints";
      run = micro_solver };
    { name = "quadratic_updates_d32";
      descr = "10 sweeps of 4 overlapping quadratic constraints";
      run = quadratic_updates };
    { name = "case_b_sweep";
      descr = "one Fig. 5 Case-B sweep over 8 constraints";
      run = case_b_sweep };
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
      descr = "decode a projection_reads session-create body as it arrives";
      run = json_parse_create };
    { name = "json_serialise_projection";
      descr = "serialise a projection_reads projection body";
      run = json_serialise_projection };
    { name = "persist_journal_start";
      descr = "start a journal: checksummed dataset header, fsynced";
      run = persist_journal_start } ]

(* The scenarios that run FastICA, whose words depend on its kernel. *)
let ica_scenarios = [ "ica_projection"; "ica_projection_warm" ]

(* --- measurement ----------------------------------------------------------- *)

type measured = {
  m_name : string;
  m_wall : float;          (* median over runs *)
  m_wall_min : float;      (* fastest run — least scheduler/GC noise *)
  m_counts : (string * int) list;
  m_runs : int;
}

let show counts =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) counts)

let measure ~runs sc =
  ignore (sc.run ());
  let results = Array.init runs (fun _ -> sc.run ()) in
  let first = results.(0).counts in
  Array.iter
    (fun r ->
      if r.counts <> first then begin
        Printf.eprintf "bench_regress: %s: counts differ between runs:%s against%s\n%!"
          sc.name (show r.counts) (show first);
        exit 1
      end)
    results;
  let walls = Array.map (fun r -> r.wall) results in
  {
    m_name = sc.name;
    m_wall = Bench_common.median walls;
    m_wall_min = Array.fold_left Float.min walls.(0) walls;
    m_counts = first;
    m_runs = runs;
  }

(* --- the environment the counts depend on ---------------------------------- *)

let environment () =
  [ ("ocaml_version", Json.String Sys.ocaml_version);
    ("ica_simd", Json.Bool (Ica_kernel.simd_available ())) ]

(* The environment fields count [key] of scenario [name] depends on. *)
let depends_on name key =
  match key with
  | "words" ->
    "ocaml_version"
    :: (if List.mem name ica_scenarios then [ "ica_simd" ] else [])
  | "iterations" -> [ "ica_simd" ]
  | _ -> []

(* --- JSON in / out --------------------------------------------------------- *)

let schema = "sider-bench/5"

let to_json ~env measured =
  let num i = Json.Number (float_of_int i) in
  let scenario_json m =
    Json.Obj
      [ ("name", Json.String m.m_name);
        ("counts", Json.Obj (List.map (fun (k, v) -> (k, num v)) m.m_counts));
        ("runs", num m.m_runs);
        ("wall_s", Json.Number m.m_wall);
        ("wall_min_s", Json.Number m.m_wall_min) ]
  in
  Json.Obj
    ((("schema", Json.String schema) :: env)
     @ [ ("scenarios", Json.List (List.map scenario_json measured)) ])

(* [doc] as text, one field and one scenario per line, so a diff of the
   committed baseline shows which scenario moved. *)
let layout doc =
  let value = function
    | Json.List rows ->
      "[\n  " ^ String.concat ",\n  " (List.map Json.to_string rows) ^ "\n]"
    | v -> Json.to_string v
  in
  match doc with
  | Json.Obj fields ->
    "{"
    ^ String.concat ",\n "
        (List.map (fun (k, v) -> Json.to_string (Json.String k) ^ ":" ^ value v) fields)
    ^ "}\n"
  | v -> Json.to_string v ^ "\n"

(* A baseline's environment and its counts per scenario. *)
let read_baseline path =
  let doc = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let found = Json.to_str (Json.member "schema" doc) in
  if not (String.equal found schema) then
    failwith (Printf.sprintf "%s: schema %s, not %s" path found schema);
  let env = List.map (fun (field, _) -> (field, Json.member field doc)) (environment ()) in
  let counts s =
    match Json.member "counts" s with
    | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_int v)) kvs
    | _ -> failwith (path ^ ": counts is not an object")
  in
  ( env,
    List.map
      (fun s -> (Json.to_str (Json.member "name" s), counts s))
      (Json.to_list (Json.member "scenarios" doc)) )

(* Every count against the baseline's: how many are equal, the counts
   skipped because an environment field they depend on changed (each
   with the change, as text), and the differences. *)
let diff_counts ~base_env ~baseline ~env measured =
  let differs = ref [] and skipped = ref [] and matched = ref 0 in
  let differ fmt = Printf.ksprintf (fun s -> differs := s :: !differs) fmt in
  let value = function Some v -> string_of_int v | None -> "none" in
  let changes name key =
    List.filter_map
      (fun field ->
        let b = List.assoc field base_env and n = List.assoc field env in
        if b = n then None
        else
          Some
            (Printf.sprintf "%s %s there, %s now" field (Json.to_string b)
               (Json.to_string n)))
      (depends_on name key)
  in
  List.iter
    (fun m ->
      match List.assoc_opt m.m_name baseline with
      | None -> differ "%s: no baseline row" m.m_name
      | Some old ->
        let keys =
          List.map fst m.m_counts
          @ List.filter (fun k -> not (List.mem_assoc k m.m_counts)) (List.map fst old)
        in
        List.iter
          (fun key ->
            let b = List.assoc_opt key old and v = List.assoc_opt key m.m_counts in
            match changes m.m_name key with
            | _ :: _ as c ->
              skipped := (m.m_name ^ "." ^ key, String.concat ", " c) :: !skipped
            | [] when b = v -> incr matched
            | [] -> differ "%s.%s: %s, baseline %s" m.m_name key (value v) (value b))
          keys)
    measured;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> String.equal m.m_name name) measured) then
        differ "%s: in the baseline, not run now" name)
    baseline;
  (!matched, List.rev !skipped, List.rev !differs)

(* --- gates ----------------------------------------------------------------- *)

let find measured name =
  match List.find_opt (fun m -> String.equal m.m_name name) measured with
  | Some m -> m
  | None -> failwith ("no scenario " ^ name)

let count m key =
  match List.assoc_opt key m.m_counts with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no count %s" m.m_name key)

(* Print a gate's verdict; [ok] false goes to stderr as FAILED. *)
let verdict ok fmt =
  Printf.ksprintf
    (fun s ->
      if ok then Printf.printf "  %s ok\n%!" s
      else Printf.eprintf "bench_regress: %s FAILED\n%!" s;
      ok)
    fmt

(* The incremental update must converge in strictly fewer sweeps than a
   first solve; sweep counts do not jitter with the scheduler. *)
let incremental_gate measured =
  let first = count (find measured "session_update_synthetic") "sweeps"
  and warm = count (find measured "session_update_warm_synthetic") "sweeps" in
  verdict (warm < first)
    "incremental-update gate: session_update_warm_synthetic %d sweeps, \
     strictly below session_update_synthetic's %d:"
    warm first

(* The null-sink and labeled-metrics gates.  Telemetry off, the null
   sink, and the null sink with the service's per-request labeled writes
   each time session_update_synthetic's solve (its session's prior
   solver plus the queued margin and first-cluster constraints, added
   and solved as [Session.update_background] does), interleaved: one
   run of each per triple, the triples cycling through all six orders.
   Each gate bounds the median of its per-triple ratio, null sink over
   off and labeled over null sink, at 5%.  Back-to-back runs of one
   solve share the machine's drift, so the ratio resolves a few percent
   where medians of separate scenarios, 1.5-2.6 ms each, did not. *)
let overhead_triples = 48

let overhead_gates () =
  let module Obs = Sider_obs.Obs in
  let ds = Synth.clustered ~seed:5 ~n:2048 ~d:16 ~k:4 () in
  let session = Session.create ~seed:5 ds in
  let data = Session.data session in
  let constraints =
    Constr.margin ~tag:"margin" data
    @ Constr.cluster ~tag:(Session.default_tag session `Cluster) ~data
        ~rows:(Dataset.class_indices ds (List.hd (Dataset.classes ds))) ()
  in
  let solve () =
    Solver.solve ~time_cutoff:60.0
      (Solver.add_constraints (Session.solver session) constraints)
  in
  let sweeps = (solve ()).Solver.sweeps in
  let run mode =
    Obs.set_sink (match mode with `Off -> None | `Null | `Labeled -> Some Obs.null_sink);
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    let r =
      match mode with
      | `Labeled ->
        let start = Obs.now_ns () in
        let r = solve () in
        labeled_writes start;
        r
      | `Off | `Null -> solve ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    Obs.set_sink None;
    if r.Solver.sweeps <> sweeps then
      failwith "overhead gates: the solve's sweeps differ between runs";
    wall
  in
  let orders =
    [| [ `Off; `Null; `Labeled ]; [ `Off; `Labeled; `Null ];
       [ `Null; `Off; `Labeled ]; [ `Null; `Labeled; `Off ];
       [ `Labeled; `Off; `Null ]; [ `Labeled; `Null; `Off ] |]
  in
  let triples =
    Array.init overhead_triples (fun i ->
        let walls = List.map (fun m -> (m, run m)) orders.(i mod 6) in
        (List.assoc `Off walls, List.assoc `Null walls, List.assoc `Labeled walls))
  in
  Obs.reset ();
  let gate name ratio ~over ~reference =
    let r = Array.map ratio triples in
    let pct q = 100.0 *. (Obs.quantile_type7 r q -. 1.0) in
    verdict (pct 0.5 <= 5.0)
      "%s gate: %s over %s, median of %d interleaved solves %+.1f%% \
       (quartiles %+.1f%% / %+.1f%%), within 5%%:"
      name over reference overhead_triples (pct 0.5) (pct 0.25) (pct 0.75)
  in
  let null_sink =
    gate "null-sink" (fun (off, null, _) -> null /. off) ~over:"null sink"
      ~reference:"telemetry off"
  in
  let labeled =
    gate "labeled-metrics" (fun (_, null, labeled) -> labeled /. null)
      ~over:"labeled writes" ~reference:"null sink"
  in
  null_sink && labeled

(* The count gate: every count against the baseline at [path]. *)
let count_gate ~env measured path =
  let base_env, baseline = read_baseline path in
  let matched, skipped, differs = diff_counts ~base_env ~baseline ~env measured in
  (* One line per environment change, naming every count it skips. *)
  List.iter
    (fun change ->
      Printf.printf "  skipped (%s):%s\n" change
        (String.concat ""
           (List.filter_map
              (fun (count, c) -> if String.equal c change then Some (" " ^ count) else None)
              skipped)))
    (List.sort_uniq String.compare (List.map snd skipped));
  List.iter (Printf.eprintf "bench_regress: count differs: %s\n") differs;
  verdict (differs = [])
    "count gate against %s: %d equal, %d skipped, %d differ:" path matched
    (List.length skipped) (List.length differs)

(* --- driver ---------------------------------------------------------------- *)

let () =
  let out = ref "_artifacts/bench_regress.json" in
  let baseline = ref None in
  let runs = ref 3 in
  let specs =
    [ ("--out", Arg.Set_string out, "PATH output JSON path");
      ("--baseline", Arg.String (fun p -> baseline := Some p),
       "PATH a previous output; exit 1 when a count differs from it");
      ("--runs", Arg.Set_int runs, "N repetitions per scenario (default 3)") ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench_regress [--out PATH] [--baseline PATH] [--runs N]";
  let runs = Stdlib.max 1 !runs in
  let env = environment () in
  Printf.printf "bench_regress: %d scenarios, %d run(s) each, %s\n%!"
    (List.length scenarios) runs
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) env));
  let measured =
    List.map
      (fun sc ->
        Printf.printf "  %-30s %s ...%!" sc.name sc.descr;
        let m = measure ~runs sc in
        Printf.printf " %.6fs (min %.6fs)%s\n%!" m.m_wall m.m_wall_min
          (show m.m_counts);
        m)
      scenarios
  in
  Bench_common.write_file !out (layout (to_json ~env measured));
  Printf.printf "  wrote %s\n%!" !out;
  let incremental = incremental_gate measured in
  let overhead = overhead_gates () in
  let counts = Option.fold ~none:true ~some:(count_gate ~env measured) !baseline in
  if not (incremental && overhead && counts) then exit 1

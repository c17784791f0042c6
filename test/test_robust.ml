(* The numerical fault-tolerance layer: structured errors, guarded
   kernels, the fault-injection harness, and the recovery guarantees the
   ISSUE's acceptance criteria name — injected NaNs, ill-conditioned
   covariances and adversarial constraint sets must yield [Error] or a
   degraded-but-valid state, never an uncaught exception. *)

open Sider_linalg
open Sider_robust
open Sider_data
open Sider_core
open Test_helpers

let finite_mat m = Array.for_all Float.is_finite m.Mat.a
let finite_vec = Array.for_all Float.is_finite

let small_dataset () =
  (* 60×4, two visible blobs — small enough that every test is fast,
     structured enough that cluster constraints are non-trivial. *)
  Synth.clustered ~seed:7 ~n:60 ~d:4 ~k:2 ()

let solver_params_finite solver =
  let ok = ref true in
  for c = 0 to Sider_maxent.Solver.n_classes solver - 1 do
    let p = Sider_maxent.Solver.class_params solver c in
    if not (finite_vec p.Sider_maxent.Gauss_params.mean
            && finite_vec p.Sider_maxent.Gauss_params.theta1
            && finite_mat p.Sider_maxent.Gauss_params.sigma)
    then ok := false
  done;
  !ok

(* --- Sider_error -------------------------------------------------------------- *)

let test_error_to_string () =
  let e =
    Sider_error.nan_detected ~class_index:3 ~sweep:12 "post-sweep scan"
  in
  let s = Sider_error.to_string e in
  check_true "label" (Sider_error.label e = "nan-detected");
  check_true "class in message" (String.length s > 0 && String.contains s '3');
  check_true "detail in message"
    (String.length s >= 15 && String.sub s (String.length s - 15) 15
                              = "post-sweep scan")

let test_protect () =
  (match Sider_error.protect (fun () -> 41 + 1) with
   | Ok 42 -> ()
   | _ -> Alcotest.fail "expected Ok 42");
  (match
     Sider_error.protect (fun () ->
         Sider_error.raise_ (Sider_error.degenerate_data "boom"))
   with
   | Result.Error e -> check_true "label" (Sider_error.label e = "degenerate-data")
   | Ok _ -> Alcotest.fail "expected Error");
  (match Sider_error.protect (fun () -> failwith "plain") with
   | Result.Error e ->
     check_true "Failure converted" (Sider_error.label e = "degenerate-data")
   | Ok _ -> Alcotest.fail "expected Error")

(* --- Kernels ------------------------------------------------------------------- *)

let test_chol_ladder () =
  (* Well-conditioned: first rung (no jitter). *)
  (match Kernels.symmetric_inverse (Mat.identity 4) with
   | Ok inv -> approx_mat ~eps:0.0 "no jitter needed" (Mat.identity 4) inv
   | Error _ -> Alcotest.fail "identity must factor");
  (* Ill-conditioned but PD: some rung succeeds, factor is finite. *)
  let cov = Fault.ill_conditioned_cov ~d:5 ~log10_kappa:15.0 in
  (match Kernels.symmetric_inverse cov with
   | Ok inv -> check_true "inverse finite" (finite_mat inv)
   | Error _ -> Alcotest.fail "ladder must rescue ill-conditioned PD");
  (* NaN input: structured Nan_detected, not a crash. *)
  (match Kernels.symmetric_inverse (Fault.with_nans (Mat.identity 3) [ (1, 1) ]) with
   | Result.Error e -> check_true "nan" (Sider_error.label e = "nan-detected")
   | Ok _ -> Alcotest.fail "NaN must be rejected");
  (* Negative definite: no rung can fix it. *)
  let neg = diag [| -1.0; -1.0; -1.0 |] in
  match Kernels.symmetric_inverse neg with
  | Result.Error e ->
    check_true "singular" (Sider_error.label e = "singular-covariance")
  | Ok _ -> Alcotest.fail "negative definite must fail"

let test_ill_conditioned_cov_deterministic () =
  let a = Fault.ill_conditioned_cov ~d:4 ~log10_kappa:10.0 in
  let b = Fault.ill_conditioned_cov ~d:4 ~log10_kappa:10.0 in
  approx_mat "deterministic" a b;
  check_true "symmetric" (Mat.is_symmetric ~eps:1e-9 a)

(* --- Acceptance: injected NaN is recovered ------------------------------------- *)

let test_injected_nan_recovered () =
  Fault.reset ();
  let session = Session.create ~seed:11 (small_dataset ()) in
  Session.add_margin_constraint session;
  Fault.arm (Fault.Nan_in_class { sweep = 1; cls = 0 });
  (match Session.update_background session with
   | Ok report ->
     check_true "injection fired" (List.length (Fault.fired ()) = 1);
     check_true "degradation recorded"
       (List.exists
          (fun e -> Sider_error.label e = "nan-detected")
          report.Sider_maxent.Solver.degradations);
     check_true "params finite" (solver_params_finite (Session.solver session));
     check_true "session remembers"
       (List.exists
          (fun e -> Sider_error.label e = "nan-detected")
          (Session.degradations session))
   | Error e ->
     Alcotest.failf "recoverable injection must not fail the update: %s"
       (Sider_error.to_string e));
  Fault.reset ()

(* --- Acceptance: a fault in an incremental solve is survived ------------------ *)

let test_incremental_solve_fault_survived () =
  Fault.reset ();
  let module Solver = Sider_maxent.Solver in
  let session = Session.create ~seed:11 (small_dataset ()) in
  Session.add_margin_constraint session;
  (match Session.update_background session with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "setup solve: %s" (Sider_error.to_string e));
  Session.add_cluster_constraint session (Array.init 12 Fun.id);
  (* Sweep 1 of the next solve is the first sweep from the inherited
     parameters; poisoning it must be recovered, recorded, and the solve
     must still converge. *)
  Fault.arm (Fault.Nan_in_class { sweep = 1; cls = 0 });
  (match Session.update_background session with
   | Ok report ->
     check_true "injection fired" (List.length (Fault.fired ()) = 1);
     check_true "degradation recorded"
       (List.exists
          (fun e -> Sider_error.label e = "nan-detected")
          report.Solver.degradations);
     check_true "converged" report.Solver.converged;
     check_true "params finite" (solver_params_finite (Session.solver session))
   | Error e ->
     Alcotest.failf "incremental-solve fault must degrade, not fail: %s"
       (Sider_error.to_string e));
  Fault.reset ()

(* --- Acceptance: unrecoverable failure rolls the session back ------------------ *)

let test_sweep_failure_rolls_back () =
  Fault.reset ();
  let session = Session.create ~seed:11 (small_dataset ()) in
  Session.add_margin_constraint session;
  let queued = Session.n_constraints session in
  Fault.arm (Fault.Fail_sweep { sweep = 1 });
  (match Session.update_background session with
   | Ok _ -> Alcotest.fail "injected divergence must surface as Error"
   | Error e ->
     check_true "structured divergence"
       (Sider_error.label e = "solver-divergence"));
  (* Checkpoint restored: constraints are still queued, solver untouched. *)
  check_true "constraints preserved" (Session.n_constraints session = queued);
  check_true "solver rolled back"
    (Array.length (Sider_maxent.Solver.constraints (Session.solver session))
     = 0);
  (* The analyst retries after the (consumed) fault: now it succeeds. *)
  (match Session.update_background session with
   | Ok report ->
     check_true "retry converges" report.Sider_maxent.Solver.converged
   | Error e ->
     Alcotest.failf "retry after rollback must succeed: %s"
       (Sider_error.to_string e));
  Fault.reset ()

(* --- Acceptance: adversarial constraint sets ----------------------------------- *)

let test_adversarial_rowsets () =
  let ds = small_dataset () in
  List.iter
    (fun rows ->
      let session = Session.create ~seed:13 ds in
      Session.add_margin_constraint session;
      Session.add_cluster_constraint session rows;
      (* Duplicate of the same rows: redundant constraints on one class. *)
      Session.add_cluster_constraint session rows;
      match Session.update_background ~max_sweeps:60 session with
      | Ok _ ->
        check_true "params finite"
          (solver_params_finite (Session.solver session));
        (* The full downstream path must also survive: whiten + project. *)
        ignore (Session.recompute_view session);
        Array.iter
          (fun p ->
            check_true "scatter finite"
              (Float.is_finite p.Session.x && Float.is_finite p.Session.y))
          (Session.scatter session)
      | Error _ -> (* structured failure is acceptable; crashing is not *) ())
    (Fault.adversarial_rowsets ~n:(Dataset.n_rows ds))

(* --- View degradation ----------------------------------------------------------- *)

let test_view_ica_fallback () =
  let ds = small_dataset () in
  let session = Session.create ~seed:17 ds in
  Session.add_margin_constraint session;
  (match Session.update_background session with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "setup: %s" (Sider_error.to_string e));
  let rng = Sider_rand.Rng.create 17 in
  let y = Sider_projection.Whiten.whiten (Session.solver session) in
  (* One FastICA iteration cannot converge: the view must still come back
     usable, flagged degraded (kept ICA axes or PCA fallback). *)
  let v =
    Sider_projection.View.of_whitened ~rng ~ica_max_iter:1
      ~method_:Sider_projection.View.Ica y
  in
  check_true "degradation recorded" (v.Sider_projection.View.degraded <> None);
  check_true "axis1 finite" (finite_vec v.Sider_projection.View.axis1.direction);
  check_true "axis2 finite" (finite_vec v.Sider_projection.View.axis2.direction)

(* --- CSV degenerate input ---------------------------------------------- *)

let test_csv_duplicate_headers () =
  try
    ignore (csv_of_string "a,b,a\n1,2,3");
    Alcotest.fail "expected rejection"
  with Sider_error.Error e ->
    check_true "degenerate" (Sider_error.label e = "degenerate-data")

(* --- Doctor ---------------------------------------------------------------------- *)

let test_doctor_healthy () =
  let report = Doctor.check_dataset ~seed:7 (small_dataset ()) in
  check_true "healthy" report.Doctor.healthy;
  check_true "probe ran"
    (List.exists (fun f -> f.Doctor.check = "probe") report.Doctor.findings)

let test_doctor_diagnoses_nan () =
  let ds = small_dataset () in
  let poisoned =
    Dataset.with_matrix ds (Fault.with_nans (Dataset.matrix ds) [ (3, 1) ])
  in
  let report = Doctor.check_dataset poisoned in
  check_true "diagnosed" (not report.Doctor.healthy);
  check_true "non-finite finding"
    (List.exists
       (fun f -> f.Doctor.check = "non-finite"
                 && f.Doctor.severity = Doctor.Fault)
       report.Doctor.findings);
  (* A static fault suppresses the deep probe (it would only re-crash). *)
  check_true "probe skipped"
    (not
       (List.exists (fun f -> f.Doctor.check = "probe") report.Doctor.findings))

(* --- Doctor.check_store ------------------------------------------------------ *)

(* [f path] over a closed journal of a session's creation and margin
   round; the journal and any sibling snapshot are removed after.
   [compact] folds the journal into a snapshot first. *)
let with_store ?(compact = false) f =
  let path = Filename.temp_file "sider_doctor" ".journal" in
  let snap = Persist.snapshot_path path in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; snap ])
    (fun () ->
      let s = Session.create ~seed:7 (small_dataset ()) in
      let j = Persist.journal_start path s in
      Session.add_margin_constraint s;
      ignore (Session.update_background s);
      List.iter (Persist.journal_append j) (Session.history s);
      if compact then Persist.journal_compact j s;
      Persist.journal_close j;
      f path)

let finding report check severity =
  List.exists
    (fun f -> f.Doctor.check = check && f.Doctor.severity = severity)
    report.Doctor.findings

let rewrite path edit =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> output_string oc (edit text))

let test_store_healthy () =
  with_store @@ fun path ->
  let report = Doctor.check_store path in
  check_true "healthy" report.Doctor.healthy;
  check_true "replayed" (finding report "replay" Doctor.Info)

let test_store_compacted () =
  with_store ~compact:true @@ fun path ->
  let report = Doctor.check_store path in
  check_true "healthy" report.Doctor.healthy;
  check_true "sibling snapshot noted" (finding report "snapshot" Doctor.Info)

let test_store_unterminated_tail () =
  with_store @@ fun path ->
  rewrite path (fun text -> text ^ "{\"type\":\"upd");
  let report = Doctor.check_store path in
  check_true "still healthy" report.Doctor.healthy;
  check_true "tail warned" (finding report "tail" Doctor.Warning)

(* A recorded checksum with its first digit changed, not re-recorded. *)
let flip_checksum doc =
  let key = "\"checksum\":\"" in
  let rec find i =
    if String.sub doc i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let at = find 0 in
  String.mapi (fun i c -> if i = at then (if c = '0' then '1' else '0') else c)
    doc

let test_store_flipped_checksum () =
  with_store @@ fun path ->
  rewrite path flip_checksum;
  let report = Doctor.check_store path in
  check_true "diagnosed" (not report.Doctor.healthy);
  check_true "replay fault" (finding report "replay" Doctor.Fault)

(* A version that is not a number is a finding, not an exception. *)
let test_store_string_version () =
  let path = Filename.temp_file "sider_doctor" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  rewrite path (fun _ ->
      {|{"format":"sider-session","version":"2","checksum":"0000000000000000"}|});
  let report = Doctor.check_store path in
  check_true "diagnosed" (not report.Doctor.healthy);
  check_true "recovery's refusal" (finding report "replay" Doctor.Fault)

let test_store_missing () =
  let report = Doctor.check_store "/nonexistent/sider-doctor.journal" in
  check_true "diagnosed" (not report.Doctor.healthy);
  check_true "store fault" (finding report "store" Doctor.Fault)

let set_field key v = List.map (fun (k, x) -> (k, if k = key then v else x))

let drop_field key = List.filter (fun (k, _) -> k <> key)

(* The document [doc] with its fields edited, and the checksum, if the
   edit kept one, recorded again over the result: each edit breaks the
   rule it names and not the checksum. *)
let edit_document f doc =
  match Json.of_string doc with
  | Json.Obj fields ->
    let fields = f fields in
    let body = Json.to_string (Json.Obj (drop_field "checksum" fields)) in
    Json.to_string
      (Json.Obj
         (set_field "checksum" (Json.String (reference_fnv64 body)) fields))
  | _ -> Alcotest.fail "not a document"

(* Acked => restored is checked by recovery; the doctor is how an
   operator asks it.  Over stores mutated against each format rule, and
   a journal cut at every byte, the doctor must call a store healthy
   exactly when recovery loads it. *)
let test_store_agreement () =
  let s = Session.create ~seed:4 (Synth.gaussian ~seed:13 ~n:14 ~d:3 ()) in
  Session.add_margin_constraint s;
  ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let jpath = Filename.temp_file "sider_agree" ".journal" in
  let spath = Filename.temp_file "sider_agree" ".json" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ jpath; spath ])
  @@ fun () ->
  Persist.save spath s;
  Persist.journal_close (Persist.journal_start jpath s);
  let snapshot = read spath and journal = read jpath in
  let cut = String.index journal '\n' in
  let header = String.sub journal 0 cut
  and events = String.sub journal cut (String.length journal - cut) in
  let agree what kind text =
    let path = match kind with `Journal -> jpath | `Snapshot -> spath in
    write path text;
    let healthy = (Doctor.check_store path).Doctor.healthy in
    let loads =
      match kind with
      | `Journal -> Result.is_ok (Persist.journal_load path)
      | `Snapshot -> Result.is_ok (Persist.load_result path)
    in
    if healthy <> loads then
      Alcotest.failf "%s: doctor says %s, recovery %s" what
        (if healthy then "healthy" else "diagnosed")
        (if loads then "loads it" else "refuses it");
    loads
  in
  let mutations =
    [ ("intact", Fun.id, true);
      ("no version", edit_document (drop_field "version"), true);
      ("string version", edit_document (set_field "version" (Json.String "2")),
       false);
      ("version 2.5", edit_document (set_field "version" (Json.Number 2.5)),
       false);
      ("version 0", edit_document (set_field "version" (Json.Number 0.)), false);
      ("version 3", edit_document (set_field "version" (Json.Number 3.)), false);
      ("no checksum", edit_document (drop_field "checksum"), false);
      ("flipped checksum digit", flip_checksum, false) ]
  in
  List.iter
    (fun (what, mutate, expected) ->
      check_true ("snapshot, " ^ what)
        (agree ("snapshot, " ^ what) `Snapshot (mutate snapshot) = expected);
      check_true ("journal, " ^ what)
        (agree ("journal, " ^ what) `Journal (mutate header ^ events)
         = expected))
    mutations;
  check_true "journal, header without its newline"
    (not (agree "header without its newline" `Journal header));
  for len = 0 to String.length journal do
    ignore
      (agree (Printf.sprintf "journal cut at %d" len) `Journal
         (String.sub journal 0 len))
  done

(* --- Multi-shot fault arms ------------------------------------------------------ *)

(* Regression: a counted arm must fire exactly [n] times and then
   disarm; a persistent arm must never decrement.  (The armed list used
   to hold plain injections, so soak tests had to re-arm between
   iterations and a forgotten re-arm silently tested nothing.) *)
let test_counted_and_persistent_arms () =
  Fault.reset ();
  let fires () =
    (* should_crash_after_journal polls the armed list by path. *)
    Fault.should_crash_after_journal ~path:"/anywhere"
  in
  Fault.arm_counted 3 (Fault.Svc_crash_after_journal { path_substr = "" });
  for i = 1 to 3 do
    check_true (Printf.sprintf "counted shot %d fires" i) (fires ())
  done;
  check_true "counted arm exhausted" (not (fires ()));
  check_true "disarmed after n shots" (Fault.armed () = []);
  check_true "three firings recorded" (List.length (Fault.fired ()) = 3);
  (match Fault.arm_counted 0 (Fault.Fail_sweep { sweep = 1 }) with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "arm_counted 0 must be rejected");
  Fault.reset ();
  Fault.arm_persistent (Fault.Svc_crash_after_journal { path_substr = "" });
  for i = 1 to 5 do
    check_true (Printf.sprintf "persistent shot %d fires" i) (fires ())
  done;
  check_true "still armed" (List.length (Fault.armed ()) = 1);
  Fault.reset ();
  check_true "reset disarms" (not (fires ()))

let suite =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "error to_string carries context" test_error_to_string;
    case "protect converts exceptions" test_protect;
    case "cholesky jitter ladder" test_chol_ladder;
    case "ill-conditioned builder deterministic"
      test_ill_conditioned_cov_deterministic;
    case "injected NaN recovered in-place" test_injected_nan_recovered;
    case "incremental-solve fault is survived"
      test_incremental_solve_fault_survived;
    case "sweep failure rolls session back" test_sweep_failure_rolls_back;
    case "adversarial rowsets never crash" test_adversarial_rowsets;
    case "view survives non-converged ICA" test_view_ica_fallback;
    case "csv duplicate headers rejected" test_csv_duplicate_headers;
    case "doctor: clean dataset healthy" test_doctor_healthy;
    case "doctor: NaN diagnosed, probe skipped" test_doctor_diagnoses_nan;
    case "doctor store: healthy journal" test_store_healthy;
    case "doctor store: compacted journal and its snapshot"
      test_store_compacted;
    case "doctor store: unterminated tail warns, stays healthy"
      test_store_unterminated_tail;
    case "doctor store: flipped checksum digit is a fault"
      test_store_flipped_checksum;
    case "doctor store: string version is a fault, not a raise"
      test_store_string_version;
    case "doctor store: missing file is a fault" test_store_missing;
    case "doctor store: healthy exactly when recovery loads the store"
      test_store_agreement;
    case "counted and persistent arms" test_counted_and_persistent_arms;
  ]

open Sider_linalg
open Sider_data
open Sider_robust
module Obs = Sider_obs.Obs

type severity = Info | Warning | Fault

type finding = {
  check : string;
  severity : severity;
  message : string;
}

type report = {
  findings : finding list;
  healthy : bool;
}

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Fault -> "fault"

let finalize findings =
  let findings = List.rev findings in
  let healthy =
    not (List.exists (fun f -> f.severity = Fault) findings)
  in
  { findings; healthy }

let fault ~check message =
  finalize [ { check; severity = Fault; message } ]

let check_shape ds acc =
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  let acc =
    { check = "shape"; severity = Info;
      message = Printf.sprintf "%d rows × %d columns" n d }
    :: acc
  in
  if n = 0 || d = 0 then
    { check = "shape"; severity = Fault;
      message = "dataset is empty" }
    :: acc
  else if n <= d then
    { check = "shape"; severity = Warning;
      message =
        Printf.sprintf
          "fewer rows than columns (%d ≤ %d): sample covariance is \
           singular by construction" n d }
    :: acc
  else acc

let check_finite ds acc =
  let m = Dataset.matrix ds in
  let bad = ref None in
  let count = ref 0 in
  for i = 0 to Dataset.n_rows ds - 1 do
    for j = 0 to Dataset.n_cols ds - 1 do
      if not (Float.is_finite (Mat.get m i j)) then begin
        incr count;
        if !bad = None then bad := Some (i, j)
      end
    done
  done;
  match !bad with
  | None -> acc
  | Some (i, j) ->
    { check = "non-finite"; severity = Fault;
      message =
        Printf.sprintf
          "%d non-finite cell(s); first at row %d, column %S" !count
          (i + 1) (Dataset.columns ds).(j) }
    :: acc

let check_columns ds acc =
  let columns = Dataset.columns ds in
  let seen = Hashtbl.create 16 in
  let dup = ref [] in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c then dup := c :: !dup
      else Hashtbl.add seen c ())
    columns;
  match List.rev !dup with
  | [] -> acc
  | dups ->
    { check = "columns"; severity = Fault;
      message =
        Printf.sprintf "duplicate column name(s): %s"
          (String.concat ", " (List.map (Printf.sprintf "%S") dups)) }
    :: acc

let check_constant ds acc =
  if Dataset.n_rows ds = 0 then acc
  else begin
    let vars = Mat.col_variances (Dataset.matrix ds) in
    let constant =
      Array.to_list (Dataset.columns ds)
      |> List.filteri (fun j _ -> vars.(j) = 0.0)
    in
    match constant with
    | [] -> acc
    | cs ->
      { check = "constant"; severity = Warning;
        message =
          Printf.sprintf
            "%d constant column(s) (%s): zero variance; the engine's \
             jitter keeps them finite but they carry no information"
            (List.length cs)
            (String.concat ", " (List.map (Printf.sprintf "%S") cs)) }
      :: acc
  end

let check_conditioning ds acc =
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  if n < 2 || d = 0 then acc
  else begin
    let cov = Mat.covariance (Dataset.matrix ds) in
    let finite = ref true in
    for i = 0 to d - 1 do
      for j = 0 to d - 1 do
        if not (Float.is_finite (Mat.get cov i j)) then finite := false
      done
    done;
    if not !finite then
      { check = "conditioning"; severity = Fault;
        message = "covariance has non-finite entries" }
      :: acc
    else begin
      let dec = Eigen.symmetric cov in
      let mx = Array.fold_left Float.max neg_infinity dec.Eigen.values in
      let mn = Array.fold_left Float.min infinity dec.Eigen.values in
      if mx <= 0.0 then
        { check = "conditioning"; severity = Warning;
          message = "covariance has no positive eigenvalue" }
        :: acc
      else if mn <= 0.0 then
        { check = "conditioning"; severity = Warning;
          message =
            Printf.sprintf
              "covariance is singular (smallest eigenvalue %.3g): some \
               directions are exactly collinear" mn }
        :: acc
      else begin
        let kappa = mx /. mn in
        let sev = if kappa > 1e10 then Warning else Info in
        { check = "conditioning"; severity = sev;
          message = Printf.sprintf "covariance condition number %.3g" kappa }
        :: acc
      end
    end
  end

(* End-to-end probe: the smallest realistic workload — create a session,
   declare the margin constraint, solve, project.  This exercises
   standardization, the MaxEnt solver, whitening and the view search on
   the actual data, so it catches interactions the static checks cannot
   (e.g. a covariance that is fine per-column but collapses under the
   solver's updates). *)
let deep_probe ~seed ds acc =
  match
    Sider_error.protect (fun () ->
        let session = Session.create ~seed ds in
        Session.add_margin_constraint session;
        let report =
          match Session.update_background ~time_cutoff:5.0 session with
          | Ok r -> r
          | Error e -> Sider_error.raise_ e
        in
        ignore (Session.recompute_view session);
        (report, Session.degradations session))
  with
  | Ok (report, degradations) ->
    let acc =
      { check = "probe"; severity = Info;
        message =
          Printf.sprintf
            "end-to-end probe ok: solved margin constraints in %d \
             sweep(s)%s" report.Sider_maxent.Solver.sweeps
            (if report.Sider_maxent.Solver.converged then ""
             else " (not converged within cutoff)") }
      :: acc
    in
    List.fold_left
      (fun acc e ->
        { check = "probe"; severity = Warning;
          message =
            Printf.sprintf "probe survived a numerical fault: %s"
              (Sider_error.to_string e) }
        :: acc)
      acc degradations
  | Error e ->
    { check = "probe"; severity = Fault;
      message =
        Printf.sprintf "end-to-end probe failed: %s"
          (Sider_error.to_string e) }
    :: acc
  | exception exn ->
    (* Session.create validates shape/finiteness with Invalid_argument;
       anything else unexpected is still a diagnosis, not a crash. *)
    { check = "probe"; severity = Fault;
      message =
        Printf.sprintf "end-to-end probe failed: %s"
          (Printexc.to_string exn) }
    :: acc

(* Telemetry self-checks: the observability layer itself is part of the
   production surface (flight recorder, /metrics endpoint), so the doctor
   verifies it can actually carry a span.  The round-trip probe installs
   a throwaway recording sink — skipped when a real sink is live, since
   [set_sink] would silently replace it. *)
let check_telemetry acc =
  let acc =
    if Obs.sink_installed () then
      { check = "telemetry"; severity = Info;
        message =
          "a sink is already installed; span round-trip probe skipped \
           to keep the live trace intact" }
      :: acc
    else begin
      let r = Obs.recording_sink () in
      Obs.set_sink (Some r.Obs.rec_sink);
      Obs.with_span "doctor.roundtrip" (fun () -> ());
      let spans = r.Obs.spans () in
      Obs.set_sink None;
      match spans with
      | [ s ]
        when s.Obs.name = "doctor.roundtrip"
             && Int64.compare s.Obs.dur_ns 0L >= 0 ->
        { check = "telemetry"; severity = Info;
          message = "span round-trip ok (install → span → uninstall)" }
        :: acc
      | spans ->
        { check = "telemetry"; severity = Fault;
          message =
            Printf.sprintf
              "span round-trip failed: expected 1 completed span, got %d"
              (List.length spans) }
        :: acc
    end
  in
  let st = Obs.flight_stats () in
  { check = "telemetry"; severity = Info;
    message =
      (if st.Obs.fr_enabled then
         Printf.sprintf
           "flight recorder on: capacity %d, %d entries written, %d \
            dropped by wraparound"
           st.Obs.fr_capacity st.Obs.fr_written st.Obs.fr_dropped
       else
         Printf.sprintf "flight recorder off (capacity %d)"
           st.Obs.fr_capacity) }
  :: acc

(* Persistence-store integrity: is this snapshot / journal something a
   boot-time recovery would accept?  [Persist.inspect] reads it once
   with the scan recovery runs and reports what that scan saw; the
   verdict is recovery's own, so healthy here means "this file
   restores". *)
let check_store path =
  match Persist.inspect path with
  | Error e -> fault ~check:"store" (Sider_error.to_string e)
  | Ok { Persist.kind; bytes; recovery } ->
    let finding check severity message = { check; severity; message } in
    let findings =
      match recovery with
      | Error e -> [ finding "replay" Fault (Sider_error.to_string e) ]
      | Ok { Persist.session; version; restored; dropped; sibling } ->
        (if dropped = 0 then []
         else
           [ finding "tail" Warning
               (Printf.sprintf
                  "%d byte(s) after the last intact record (an interrupted \
                   append): recovery drops them"
                  dropped) ])
        @ (match sibling with
           | None -> []
           | Some (snap, bytes) ->
             [ finding "snapshot" Info
                 (Printf.sprintf
                    "sibling snapshot %s (%d bytes): compacted journal"
                    (Filename.basename snap) bytes) ])
        @ [ finding "replay" Info
              (Printf.sprintf
                 "replayed cleanly: format version %d, %d event(s) \
                  restored, %d constraint(s)"
                 version restored (Session.n_constraints session)) ]
    in
    finalize
      (List.rev
         (finding "store" Info
            (Printf.sprintf "%s: %d bytes, %s" (Filename.basename path) bytes
               (match kind with
                | `Journal -> "write-ahead journal"
                | `Snapshot -> "session snapshot"))
          :: findings))

let check_dataset ?(deep = true) ?(seed = 2018) ds =
  let acc = [] in
  let acc = check_shape ds acc in
  let acc = check_finite ds acc in
  let acc = check_columns ds acc in
  let acc = check_constant ds acc in
  let acc = check_conditioning ds acc in
  let static_fault = List.exists (fun f -> f.severity = Fault) acc in
  let acc =
    if deep && not static_fault then deep_probe ~seed ds acc else acc
  in
  (* Last, so the flight-recorder stats reflect whatever the deep probe
     recorded. *)
  let acc = check_telemetry acc in
  finalize acc

let to_string report =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s %-12s %s\n" (severity_label f.severity)
           f.check f.message))
    report.findings;
  Buffer.add_string buf
    (if report.healthy then "verdict: healthy\n" else "verdict: diagnosed\n");
  Buffer.contents buf

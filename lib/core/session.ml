open Sider_linalg
open Sider_rand
open Sider_data
open Sider_maxent
open Sider_projection
open Sider_stats
open Sider_robust
module Obs = Sider_obs.Obs

type event =
  | Added_cluster of { rows : int array; tag : string }
  | Added_two_d of { rows : int array; tag : string }
  | Added_margin
  | Added_one_cluster
  | Updated of { time_cutoff : float; max_sweeps : int option }
  | Viewed of View.method_

type point = {
  index : int;
  x : float;
  y : float;
  label : string option;
  background : float * float;
}

type t = {
  dataset : Dataset.t;
  std : Dataset.t;
  rng : Rng.t;
  mutable method_ : View.method_;
  mutable solver : Solver.t;
  mutable pending : Constr.t list;      (* queued, not yet solved *)
  mutable tags : string list;           (* insertion order, distinct *)
  mutable view : View.t;
  mutable sample : Mat.t;               (* cached background sample *)
  mutable history : event list;         (* newest first *)
  mutable degradations : Sider_error.t list; (* newest first *)
  (* Last ICA unmixing matrix, fed back as the next fit's [?ica_w0]: a
     background update moves the whitened geometry only slightly, so the
     previous rotation is a near-fixed-point initial guess.  Purely a
     speed hint — replay determinism holds because the same history
     rebuilds the same sequence of hints. *)
  mutable ica_w : Mat.t option;
  creation_args : int * bool * float * View.method_;
}

let push_tag t tag =
  if not (List.mem tag t.tags) then t.tags <- t.tags @ [ tag ]

let fresh_view t ?method_ () =
  let method_ = Option.value ~default:t.method_ method_ in
  let view =
    View.of_solver ~rng:(Rng.split t.rng) ?ica_w0:t.ica_w ~method_ t.solver
  in
  (match view.View.unmixing with Some w -> t.ica_w <- Some w | None -> ());
  view

let degrade t e =
  t.degradations <- e :: t.degradations;
  Obs.flight_event ~name:"session.degradation"
    ~detail:(Sider_robust.Sider_error.to_string e)

(* Every view the session shows, the create view included, records its
   degradation (FastICA did not converge, or fell back to PCA). *)
let degrade_view t = Option.iter (degrade t) t.view.View.degraded

let create ?(seed = 2018) ?(standardize = true) ?(jitter = 1e-3)
    ?(method_ = View.Pca) ds =
  (* Non-finite values poison every downstream statistic, and the
     journal's JSON has no infinity or NaN to record them with; fail
     loudly with the jitter or the first offending cell instead. *)
  if not (Float.is_finite jitter) then
    invalid_arg (Printf.sprintf "Session.create: non-finite jitter %g" jitter);
  let m = Dataset.matrix ds in
  let n, d = Mat.dims m in
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      if not (Float.is_finite (Mat.get m i j)) then
        invalid_arg
          (Printf.sprintf
             "Session.create: non-finite value at row %d, column %S" i
             (Dataset.columns ds).(j))
    done
  done;
  let std = if standardize then Dataset.standardized ds else ds in
  let rng = Rng.create seed in
  (* Noise floor on the engine's working copy (the paper's Sec. II-A.2
     replicate-with-noise device): keeps exactly-degenerate directions —
     constant columns, collinear attributes, tiny selections — from
     having literally zero variance, which would make their background
     variance collapse to the solver's multiplier cap and their
     informativeness score infinite. *)
  let std =
    if jitter <= 0.0 then std
    else begin
      (* Row-major draws, [x + jitter·z] per cell: journals on disk
         replay to the same data only while both stay as they are. *)
      let noise = Sampler.normal_mat (Rng.split rng) n d in
      Mat.scale_into ~dst:noise jitter noise;
      Mat.add_into ~dst:noise (Dataset.matrix std) noise;
      Dataset.with_matrix std noise
    end
  in
  let solver = Solver.create (Dataset.matrix std) [] in
  let view = View.of_solver ~rng:(Rng.split rng) ~method_ solver in
  let sample = Solver.sample solver rng in
  let t =
    { dataset = ds; std; rng; method_; solver; pending = []; tags = []; view;
      sample; history = []; degradations = [];
      ica_w = view.View.unmixing;
      creation_args = (seed, standardize, jitter, method_) }
  in
  degrade_view t;
  t

let record t e = t.history <- e :: t.history

let creation_args t = t.creation_args

let history t = List.rev t.history

let dataset t = t.dataset

let data t = Dataset.matrix t.std

let solver t = t.solver

let method_ t = t.method_

let n_constraints t =
  Array.length (Solver.constraints t.solver) + List.length t.pending

let constraint_tags t = t.tags

let add_cluster_constraint ?tag t rows =
  let tag =
    match tag with
    | Some tag -> tag
    | None -> Printf.sprintf "cluster%d" (List.length t.tags + 1)
  in
  push_tag t tag;
  record t (Added_cluster { rows = Array.copy rows; tag });
  t.pending <-
    t.pending @ Constr.cluster ~tag ~data:(data t) ~rows ()

let add_two_d_constraint ?tag t rows =
  let tag =
    match tag with
    | Some tag -> tag
    | None -> Printf.sprintf "2d%d" (List.length t.tags + 1)
  in
  push_tag t tag;
  record t (Added_two_d { rows = Array.copy rows; tag });
  t.pending <-
    t.pending
    @ Constr.two_d ~tag ~data:(data t) ~rows
        ~w1:t.view.View.axis1.View.direction
        ~w2:t.view.View.axis2.View.direction ()

let add_margin_constraint t =
  push_tag t "margin";
  record t Added_margin;
  t.pending <- t.pending @ Constr.margin ~tag:"margin" (data t)

let add_one_cluster_constraint t =
  push_tag t "1-cluster";
  record t Added_one_cluster;
  t.pending <- t.pending @ Constr.one_cluster ~tag:"1-cluster" (data t)

let degradations t = List.rev t.degradations

(* Queued constraints whose statistics are not finite would poison every
   multiplier they touch; catch them before they reach the solver. *)
let validate_pending pending =
  List.iter
    (fun (c : Constr.t) ->
      if
        not
          (Float.is_finite c.Constr.target
           && Float.is_finite c.Constr.shift
           && Sider_robust.Kernels.finite_vec c.Constr.w)
      then
        Sider_error.raise_
          (Sider_error.degenerate_data ~constraint_tag:c.Constr.tag
             "constraint has non-finite target, shift or direction"))
    pending

let update_background ?trace ?(time_cutoff = 10.0) ?max_sweeps t =
  (* The end-to-end latency of this span (constraint registration +
     repartition + MaxEnt solve) is the paper's Table II interactivity
     metric, recorded into the [session.update_s] histogram.  [trace] is
     the request's trace id when the service drives the update: carried
     as a span attribute (and on any failure dump) so one id links the
     access log, the span tree and the flight recorder. *)
  let attrs = [ ("pending", Obs.Int (List.length t.pending)) ] in
  let attrs =
    match trace with
    | Some id -> ("trace", Obs.Str id) :: attrs
    | None -> attrs
  in
  Obs.timed ~hist:"session.update_s" "session.update_background" ~attrs
  @@ fun () ->
  (* Checkpoint: [add_constraints] copies the class parameters into the
     new solver, so holding on to the old solver (and the old pending
     queue) *is* the pre-update snapshot.  On any failure we roll back to
     it, leaving the session exactly as before the update. *)
  let checkpoint_solver = t.solver and checkpoint_pending = t.pending in
  (* Recorded before the solve, success or failure: the service journals
     the event ahead of applying it, and recovery's compaction
     arithmetic (Persist.journal_scan) requires journal lines and
     history events to stay 1:1.  A failed update therefore stays in
     the history; replaying it re-runs the same failure and rolls back
     again, so the state a replay reconstructs still matches. *)
  record t (Updated { time_cutoff; max_sweeps });
  match
    Sider_error.protect (fun () ->
        validate_pending t.pending;
        (* The new solver inherits the pre-update optimum, so the solve
           starts from it rather than from the prior. *)
        let solver = Solver.add_constraints t.solver t.pending in
        t.solver <- solver;
        t.pending <- [];
        Solver.solve ~time_cutoff ?max_sweeps solver)
  with
  | Ok report ->
    List.iter (degrade t) report.Solver.degradations;
    Obs.span_attr "outcome" (Obs.Str "ok");
    Obs.span_attr "classes"
      (Obs.Int (Sider_maxent.Solver.n_classes t.solver));
    Ok report
  | Error e ->
    t.solver <- checkpoint_solver;
    t.pending <- checkpoint_pending;
    degrade t e;
    Obs.span_attr "outcome" (Obs.Str "rolled_back");
    let reason = Sider_robust.Sider_error.to_string e in
    Obs.flight_event ~name:"session.update_background"
      ~detail:("error: " ^ reason);
    Obs.flight_auto_dump ?trace ~reason ();
    Error e

let update_background_exn t =
  match update_background t with
  | Ok report -> report
  | Error e -> Sider_error.raise_ e

let refresh_sample t = t.sample <- Solver.sample t.solver t.rng

let recompute_view ?method_ t =
  Obs.with_span "session.recompute_view" @@ fun () ->
  (match method_ with Some m -> t.method_ <- m | None -> ());
  record t (Viewed t.method_);
  t.view <- fresh_view t ();
  degrade_view t;
  refresh_sample t;
  t.view

let current_view t = t.view

let scatter t =
  let m = data t in
  let coords = View.project t.view m in
  let bg = View.project t.view t.sample in
  Array.mapi
    (fun i (x, y) ->
      {
        index = i;
        x;
        y;
        label =
          (match Dataset.labels t.std with
           | Some l -> Some l.(i)
           | None -> None);
        background = bg.(i);
      })
    coords

let background_points t = View.project t.view t.sample

let background_sample t = t.sample

let axis_labels ?top t =
  let columns = Dataset.columns t.std in
  let name = View.method_name t.view.View.method_ in
  ( View.axis_label ?top ~columns ~prefix:(name ^ "1") t.view.View.axis1,
    View.axis_label ?top ~columns ~prefix:(name ^ "2") t.view.View.axis2 )

let view_scores t =
  (t.view.View.axis1.View.score, t.view.View.axis2.View.score)

type attribute_stat = {
  attribute : string;
  selection_mean : float;
  selection_sd : float;
  data_mean : float;
  data_sd : float;
}

let selection_stats t rows =
  let m = data t in
  let _, d = Mat.dims m in
  let full_means = Mat.col_means m in
  let full_sds = Array.map sqrt (Mat.col_variances m) in
  let sel = Mat.select_rows m rows in
  let sel_means = Mat.col_means sel in
  let sel_sds = Array.map sqrt (Mat.col_variances sel) in
  let cols = Dataset.columns t.std in
  let stats =
    Array.init d (fun j ->
        {
          attribute = cols.(j);
          selection_mean = sel_means.(j);
          selection_sd = sel_sds.(j);
          data_mean = full_means.(j);
          data_sd = full_sds.(j);
        })
  in
  Array.sort
    (fun a b ->
      compare
        (Float.abs (b.selection_mean -. b.data_mean))
        (Float.abs (a.selection_mean -. a.data_mean)))
    stats;
  stats

let class_match t rows =
  match Dataset.labels t.std with
  | None -> []
  | Some labels -> Metrics.best_class_match ~selection:rows ~labels

let residual_gaussianity t =
  let y = Sider_projection.Whiten.whiten t.solver in
  let n, d = Mat.dims y in
  let pooled = Array.make (n * d) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      pooled.((i * d) + j) <- Mat.get y i j
    done
  done;
  Ks.test_gaussian pooled

let confidence_ellipses t rows =
  if Array.length rows = 0 then
    invalid_arg "Session.confidence_ellipses: empty selection";
  let m = data t in
  let sel = View.project t.view (Mat.select_rows m rows) in
  let bg = View.project t.view (Mat.select_rows t.sample rows) in
  (Ellipse.of_points sel, Ellipse.of_points bg)

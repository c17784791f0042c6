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

type coordinates = {
  data_x : float array;
  data_y : float array;
  sample_x : float array;
  sample_y : float array;
}

type t = {
  mutable dataset : unit -> Dataset.t;  (* the original, kept or read back *)
  std : Dataset.t;
  rng : Rng.t;
  mutable method_ : View.method_;
  mutable solver : Solver.t;
  mutable pending : Constr.t list;      (* queued, not yet solved *)
  mutable tags : string list;           (* insertion order, distinct *)
  mutable view : View.t;
  mutable labels : string * string;     (* the view's default axis labels *)
  coords : coordinates;                 (* the view's, rewritten per view *)
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

let view_labels ?top std (view : View.t) =
  let columns = Dataset.columns std in
  let name = View.method_name view.View.method_ in
  ( View.axis_label ?top ~columns ~prefix:(name ^ "1") view.View.axis1,
    View.axis_label ?top ~columns ~prefix:(name ^ "2") view.View.axis2 )

let degrade t e =
  t.degradations <- e :: t.degradations;
  Obs.flight_event ~name:"session.degradation"
    ~detail:(Sider_robust.Sider_error.to_string e)

(* Every view the session shows, the create view included, records its
   degradation (FastICA did not converge, or fell back to PCA). *)
let degrade_view t = Option.iter (degrade t) t.view.View.degraded

(* The view's coordinates: a fresh background sample drawn from the
   session's generator, seen through the view's two directions, then the
   data.  The sampler factors every class before it writes, and nothing
   after it can raise. *)
let project_view t (view : View.t) =
  let w1 = view.View.axis1.View.direction
  and w2 = view.View.axis2.View.direction
  and c = t.coords in
  Solver.sample_projected t.solver t.rng ~w1 ~w2 ~dst1:c.sample_x
    ~dst2:c.sample_y;
  Mat.mv_into ~dst:c.data_x (Dataset.matrix t.std) w1;
  Mat.mv_into ~dst:c.data_y (Dataset.matrix t.std) w2

let create ?(seed = 2018) ?(standardize = true) ?(jitter = 1e-3)
    ?(method_ = View.Pca) ds =
  (* Non-finite values poison every downstream statistic, and the
     journal's JSON has no infinity or NaN to record them with; fail
     loudly with the jitter or the first offending cell instead. *)
  if not (Float.is_finite jitter) then
    invalid_arg (Printf.sprintf "Session.create: non-finite jitter %g" jitter);
  let m = Dataset.matrix ds in
  let n, d = Mat.dims m in
  let a = m.Mat.a in
  for k = 0 to (n * d) - 1 do
    if not (Float.is_finite (Array.unsafe_get a k)) then
      invalid_arg
        (Printf.sprintf
           "Session.create: non-finite value at row %d, column %S" (k / d)
           (Dataset.columns ds).(k mod d))
  done;
  let rng = Rng.create seed in
  (* The engine's working copy, written in one pass.  Each cell is
     standardized as [Dataset.standardized] computes it, then gets the
     noise floor (the paper's Sec. II-A.2 replicate-with-noise device):
     z drawn row-major into the copy first, then [x +. (jitter *. z)] per
     cell.  The floor keeps exactly-degenerate directions — constant
     columns, collinear attributes, tiny selections — from having
     literally zero variance, which would make their background variance
     collapse to the solver's multiplier cap and their informativeness
     score infinite.  Journals on disk replay to the same data only
     while these draws and operations stay as they are. *)
  let std =
    if jitter <= 0.0 && not standardize then ds
    else begin
      let w =
        if jitter > 0.0 then Sampler.normal_mat (Rng.split rng) n d
        else Mat.create n d
      in
      let wa = w.Mat.a in
      let means = Mat.col_means m in
      let sds = Array.map sqrt (Mat.col_variances m) in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          let k = (i * d) + j in
          let x =
            if not standardize then Array.unsafe_get a k
            else begin
              let centered = Array.unsafe_get a k -. means.(j) in
              if Float.equal sds.(j) 0.0 then centered else centered /. sds.(j)
            end
          in
          Array.unsafe_set wa k
            (if jitter > 0.0 then x +. (jitter *. Array.unsafe_get wa k) else x)
        done
      done;
      Dataset.with_matrix ds w
    end
  in
  let solver = Solver.create (Dataset.matrix std) [] in
  let view = View.of_solver ~rng:(Rng.split rng) ~method_ solver in
  let coords =
    { data_x = Array.create_float n; data_y = Array.create_float n;
      sample_x = Array.create_float n; sample_y = Array.create_float n }
  in
  let t =
    { dataset = (fun () -> ds); std; rng; method_; solver; pending = [];
      tags = []; view;
      labels = view_labels std view; coords; history = [];
      degradations = [];
      ica_w = view.View.unmixing;
      creation_args = (seed, standardize, jitter, method_) }
  in
  project_view t view;
  degrade_view t;
  t

let record t e = t.history <- e :: t.history

let creation_args t = t.creation_args

let history t = List.rev t.history

let dataset t = t.dataset ()

let release_dataset t read_back = t.dataset <- read_back

let labels t = Dataset.labels t.std

let data t = Dataset.matrix t.std

let solver t = t.solver

let method_ t = t.method_

let n_constraints t =
  Array.length (Solver.constraints t.solver) + List.length t.pending

let constraint_tags t = t.tags

let default_tag t = function
  | `Cluster -> Printf.sprintf "cluster%d" (List.length t.tags + 1)
  | `Two_d -> Printf.sprintf "2d%d" (List.length t.tags + 1)

let add_cluster_constraint ?tag t rows =
  let tag =
    match tag with Some tag -> tag | None -> default_tag t `Cluster
  in
  push_tag t tag;
  record t (Added_cluster { rows = Array.copy rows; tag });
  t.pending <-
    t.pending @ Constr.cluster ~tag ~data:(data t) ~rows ()

let add_two_d_constraint ?tag t rows =
  let tag = match tag with Some tag -> tag | None -> default_tag t `Two_d in
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

(* Every step that can raise (whitening's Σ check, the sampler's
   factors) runs before the session's method, view, labels or
   coordinates are written. *)
let recompute_view ?method_ t =
  Obs.with_span "session.recompute_view" @@ fun () ->
  let method_ = Option.value ~default:t.method_ method_ in
  record t (Viewed method_);
  let view =
    View.of_solver ~rng:(Rng.split t.rng) ?ica_w0:t.ica_w ~method_ t.solver
  in
  project_view t view;
  t.method_ <- method_;
  t.view <- view;
  t.labels <- view_labels t.std view;
  (match view.View.unmixing with Some w -> t.ica_w <- Some w | None -> ());
  degrade_view t;
  view

let apply t = function
  | Added_cluster { rows; tag } -> add_cluster_constraint ~tag t rows
  | Added_two_d { rows; tag } -> add_two_d_constraint ~tag t rows
  | Added_margin -> add_margin_constraint t
  | Added_one_cluster -> add_one_cluster_constraint t
  | Updated { time_cutoff; max_sweeps } ->
    (match update_background ~time_cutoff ?max_sweeps t with
     | Ok _ | Error _ -> ())
  | Viewed method_ -> ignore (recompute_view ~method_ t)

let current_view t = t.view

let coordinates t = t.coords

let scatter t =
  let c = t.coords in
  Array.mapi
    (fun i x ->
      {
        index = i;
        x;
        y = c.data_y.(i);
        label = (match labels t with Some l -> Some l.(i) | None -> None);
        background = (c.sample_x.(i), c.sample_y.(i));
      })
    c.data_x

let background_points t =
  let c = t.coords in
  Array.mapi (fun i bx -> (bx, c.sample_y.(i))) c.sample_x

let axis_labels ?top t =
  match top with None -> t.labels | Some _ -> view_labels ?top t.std t.view

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
  match labels t with
  | None -> []
  | Some labels -> Metrics.best_class_match ~selection:rows ~labels

(* The buffer's row-major array is the pooled sample; [Ks] sorts a copy. *)
let residual_gaussianity t =
  Whiten.with_whitened t.solver (fun y -> Ks.test_gaussian y.Mat.a)

let confidence_ellipses t rows =
  if Array.length rows = 0 then
    invalid_arg "Session.confidence_ellipses: empty selection";
  let c = t.coords in
  let sel = Array.map (fun r -> (c.data_x.(r), c.data_y.(r))) rows in
  let bg = Array.map (fun r -> (c.sample_x.(r), c.sample_y.(r))) rows in
  (Ellipse.of_points sel, Ellipse.of_points bg)

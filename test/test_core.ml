(* Session, Selection, Auto_explore and Baseline. *)

open Sider_linalg
open Sider_data
open Sider_core
open Sider_projection
open Test_helpers

let x5_session ?(method_ = View.Ica) () =
  let { Synth.data; group13; group45 } = Synth.x5 ~seed:3 ~n:600 () in
  (Session.create ~seed:5 ~method_ data, group13, group45)

(* --- Session lifecycle -------------------------------------------------------- *)

let test_create_defaults () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  check_true "no constraints yet" (Session.n_constraints s = 0);
  check_true "pca default" (Session.method_ s = View.Pca);
  let m = Session.data s in
  (* Means are zero up to the default jitter noise. *)
  check_true "standardized engine data"
    (Vec.norm_inf (Mat.col_means m) < 1e-2);
  check_true "original kept" (Dataset.n_rows (Session.dataset s) = 150)

let test_jitter_bounds_variance () =
  (* A constant column gets variance ≈ jitter² instead of 0. *)
  let ds =
    Dataset.create ~columns:[| "a"; "k" |]
      (Mat.init 200 2 (fun i j ->
           if j = 0 then float_of_int i else 7.0))
  in
  let s = Session.create ~jitter:1e-3 ds in
  let vars = Mat.col_variances (Session.data s) in
  check_true "constant column has tiny positive variance"
    (vars.(1) > 0.0 && vars.(1) < 1e-4)

let test_rejects_non_finite () =
  let m = Mat.identity 3 in
  Mat.set m 1 2 nan;
  let ds = Dataset.create ~columns:[| "a"; "b"; "c" |] m in
  (match Session.create ds with
   | exception Invalid_argument msg ->
     check_true "names the cell"
       (String.length msg > 0 && String.contains msg '1')
   | _ -> Alcotest.fail "expected rejection")

let test_no_jitter () =
  let ds = Synth.three_d () in
  let a = Session.create ~jitter:0.0 ds in
  let b = Session.create ~jitter:0.0 ds in
  approx_mat "jitter off is deterministic data" (Session.data a)
    (Session.data b)

let test_initial_view_unconstrained () =
  (* With no constraints the view directions are unit and orthogonal-ish
     (PCA: exactly orthogonal). *)
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let v = Session.current_view s in
  approx ~eps:1e-9 "axis1 unit" 1.0 (Vec.norm2 v.View.axis1.View.direction);
  approx ~eps:1e-9 "axis2 unit" 1.0 (Vec.norm2 v.View.axis2.View.direction);
  approx ~eps:1e-9 "orthogonal" 0.0
    (Vec.dot v.View.axis1.View.direction v.View.axis2.View.direction)

let test_scatter_pairs_background () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let pts = Session.scatter s in
  check_true "one point per row" (Array.length pts = 150);
  check_true "labels carried" (pts.(0).Session.label = Some "A");
  let bg = Session.background_points s in
  check_true "paired background" (Array.length bg = 150);
  approx "pairing consistent" (fst pts.(3).Session.background) (fst bg.(3))

let test_add_constraints_counts () =
  let s, _, _ = x5_session () in
  Session.add_cluster_constraint s (Array.init 30 Fun.id);
  check_true "queued 2d" (Session.n_constraints s = 10);
  Session.add_margin_constraint s;
  check_true "margin adds 2d" (Session.n_constraints s = 20);
  Session.add_one_cluster_constraint s;
  check_true "1-cluster adds 2d" (Session.n_constraints s = 30);
  Session.add_two_d_constraint s (Array.init 30 Fun.id);
  check_true "2-D adds 4" (Session.n_constraints s = 34);
  check_true "tags recorded" (List.length (Session.constraint_tags s) = 4)

let test_update_background_solves () =
  let s, group13, _ = x5_session () in
  List.iter
    (fun g ->
      let rows = ref [] in
      Array.iteri (fun i x -> if String.equal x g then rows := i :: !rows) group13;
      Session.add_cluster_constraint s (Array.of_list !rows))
    [ "A"; "B"; "C"; "D" ];
  let r = Session.update_background_exn s in
  check_true "solver converged" r.Sider_maxent.Solver.converged;
  check_true "constraints registered"
    (Array.length (Sider_maxent.Solver.constraints (Session.solver s)) = 40)

(* [max_sweeps] caps every update, the incremental ones included: each
   fresh session solves its margins, then gets one cluster and an update
   limited to [k] sweeps. *)
let test_update_honours_max_sweeps () =
  let ds = Synth.three_d () in
  let cluster = Dataset.class_indices ds (List.hd (Dataset.classes ds)) in
  List.iter
    (fun k ->
      let s = Session.create ds in
      Session.add_margin_constraint s;
      ignore (Session.update_background_exn s);
      Session.add_cluster_constraint s cluster;
      let r = Session.update_background_exn ~max_sweeps:k s in
      check_true
        (Printf.sprintf "max_sweeps %d: ran %d" k r.Sider_maxent.Solver.sweeps)
        (r.Sider_maxent.Solver.sweeps <= k))
    [ 1; 2; 3 ]

let test_scores_drop_after_learning () =
  (* The Table-I effect: the leading ICA score decreases materially after
     the cluster structure is declared. *)
  let s, group13, group45 = x5_session () in
  let s1_before, _ = Session.view_scores s in
  List.iter
    (fun (groups, names) ->
      List.iter
        (fun g ->
          let rows = ref [] in
          Array.iteri
            (fun i x -> if String.equal x g then rows := i :: !rows)
            groups;
          Session.add_cluster_constraint s (Array.of_list !rows))
        names;
      ignore (Session.update_background_exn s);
      ignore (Session.recompute_view s))
    [ (Array.to_list group13 |> Array.of_list, [ "A"; "B"; "C"; "D" ]);
      (Array.to_list group45 |> Array.of_list, [ "E"; "F"; "G" ]) ];
  let s1_after, _ = Session.view_scores s in
  check_true "score dropped by >3x"
    (Float.abs s1_after < Float.abs s1_before /. 3.0)

let test_recompute_view_refreshes_sample () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let bg1 = Session.background_points s in
  ignore (Session.recompute_view s);
  let bg2 = Session.background_points s in
  check_true "sample refreshed" (bg1.(0) <> bg2.(0))

let test_set_method () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  Session.set_method s View.Ica;
  ignore (Session.recompute_view s);
  check_true "method switched"
    ((Session.current_view s).View.method_ = View.Ica)

let test_selection_stats_ordering () =
  let s, group13, _ = x5_session () in
  let rows = ref [] in
  Array.iteri (fun i g -> if String.equal g "B" then rows := i :: !rows) group13;
  let stats = Session.selection_stats s (Array.of_list !rows) in
  check_true "one entry per column" (Array.length stats = 5);
  (* Cluster B deviates along X1: the most differing attribute should be
     X1 (it is at delta along dim 1). *)
  check_true "X1 most different"
    (String.equal stats.(0).Session.attribute "X1");
  (* Cluster B is a tight blob: its sd along every axis is below the
     full-data sd. *)
  Array.iter
    (fun st ->
      check_true "selection tighter than data"
        (st.Session.selection_sd < st.Session.data_sd))
    stats

let test_class_match () =
  let s, group13, _ = x5_session () in
  let rows = ref [] in
  Array.iteri (fun i g -> if String.equal g "C" then rows := i :: !rows) group13;
  (match Session.class_match s (Array.of_list !rows) with
   | (best, j) :: _ ->
     check_true "C recovered" (String.equal best "C");
     approx "perfect jaccard" 1.0 j
   | [] -> Alcotest.fail "no classes")

let test_class_match_unlabeled () =
  let ds =
    Dataset.create ~columns:[| "a"; "b" |]
      (Mat.init 5 2 (fun i j -> float_of_int ((i * 2) + j)))
  in
  let s = Session.create ds in
  check_true "no labels → empty" (Session.class_match s [| 0 |] = [])

let test_confidence_ellipses () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let sel = Dataset.class_indices ds "A" in
  let e_sel, e_bg = Session.confidence_ellipses s sel in
  check_true "selection ellipse has positive radius"
    (e_sel.Sider_stats.Ellipse.radius1 > 0.0);
  check_true "background ellipse has positive radius"
    (e_bg.Sider_stats.Ellipse.radius1 > 0.0);
  Alcotest.check_raises "empty selection"
    (Invalid_argument "Session.confidence_ellipses: empty selection")
    (fun () -> ignore (Session.confidence_ellipses s [||]))

let test_axis_labels () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let a1, a2 = Session.axis_labels s in
  check_true "pca prefix"
    (String.length a1 > 4 && String.sub a1 0 4 = "PCA1");
  check_true "axis2 prefix"
    (String.length a2 > 4 && String.sub a2 0 4 = "PCA2")

(* --- Selection ------------------------------------------------------------------ *)

let test_selection_rectangle () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let pts = Session.scatter s in
  (* A rectangle around the first point must contain it. *)
  let p = pts.(0) in
  let sel =
    Selection.in_rectangle s ~xmin:(p.Session.x -. 0.01)
      ~xmax:(p.Session.x +. 0.01) ~ymin:(p.Session.y -. 0.01)
      ~ymax:(p.Session.y +. 0.01)
  in
  check_true "contains point 0" (Array.exists (Int.equal 0) sel);
  let all =
    Selection.in_rectangle s ~xmin:neg_infinity ~xmax:infinity
      ~ymin:neg_infinity ~ymax:infinity
  in
  check_true "everything" (Array.length all = 150)

let test_selection_radius () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let pts = Session.scatter s in
  let p = pts.(7) in
  let sel =
    Selection.within_radius s ~center:(p.Session.x, p.Session.y) ~radius:0.001
  in
  check_true "picks the point" (Array.exists (Int.equal 7) sel)

let test_selection_by_class_and_ops () =
  let ds = Synth.three_d () in
  let s = Session.create ds in
  let a = Selection.by_class s "A" in
  let b = Selection.by_class s "B" in
  check_true "A size" (Selection.size a = 50);
  check_true "disjoint" (Selection.size (Selection.inter a b) = 0);
  check_true "union" (Selection.size (Selection.union a b) = 100);
  check_true "diff" (Selection.size (Selection.diff a a) = 0);
  check_true "complement" (Selection.size (Selection.complement s a) = 100)

let test_selection_store () =
  let st = Selection.store_create () in
  Selection.save st "mine" [| 1; 2; 3 |];
  check_true "load" (Selection.load st "mine" = Some [| 1; 2; 3 |]);
  check_true "missing" (Selection.load st "other" = None);
  check_true "names" (Selection.names st = [ "mine" ])

(* --- Auto_explore ------------------------------------------------------------------ *)

let test_mark_clusters_finds_planted () =
  let ds = Synth.three_d ~seed:2 () in
  let s = Session.create ~seed:4 ds in
  let sels = Auto_explore.mark_clusters ~rng:(Sider_rand.Rng.create 1) s in
  check_true "found 2-4 clusters"
    (Array.length sels >= 2 && Array.length sels <= 4);
  (* At least one marked cluster should match a ground-truth class well. *)
  let best =
    Array.fold_left
      (fun acc sel ->
        match Session.class_match s sel with
        | (_, j) :: _ -> Float.max acc j
        | [] -> acc)
      0.0 sels
  in
  check_true "a planted cluster recovered" (best > 0.8)

let test_auto_explore_run_terminates () =
  let { Synth.data; _ } = Synth.x5 ~seed:3 ~n:400 () in
  let s = Session.create ~seed:5 ~method_:View.Ica data in
  let r = Auto_explore.run ~max_iterations:4 ~score_threshold:0.012 s in
  check_true "made progress" (List.length r.Auto_explore.iterations >= 1);
  check_true "terminated"
    (r.Auto_explore.stopped = `Converged
     || r.Auto_explore.stopped = `Max_iterations);
  (* Scores recorded per iteration are decreasing overall. *)
  (match r.Auto_explore.iterations with
   | first :: _ ->
     let s_first, _ = first.Auto_explore.scores in
     let s_final, _ = r.Auto_explore.final_scores in
     check_true "final below first" (Float.abs s_final < Float.abs s_first)
   | [] -> ())

let test_auto_explore_null_data_stops_immediately () =
  (* Pure Gaussian noise: the first view is already uninformative, so the
     explorer must stop without marking anything. *)
  let ds = Synth.gaussian ~seed:6 ~n:800 ~d:4 () in
  let s = Session.create ~seed:7 ~method_:View.Ica ds in
  let r = Auto_explore.run ~score_threshold:0.02 s in
  check_true "no iterations on noise" (r.Auto_explore.iterations = []);
  check_true "converged verdict" (r.Auto_explore.stopped = `Converged)

(* --- Baseline --------------------------------------------------------------------- *)

let test_static_pca_view () =
  let ds = Synth.three_d () in
  let v = Baseline.static_pca (Dataset.matrix (Dataset.standardized ds)) in
  approx ~eps:1e-9 "unit direction" 1.0 (Vec.norm2 v.View.axis1.View.direction);
  check_true "pca method" (v.View.method_ = View.Pca)

let test_static_ica_view () =
  let { Synth.data; _ } = Synth.x5 ~seed:4 ~n:400 () in
  let v =
    Baseline.static_ica ~rng:(Sider_rand.Rng.create 2)
      (Dataset.matrix (Dataset.standardized data))
  in
  check_true "ica method" (v.View.method_ = View.Ica);
  check_true "nontrivial score" (Float.abs v.View.axis1.View.score > 0.005)

let test_swap_randomizer_preserves_marginals () =
  let data = Mat.init 50 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let r = Baseline.swap_randomizer data in
  let sample = Baseline.sample r (Sider_rand.Rng.create 3) in
  (* Column multisets preserved. *)
  for j = 0 to 2 do
    let a = Mat.col data j and b = Mat.col sample j in
    Array.sort compare a;
    Array.sort compare b;
    approx_vec "column multiset" a b
  done;
  (* But rows shuffled (overwhelmingly likely). *)
  check_true "rows permuted"
    (not (Mat.approx_equal data sample))

let test_swap_randomizer_groups () =
  let data = Mat.init 10 2 (fun i j -> float_of_int ((i * 2) + j)) in
  let groups = [| Array.init 5 Fun.id; Array.init 5 (fun i -> i + 5) |] in
  let r = Baseline.swap_randomizer ~within:groups data in
  let sample = Baseline.sample r (Sider_rand.Rng.create 4) in
  (* Values never cross the group boundary. *)
  for i = 0 to 4 do
    check_true "first group stays" (Mat.get sample i 0 < 10.0)
  done;
  for i = 5 to 9 do
    check_true "second group stays" (Mat.get sample i 0 >= 10.0)
  done

let test_swap_mean_sd () =
  let data = Mat.init 30 2 (fun i j -> float_of_int (i + j)) in
  let r = Baseline.swap_randomizer data in
  let mean, sd =
    Baseline.sample_mean_sd r (Sider_rand.Rng.create 5) 20 (fun m ->
        Mat.get m 0 0)
  in
  check_true "mean within data range" (mean >= 0.0 && mean <= 30.0);
  check_true "sd positive" (sd > 0.0)

let suite =
  [
    case "session defaults" test_create_defaults;
    case "jitter bounds variance" test_jitter_bounds_variance;
    case "rejects non-finite data" test_rejects_non_finite;
    case "jitter can be disabled" test_no_jitter;
    case "initial view orthonormal" test_initial_view_unconstrained;
    case "scatter pairs background" test_scatter_pairs_background;
    case "constraint counting" test_add_constraints_counts;
    case "update background solves" test_update_background_solves;
    case "update honours max_sweeps" test_update_honours_max_sweeps;
    case "scores drop after learning" test_scores_drop_after_learning;
    case "recompute refreshes sample" test_recompute_view_refreshes_sample;
    case "set method" test_set_method;
    case "selection stats ordering" test_selection_stats_ordering;
    case "class match" test_class_match;
    case "class match without labels" test_class_match_unlabeled;
    case "confidence ellipses" test_confidence_ellipses;
    case "axis labels" test_axis_labels;
    case "selection rectangle" test_selection_rectangle;
    case "selection radius" test_selection_radius;
    case "selection class and set ops" test_selection_by_class_and_ops;
    case "selection store" test_selection_store;
    case "mark_clusters finds planted" test_mark_clusters_finds_planted;
    slow_case "auto explore terminates" test_auto_explore_run_terminates;
    case "auto explore stops on noise" test_auto_explore_null_data_stops_immediately;
    case "static pca baseline" test_static_pca_view;
    case "static ica baseline" test_static_ica_view;
    case "swap randomizer marginals" test_swap_randomizer_preserves_marginals;
    case "swap randomizer groups" test_swap_randomizer_groups;
    case "swap mean/sd statistic" test_swap_mean_sd;
  ]

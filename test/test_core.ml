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
    (norm_inf (Mat.col_means m) < 1e-2);
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
  approx "pairing consistent" (fst pts.(3).Session.background) (fst bg.(3));
  let rows = View.project (Session.current_view s) (Session.data s) in
  check_bits "data x as projected rows" (Array.map fst rows)
    (Array.map (fun p -> p.Session.x) pts);
  check_bits "data y as projected rows" (Array.map snd rows)
    (Array.map (fun p -> p.Session.y) pts)

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
      let r = Result.get_ok (Session.update_background ~max_sweeps:k s) in
      check_true
        (Printf.sprintf "max_sweeps %d: ran %d" k r.Sider_maxent.Solver.sweeps)
        (r.Sider_maxent.Solver.sweeps <= k))
    [ 1; 2; 3 ]

(* Every view the session shows records its degradation, the create
   view included: after create and after each recompute, the newest
   degradation is the current view's.  On this ica_explore-shaped data
   the create view's FastICA fit does not converge. *)
let test_records_view_degradations () =
  let ds = Synth.clustered ~seed:1 ~n:512 ~d:12 ~k:6 () in
  let s = Session.create ~seed:1 ~method_:View.Ica ds in
  let check_view label before =
    let after = Session.degradations s in
    match (Session.current_view s).View.degraded with
    | Some e ->
      check_true (label ^ ": view degradation recorded last")
        (List.length after = List.length before + 1
         && List.nth after (List.length before) == e)
    | None -> check_true (label ^ ": nothing recorded") (after = before)
  in
  check_true "create view degraded"
    ((Session.current_view s).View.degraded <> None);
  check_view "create" [];
  let round label add =
    add ();
    ignore (Session.update_background_exn s);
    let before = Session.degradations s in
    ignore (Session.recompute_view s);
    check_view label before
  in
  round "margin" (fun () -> Session.add_margin_constraint s);
  List.iteri
    (fun i c ->
      if i < 2 then
        round c (fun () ->
            Session.add_cluster_constraint s (Dataset.class_indices ds c)))
    (Dataset.classes ds)

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
  ignore (Session.recompute_view ~method_:View.Ica s);
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
    (String.length a2 > 4 && String.sub a2 0 4 = "PCA2");
  (* The labels kept for the view are the ones built with every term. *)
  check_true "kept labels are the full labels"
    (Session.axis_labels s = Session.axis_labels ~top:3 s);
  ignore (Session.recompute_view ~method_:View.Ica s);
  let a1, _ = Session.axis_labels s in
  check_true "relabelled with the view" (String.sub a1 0 4 = "ICA1");
  check_true "kept labels follow the view"
    (Session.axis_labels s = Session.axis_labels ~top:3 s)

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
  check_true "B size" (Selection.size b = 50);
  check_true "disjoint" (Array.for_all (fun i -> not (Array.mem i b)) a)

let test_selection_store () =
  let st = Selection.store_create () in
  Selection.save st "mine" [| 1; 2; 3 |];
  check_true "load" (Selection.load st "mine" = Some [| 1; 2; 3 |]);
  check_true "missing" (Selection.load st "other" = None)

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

(* One permutation sample, as the statistic of [sample_mean_sd] sees it. *)
let one_sample r rng =
  let seen = ref None in
  ignore
    (Baseline.sample_mean_sd r rng 1 (fun m ->
         seen := Some m;
         0.0));
  Option.get !seen

let test_swap_randomizer_preserves_marginals () =
  let data = Mat.init 50 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let r = Baseline.swap_randomizer data in
  let sample = one_sample r (Sider_rand.Rng.create 3) in
  (* Column multisets preserved. *)
  for j = 0 to 2 do
    let a = Mat.col data j and b = Mat.col sample j in
    Array.sort compare a;
    Array.sort compare b;
    approx_vec "column multiset" a b
  done;
  (* But rows shuffled (overwhelmingly likely). *)
  check_true "rows permuted"
    (not (mat_approx_equal data sample))

let test_swap_randomizer_groups () =
  let data = Mat.init 10 2 (fun i j -> float_of_int ((i * 2) + j)) in
  let groups = [| Array.init 5 Fun.id; Array.init 5 (fun i -> i + 5) |] in
  let r = Baseline.swap_randomizer ~within:groups data in
  let sample = one_sample r (Sider_rand.Rng.create 4) in
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

(* --- A write round's memory ----------------------------------------------------- *)

(* A session at [projection_reads]' shape (n=1024, d=16, k=8), margin
   solved and viewed as the benchmark preloads it, then write rounds as
   the service's routes run them: a cluster constraint on the next
   ground-truth class, an update of at most 500 sweeps, a PCA view.
   Counted after two warm rounds; the third is counted. *)
let write_round s rows =
  Session.add_cluster_constraint s rows;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 s);
  ignore (Session.recompute_view ~method_:View.Pca s)

let with_warm_reads_session f =
  let ds = reads_dataset () in
  let rows c = Dataset.class_indices ds (List.nth (Dataset.classes ds) c) in
  let s = Session.create ~seed:1 ds in
  Session.add_margin_constraint s;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 s);
  ignore (Session.recompute_view ~method_:View.Pca s);
  write_round s (rows 0);
  write_round s (rows 1);
  f s (rows 2)

(* The round puts fewer than n·d/8 words on the major heap (1,666 when
   written, most of them the new partition's class of every row): the
   view whitens into a lent buffer, the covariance centres one row at a
   time, the marked cluster's covariance reads its rows in place and the
   partition's work arrays hold one entry a class.  Copying the
   cluster's rows for its SVD and three n-int work arrays a partition
   put 6,790 words there; four fresh n×d matrices a view put 74,382.
   Counted with no telemetry sink. *)
let test_write_round_major_heap () =
  with_sink None @@ fun () ->
  with_warm_reads_session @@ fun s rows ->
  let n, d = Mat.dims (Session.data s) in
  let before = major_words () in
  write_round s rows;
  let major = int_of_float (major_words () -. before) in
  if major >= n * d / 8 then
    Alcotest.failf
      "a warm write round put %d words on the major heap, nd/8 = %d" major
      (n * d / 8)

(* The round grows what the session keeps by 1,855 words when written:
   among them the history's copy of the 128 rows and the one row set
   its 32 constraints share.  One more private copy of the row set
   fails the gate; a copy per constraint grew a round by 6,126. *)
let test_write_round_keeps_one_row_set () =
  with_warm_reads_session @@ fun s rows ->
  let before = Obj.reachable_words (Obj.repr s) in
  write_round s rows;
  let growth = Obj.reachable_words (Obj.repr s) - before in
  let bound = 1855 + Array.length rows + 1 in
  if growth >= bound then
    Alcotest.failf "a write round grew the session by %d words, at most %d"
      growth (bound - 1)

(* A session at [projection_reads]' shape, its dataset decoded from
   JSON as the service decodes a create body, then created, margin
   solved and viewed as the benchmark preloads it, keeps two n×d
   matrices (the dataset and the jittered working copy), its view's 4n
   coordinates and one string per distinct label: 42,682 words when
   written, gated at 2.625·nd.  With a string per row's label it kept
   44,714; keeping the whole background sample and a whitening buffer of
   its own, 73,388 (4.48·nd). *)
let test_resident_session_words () =
  let ds =
    Persist.read_dataset
      (Json.cursor (Json.to_string (Persist.dataset_to_json (reads_dataset ()))))
      ()
  in
  let s = Session.create ~seed:1 ds in
  Session.add_margin_constraint s;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 s);
  ignore (Session.recompute_view ~method_:View.Pca s);
  let n, d = Mat.dims (Session.data s) in
  let words = Obj.reachable_words (Obj.repr s) in
  let bound = 21 * n * d / 8 in
  if words >= bound then
    Alcotest.failf "a resident session keeps %d words, 2.625nd = %d" words
      bound

(* The same session as the service keeps it: its create body decoded
   as the create route decodes it, created, then journaled, which
   releases the original dataset because the journal's header holds it
   ({!Session.release_dataset}), margin solved and viewed.  It keeps one
   n×d matrix, the working copy: 26,303 words when written, gated at
   1.75·nd.  Keeping the original beside the copy, as a session did
   before its journal released it, kept 42,682. *)
let test_journaled_session_words () =
  let body =
    Json.to_string
      (Json.Obj
         [ ("dataset", Persist.dataset_to_json (reads_dataset ()));
           ("seed", Json.Number 1.0) ])
  in
  let { Sider_serve.Service.dataset; seed; standardize; jitter; method_ } =
    Sider_serve.Service.decode_create body
  in
  let s = Session.create ~seed ~standardize ~jitter ~method_ dataset in
  let path = Filename.temp_file "sider_resident" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Persist.journal_close (Persist.journal_start path s);
  Session.add_margin_constraint s;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 s);
  ignore (Session.recompute_view ~method_:View.Pca s);
  let n, d = Mat.dims (Session.data s) in
  let words = Obj.reachable_words (Obj.repr s) in
  let bound = 7 * n * d / 4 in
  if words >= bound then
    Alcotest.failf "a journaled session keeps %d words, 1.75nd = %d" words
      bound

(* A warm ICA view at [ica_explore]'s shape (n=512, d=12) puts under
   2.5·n·d words on the major heap on either kernel path: z is built
   once in the kernel's layout, centred as the product reads it, and the
   directions are scored through one n-float scratch.  When written:
   7,043 on the AVX2 path (z padded, and the sweep's 32-row block),
   12,803 on the portable one (z and its score buffer).  A centred copy
   of the whitened data, z and the kernel's copy of it and two n-floats
   per component put 30,747 there (5·n·d). *)
let test_warm_ica_view_major_heap () =
  with_sink None @@ fun () ->
  let view () =
    let s =
      Session.create ~seed:1 ~method_:View.Ica
        (Synth.clustered ~seed:7919 ~n:512 ~d:12 ~k:6 ())
    in
    Session.add_margin_constraint s;
    ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 s);
    ignore (Session.recompute_view ~method_:View.Ica s);
    let n, d = Mat.dims (Session.data s) in
    let before = major_words () in
    ignore (Session.recompute_view ~method_:View.Ica s);
    let major = int_of_float (major_words () -. before) in
    if 2 * major >= 5 * n * d then
      Alcotest.failf "a warm ICA view put %d words on the major heap, 2.5nd = %d"
        major (5 * n * d / 2)
  in
  view ();
  Ica_kernel.with_portable view

(* The printed projection of a session's current view. *)
let printed_projection s =
  let w = Json.writer 4096 in
  Sider_serve.Service.write_projection w s;
  Json.contents w

(* Every view borrows the process's one whitening buffer.  Two
   systhreads run write rounds at once: one on a session of one shape,
   the other on a session of that shape and one of another.  After its
   first round, which leaves the buffer at its shape, the first holds
   the buffer (through [Whiten.with_whitened], as a view does) while the
   second runs all its rounds, and then runs the rest of its own.  The
   held buffer must still hold the first session's whitened data, and
   every projection either thread prints must be the bytes a sequential
   run prints.  Then a view that raises must give the buffer back, so
   the next view of its shape puts no n×d matrix on the major heap. *)
let test_lent_whitening_buffer () =
  let datasets =
    [| Synth.clustered ~seed:11 ~n:400 ~d:8 ~k:4 ();
       Synth.clustered ~seed:12 ~n:400 ~d:8 ~k:4 ();
       Synth.clustered ~seed:13 ~n:150 ~d:5 ~k:4 () |]
  in
  let methods = [| View.Ica; View.Pca; View.Ica |] in
  let sessions () =
    Array.mapi
      (fun i ds -> Session.create ~seed:(i + 1) ~method_:methods.(i) ds)
      datasets
  in
  (* Round 0 marks the margin, round r > 0 the class c(r-1). *)
  let round s i r =
    (if r = 0 then Session.add_margin_constraint s
     else
       Session.add_cluster_constraint s
         (Dataset.class_indices datasets.(i) (Printf.sprintf "c%d" (r - 1))));
    ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:50 s);
    ignore (Session.recompute_view s);
    printed_projection s
  in
  let run ?(rounds = [ 0; 1; 2; 3 ]) ss mine =
    List.concat_map (fun r -> List.map (fun i -> round ss.(i) i r) mine) rounds
  in
  let sequential =
    let ss = sessions () in
    [| run ss [ 0 ]; run ss [ 1; 2 ] |]
  in
  let ss = sessions () in
  let got = [| []; [] |] and intact = ref false in
  let held = Atomic.make false and done_ = Atomic.make false in
  let wait flag = while not (Atomic.get flag) do Thread.delay 0.001 done in
  (* Each thread raises its flag on the way out too, so one that fails
     does not leave the other waiting. *)
  let first () =
    Fun.protect ~finally:(fun () -> Atomic.set held true) @@ fun () ->
    let printed = run ~rounds:[ 0 ] ss [ 0 ] in
    let solver = Session.solver ss.(0) in
    Whiten.with_whitened solver (fun y ->
        Atomic.set held true;
        wait done_;
        intact := Array.for_all2 same_bits y.Mat.a (Whiten.whiten solver).Mat.a);
    got.(0) <- printed @ run ~rounds:[ 1; 2; 3 ] ss [ 0 ]
  in
  let second () =
    Fun.protect ~finally:(fun () -> Atomic.set done_ true) @@ fun () ->
    wait held;
    got.(1) <- run ss [ 1; 2 ]
  in
  List.iter Thread.join [ Thread.create first (); Thread.create second () ];
  check_true "the held buffer kept its whitened data" !intact;
  Array.iteri
    (fun k expected ->
      check_true (Printf.sprintf "thread %d printed the sequential bytes" k)
        (List.equal String.equal expected got.(k)))
    sequential;
  let s = ss.(1) and poisoned = ss.(0) in
  let n, d = Mat.dims (Session.data s) in
  ignore (Session.recompute_view s);
  let sigma =
    (Sider_maxent.Solver.class_params (Session.solver poisoned) 0)
      .Sider_maxent.Gauss_params.sigma
  in
  Mat.set sigma 0 0 Float.nan;
  (match Session.recompute_view poisoned with
   | _ -> Alcotest.fail "a view over a NaN Σ did not raise"
   | exception Sider_robust.Sider_error.Error _ -> ());
  let before = major_words () in
  ignore (Session.recompute_view s);
  let major = int_of_float (major_words () -. before) in
  if major >= n * d then
    Alcotest.failf "the view after a failed one put %d words on the major \
                    heap, nd = %d" major (n * d)

(* A view whose whitening raises (a class's Σ poisoned with NaN) leaves
   the session's method, view, labels and coordinates exactly as they
   were, so a projection printed after it is the one printed before,
   whose "method" names the shown view's. *)
let test_failed_view_keeps_view_and_sample () =
  let s = Session.create ~seed:5 (Synth.three_d ()) in
  Session.add_cluster_constraint s (Array.init 30 Fun.id);
  ignore (Session.update_background_exn s);
  ignore (Session.recompute_view s);
  let view = Session.current_view s and labels = Session.axis_labels s in
  let coordinates () =
    let c = Session.coordinates s in
    [| c.data_x; c.data_y; c.sample_x; c.sample_y |]
  in
  let kept = Array.map Array.copy (coordinates ()) in
  let before = printed_projection s in
  let sigma =
    (Sider_maxent.Solver.class_params (Session.solver s) 0)
      .Sider_maxent.Gauss_params.sigma
  in
  Mat.set sigma 0 0 Float.nan;
  (match Session.recompute_view ~method_:View.Ica s with
   | _ -> Alcotest.fail "a view over a NaN Σ did not raise"
   | exception Sider_robust.Sider_error.Error e ->
     Alcotest.(check string) "error" "nan-detected"
       (Sider_robust.Sider_error.label e));
  check_true "method kept" (Session.method_ s = View.Pca);
  check_true "view kept" (Session.current_view s == view);
  check_true "labels kept" (Session.axis_labels s = labels);
  Array.iter2 (check_bits "coordinates kept") kept (coordinates ());
  let after = printed_projection s in
  Alcotest.(check string) "printed method" "PCA"
    (Json.to_str (Json.member "method" (Json.of_string after)));
  check_true "printed projection kept" (String.equal before after)

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
    case "session records view degradations" test_records_view_degradations;
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
    case "warm write round puts under nd words on the major heap"
      test_write_round_major_heap;
    case "write round keeps one row set per cluster"
      test_write_round_keeps_one_row_set;
    case "failed view keeps view and sample" test_failed_view_keeps_view_and_sample;
    case "resident session keeps under 3nd words" test_resident_session_words;
    case "warm ICA view puts under 2.5nd words on the major heap"
      test_warm_ica_view_major_heap;
    case "lent whitening buffer: concurrent rounds print sequential bytes"
      test_lent_whitening_buffer;
    case "journaled session keeps under 1.75nd words"
      test_journaled_session_words;
  ]

(* Cross-cutting property-based tests (qcheck) on the core data
   structures and invariants. *)

open Sider_linalg
open Sider_maxent
open Test_helpers

let rng = Sider_rand.Rng.create 777

(* Generator: a small data matrix and a few random row subsets. *)
let gen_rowsets =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* k = int_range 1 4 in
    let* sets =
      list_repeat k
        (let* size = int_range 1 n in
         let* rows = list_repeat size (int_range 0 (n - 1)) in
         return (Array.of_list rows))
    in
    return (n, sets))

let arb_rowsets =
  QCheck.make ~print:(fun (n, sets) ->
      Printf.sprintf "n=%d sets=[%s]" n
        (String.concat "; "
           (List.map
              (fun s ->
                String.concat ","
                  (Array.to_list (Array.map string_of_int s)))
              sets)))
    gen_rowsets

let constraints_of (n, sets) =
  let data =
    Mat.init n 3 (fun i j -> float_of_int (((i * 3) + j) mod 7) -. 3.0)
  in
  let cs =
    List.concat_map
      (fun rows ->
        [ Constr.linear ~data ~rows ~w:[| 1.0; 0.0; 0.0 |] ();
          Constr.quadratic ~data ~rows ~w:[| 0.0; 1.0; 0.0 |] () ])
      sets
  in
  (data, Array.of_list cs)

let prop_partition_is_partition =
  qcheck ~count:100 "partition covers every row exactly once" arb_rowsets
    (fun input ->
      let (n, _) = input in
      let _, cs = constraints_of input in
      let p = Partition.of_constraints ~n cs in
      let seen = Array.make n 0 in
      for c = 0 to Partition.n_classes p - 1 do
        Array.iter (fun r -> seen.(r) <- seen.(r) + 1) (Partition.members p c)
      done;
      Array.for_all (Int.equal 1) seen
      && Array.for_all
           (fun r ->
             Array.exists (Int.equal r)
               (Partition.members p (Partition.class_of_row p r)))
           (Array.init n Fun.id))

let prop_constraint_rowsets_are_class_unions =
  qcheck ~count:100 "each constraint's rows are a union of whole classes"
    arb_rowsets
    (fun input ->
      let (n, _) = input in
      let _, cs = constraints_of input in
      let p = Partition.of_constraints ~n cs in
      let ok = ref true in
      Array.iteri
        (fun idx (c : Constr.t) ->
          let groups = Partition.classes_of_constraint p idx in
          (* Multiplicities must equal full class sizes and sum to |I|. *)
          let total = ref 0 in
          Array.iter
            (fun (cls, cnt) ->
              total := !total + cnt;
              if cnt <> Partition.size p cls then ok := false)
            groups;
          if !total <> Array.length c.Constr.rows then ok := false)
        cs;
      !ok)

let prop_rows_in_class_share_signature =
  qcheck ~count:100 "rows of one class belong to exactly the same constraints"
    arb_rowsets
    (fun input ->
      let (n, _) = input in
      let _, cs = constraints_of input in
      let p = Partition.of_constraints ~n cs in
      let membership r =
        Array.map
          (fun (c : Constr.t) -> Array.exists (Int.equal r) c.Constr.rows)
          cs
      in
      let ok = ref true in
      for cls = 0 to Partition.n_classes p - 1 do
        let members = Partition.members p cls in
        let sig0 = membership members.(0) in
        Array.iter
          (fun r -> if membership r <> sig0 then ok := false)
          members
      done;
      !ok)

let prop_solver_satisfies_random_constraints =
  qcheck ~count:40 "solver satisfies random constraint systems" arb_rowsets
    (fun input ->
      let data, cs = constraints_of input in
      let s = Solver.create data (Array.to_list cs) in
      ignore (Solver.solve ~max_sweeps:4000 ~lambda_tol:1e-6 ~param_tol:1e-6 s);
      (* Feasibility up to the solver's own cap behaviour: accept either a
         tiny residual or a collapsed-variance direction (singular optimum,
         cf. Fig. 5 Case B). *)
      Solver.residual s < 0.05
      ||
      let collapsed = ref false in
      for cls = 0 to Solver.n_classes s - 1 do
        let sigma = (Solver.class_params s cls).Gauss_params.sigma in
        if Mat.trace sigma < 0.1 then collapsed := true
      done;
      !collapsed)

(* Random constraint histories: 2–4 batches of rows over 4–10 data
   rows, one batch per round of feedback. *)
let gen_history =
  QCheck.Gen.(
    let* n = int_range 4 10 in
    let* batches = int_range 2 4 in
    let* sets =
      list_repeat batches
        (let* size = int_range 1 n in
         let* rows = list_repeat size (int_range 0 (n - 1)) in
         return (Array.of_list rows))
    in
    return (n, sets))

let arb_history =
  QCheck.make
    ~print:(fun (n, sets) ->
      Printf.sprintf "n=%d history=[%s]" n
        (String.concat "; "
           (List.map
              (fun s ->
                String.concat ","
                  (Array.to_list (Array.map string_of_int s)))
              sets)))
    gen_history

(* Lemma 1: Problem 1 is convex with a unique optimum, so the background
   cannot depend on how its constraints arrived.  Four routes over one
   history must agree: solving after each [add_constraints] (every solve
   starts from the previous optimum), one solve of all the constraints,
   one of the same constraints in reverse order, and one with the first
   batch given twice.  Class indices differ between the routes, so the
   comparison is per row.  A history where any solve stops at
   [max_sweeps] is dropped: that solve has not reached the optimum. *)
let prop_background_independent_of_history =
  qcheck ~count:500
    "warm solve equals cold solve over incremental histories, in any \
     order, with duplicates (Lemma 1)"
    arb_history
    (fun (n, sets) ->
      let data =
        Mat.init n 3 (fun i j -> float_of_int (((i * 3) + j) mod 7) -. 3.0)
      in
      let batch rows =
        let lin = Constr.linear ~data ~rows ~w:[| 1.0; 0.0; 0.0 |] () in
        let quad = Constr.quadratic ~data ~rows ~w:[| 0.0; 1.0; 0.0 |] () in
        (* A zero target variance is the paper's singular optimum (the
           multiplier runs to the cap); skip those so the comparison
           stays at a unique interior optimum. *)
        if quad.Constr.target > 1e-6 then [ lin; quad ] else [ lin ]
      in
      let solve s =
        let r =
          Solver.solve ~max_sweeps:2000 ~lambda_tol:1e-5 ~param_tol:1e-5 s
        in
        QCheck.assume r.Solver.converged;
        s
      in
      match List.map batch sets with
      | [] -> true
      | first :: rest as batches ->
        let all = List.concat batches in
        let incremental =
          List.fold_left
            (fun s b -> solve (Solver.add_constraints s b))
            (solve (Solver.create data first))
            rest
        in
        let close (p : Gauss_params.t) (q : Gauss_params.t) =
          Array.for_all2
            (fun a b -> Float.abs (a -. b) <= 5e-2)
            p.Gauss_params.mean q.Gauss_params.mean
          && mat_approx_equal ~eps:5e-2 p.Gauss_params.sigma
               q.Gauss_params.sigma
        in
        List.for_all
          (fun cs ->
            let s = solve (Solver.create data cs) in
            List.for_all
              (fun r ->
                close (Solver.row_params incremental r) (Solver.row_params s r))
              (List.init n Fun.id))
          [ all; List.rev all; all @ first ])

let prop_constraint_eval_matches_target =
  qcheck ~count:60 "constraint target equals its own evaluation" arb_rowsets
    (fun input ->
      let data, cs = constraints_of input in
      Array.for_all
        (fun (c : Constr.t) ->
          Float.abs (Constr.eval c data -. c.Constr.target) < 1e-9)
        cs)

let prop_csv_roundtrip =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* d = int_range 1 5 in
      let* values =
        list_repeat (n * d) (float_range (-1000.0) 1000.0)
      in
      return (n, d, Array.of_list values))
  in
  qcheck ~count:80 "csv roundtrips random matrices"
    (QCheck.make
       ~print:(fun (n, d, _) -> Printf.sprintf "%dx%d" n d)
       gen)
    (fun (n, d, values) ->
      let m = Mat.init n d (fun i j -> values.((i * d) + j)) in
      let ds =
        Sider_data.Dataset.create
          ~columns:(Array.init d (fun j -> Printf.sprintf "c%d" j))
          m
      in
      let back = csv_of_string (csv_to_string ds) in
      mat_approx_equal ~eps:0.0 m (Sider_data.Dataset.matrix back))

let prop_whiten_margin_standardizes =
  qcheck ~count:20 "whitening after margin constraints standardizes columns"
    QCheck.(int_range 2 4)
    (fun d ->
      let data =
        Mat.init 80 d (fun i j ->
            (2.0 *. Sider_rand.Sampler.normal rng)
            +. float_of_int (j * (i mod 3)))
      in
      let s = Solver.create data (Constr.margin data) in
      ignore (Solver.solve ~lambda_tol:1e-7 ~param_tol:1e-7 s);
      let y = Sider_projection.Whiten.whiten s in
      let means = Mat.col_means y and vars = Mat.col_variances y in
      Array.for_all (fun m -> Float.abs m < 0.05) means
      && Array.for_all (fun v -> Float.abs (v -. 1.0) < 0.1) vars)

(* Margin constraints act per column, so the background follows any map
   x ↦ P·D·x + b that permutes columns (P) and rescales them (D diagonal,
   non-singular, either sign): X' = X·Dᵀ·Pᵀ + 1bᵀ whitens to
   Y·(P·sign D)ᵀ.  A general affine map mixes columns, which margin
   constraints cannot see, so no such identity holds for it.  Solver
   level: no standardization, no jitter. *)
let prop_margin_whitening_follows_signed_scaling =
  let gen =
    QCheck.Gen.(
      triple (int_range 8 80) (int_range 1 8) (int_bound 1_000_000))
  in
  qcheck ~count:100
    "margin whitening follows column permutation, signed scale and offset"
    (QCheck.make
       ~print:(fun (n, d, seed) -> Printf.sprintf "n=%d d=%d seed=%d" n d seed)
       gen)
    (fun (n, d, seed) ->
      let r = Sider_rand.Rng.create seed in
      let x = Sider_rand.Sampler.normal_mat r n d in
      (* Column j of X becomes column perm.(j) of X'. *)
      let perm = Array.init d Fun.id in
      Sider_rand.Sampler.shuffle r perm;
      let scale =
        Array.init d (fun _ ->
            let m = 10.0 ** uniform r (-2.0) 2.0 in
            if Sider_rand.Rng.bool r then m else -.m)
      in
      let offset =
        Array.init d (fun _ -> uniform r (-800.0) 800.0)
      in
      let x' = Mat.create n d in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          Mat.set x' i perm.(j)
            ((scale.(j) *. Mat.get x i j) +. offset.(perm.(j)))
        done
      done;
      let whiten m =
        let s = Solver.create m (Constr.margin m) in
        ignore (Solver.solve s);
        Sider_projection.Whiten.whiten s
      in
      let y = whiten x and y' = whiten x' in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          let expected = Float.copy_sign 1.0 scale.(j) *. Mat.get y i j in
          if Float.abs (Mat.get y' i perm.(j) -. expected) > 1e-8 then
            ok := false
        done
      done;
      !ok)

let prop_ellipse_polyline_on_boundary =
  qcheck ~count:40 "ellipse polyline points lie on the boundary"
    QCheck.(pair (float_range 0.1 5.0) (float_range 0.1 5.0))
    (fun (a, b) ->
      let e = Sider_stats.Ellipse.of_points (moment_points (1.0, -2.0) a b) in
      let pts = Sider_stats.Ellipse.polyline e in
      Array.for_all
        (fun (x, y) ->
          (* On the boundary: the scaled quadratic form equals 1. *)
          let cx, cy = e.Sider_stats.Ellipse.center in
          let proj (ax, ay) = ((x -. cx) *. ax) +. ((y -. cy) *. ay) in
          let u = proj e.Sider_stats.Ellipse.axis1 in
          let v = proj e.Sider_stats.Ellipse.axis2 in
          let q =
            ((u /. e.Sider_stats.Ellipse.radius1) ** 2.0)
            +. ((v /. e.Sider_stats.Ellipse.radius2) ** 2.0)
          in
          Float.abs (q -. 1.0) < 1e-9)
        pts)

let prop_rng_streams_diverge =
  qcheck ~count:50 "split rng streams do not collide" QCheck.small_int
    (fun seed ->
      let a = Sider_rand.Rng.create seed in
      let b = Sider_rand.Rng.split a in
      let collide = ref false in
      for _ = 1 to 20 do
        if Float.equal (Sider_rand.Rng.float a) (Sider_rand.Rng.float b) then
          collide := true
      done;
      not !collide)

let prop_kmeans_assignment_valid =
  qcheck ~count:30 "kmeans assignments are within range and non-empty"
    QCheck.(pair (int_range 2 4) (int_range 10 40))
    (fun (k, n) ->
      let m = Sider_rand.Sampler.normal_mat rng n 2 in
      let r = Sider_stats.Kmeans.fit (Sider_rand.Rng.create (k + n)) ~k m in
      Array.for_all (fun c -> c >= 0 && c < k) r.Sider_stats.Kmeans.assignment)

(* Near-degenerate inputs through the full constraint→solve→whiten
   pipeline: duplicated rows (rank-deficient clusters), heavily
   overlapping clusters, and d = 1.  The guarded solver must terminate
   within its sweep budget and never emit a non-finite number. *)
let prop_degenerate_pipeline_stays_finite =
  let gen =
    QCheck.Gen.(
      let* d = int_range 1 3 in
      let* base = int_range 4 8 in
      let* dup = int_range 1 3 in
      return (d, base, dup))
  in
  qcheck ~count:40 "degenerate inputs stay finite within the sweep budget"
    (QCheck.make
       ~print:(fun (d, base, dup) ->
         Printf.sprintf "d=%d base=%d dup=%d" d base dup)
       gen)
    (fun (d, base, dup) ->
      let n = base * dup in
      (* Every base row appears [dup] times — exact duplicates. *)
      let data =
        Mat.init n d (fun i j ->
            float_of_int (((i mod base) * (j + 2)) mod 5) -. 2.0)
      in
      (* Two clusters overlapping on a third of the data, plus (when rows
         are duplicated) a zero-variance cluster of identical points. *)
      let k = Int.max 2 (2 * n / 3) in
      let c1 = Array.init k Fun.id in
      let c2 = Array.init k (fun i -> n - 1 - i) in
      let cs =
        Constr.margin data
        @ Constr.cluster ~data ~rows:c1 ()
        @ Constr.cluster ~data ~rows:c2 ()
        @ (if dup > 1 then
             Constr.cluster ~data
               ~rows:(Array.init dup (fun t -> t * base))
               ()
           else [])
      in
      let budget = 200 in
      let s = Solver.create data cs in
      let r = Solver.solve ~max_sweeps:budget s in
      let finite = ref (r.Solver.sweeps <= budget) in
      for cls = 0 to Solver.n_classes s - 1 do
        let p = Solver.class_params s cls in
        if
          not
            (Array.for_all Float.is_finite p.Gauss_params.mean
             && Array.for_all Float.is_finite p.Gauss_params.theta1
             && Array.for_all Float.is_finite p.Gauss_params.sigma.Mat.a)
        then finite := false
      done;
      let y = Sider_projection.Whiten.whiten s in
      if not (Array.for_all Float.is_finite y.Mat.a) then finite := false;
      !finite)

(* d = 1 data cannot support a 2-D view (Pca.top2 needs two dimensions),
   so the session-level degenerate case is the next worst thing: rank-1
   d = 2 data whose second column is exactly constant. *)
let prop_single_attribute_sessions =
  qcheck ~count:20 "rank-1 sessions survive cluster feedback" QCheck.small_int
    (fun seed ->
      let n = 30 in
      let data =
        Mat.init n 2 (fun i j ->
            if j = 1 then 4.0 else if i < n / 2 then 0.0 else 1.0)
      in
      let ds =
        Sider_data.Dataset.create ~columns:[| "steps"; "flat" |] data
      in
      let session = Sider_core.Session.create ~seed:(seed + 1) ds in
      Sider_core.Session.add_margin_constraint session;
      Sider_core.Session.add_cluster_constraint session
        (Array.init (n / 2) Fun.id);
      match Sider_core.Session.update_background ~max_sweeps:200 session with
      | Ok _ ->
        Array.for_all
          (fun p ->
            Float.is_finite p.Sider_core.Session.x
            && Float.is_finite p.Sider_core.Session.y)
          (Sider_core.Session.scatter session)
      | Error _ -> true)

(* --- differential tests: optimized linalg kernels vs naive loops ----------- *)

(* Random shapes including empty (0), degenerate (1×k) and non-square.
   Entries are gaussian, so the optimized kernels' zero-skips never fire
   and every accumulation follows the same index order as the naive
   loops: results must match to the last bit. *)
let gen_dims lo hi =
  QCheck.Gen.(
    let* r = int_range lo hi in
    let* c = int_range lo hi in
    let* k = int_range lo hi in
    let* seed = int_range 0 10_000 in
    return (r, k, c, seed))

let arb_dims =
  QCheck.make
    ~print:(fun (r, k, c, seed) -> Printf.sprintf "%dx%d * %dx%d seed=%d" r k k c seed)
    (gen_dims 0 9)

let mats_of (r, k, c, seed) =
  let rng = Sider_rand.Rng.create (1234 + seed) in
  ( Sider_rand.Sampler.normal_mat rng r k,
    Sider_rand.Sampler.normal_mat rng k c )

let naive_matmul x y =
  let r, k = Mat.dims x and _, c = Mat.dims y in
  Mat.init r c (fun i j ->
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (Mat.get x i l *. Mat.get y l j)
      done;
      !acc)

let bits_equal_mat a b =
  Mat.dims a = Mat.dims b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.Mat.a b.Mat.a

let bits_equal_vec (a : Vec.t) (b : Vec.t) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let prop_matmul_matches_naive =
  qcheck ~count:100 "matmul = naive triple loop (bitwise)" arb_dims
    (fun dims ->
      let x, y = mats_of dims in
      bits_equal_mat (Mat.matmul x y) (naive_matmul x y))

let prop_matmul_nt_tn_match_transpose =
  qcheck ~count:100 "matmul_nt/_tn = matmul via transpose (bitwise)" arb_dims
    (fun dims ->
      let x, y = mats_of dims in
      let tn = Mat.create (fst (Mat.dims x)) (snd (Mat.dims y)) in
      Mat.matmul_tn_into ~dst:tn (Mat.transpose x) y;
      bits_equal_mat (Mat.matmul_nt x (Mat.transpose y)) (Mat.matmul x y)
      && bits_equal_mat tn (Mat.matmul x y))

let prop_mv_tmv_match_naive =
  qcheck ~count:100 "mv/tmv = naive loops (bitwise)" arb_dims
    (fun (r, k, _, seed) ->
      let rng = Sider_rand.Rng.create (4321 + seed) in
      let m = Sider_rand.Sampler.normal_mat rng r k in
      let v = Sider_rand.Sampler.normal_vec rng k in
      let naive_mv =
        Array.init r (fun i ->
            let acc = ref 0.0 in
            for j = 0 to k - 1 do
              acc := !acc +. (Mat.get m i j *. v.(j))
            done;
            !acc)
      in
      bits_equal_vec (Mat.mv m v) naive_mv)

let prop_covariance_symmetric_halving =
  qcheck ~count:100 "covariance mirror equals direct accumulation" arb_dims
    (fun (r, k, _, seed) ->
      QCheck.assume (r >= 1);
      let rng = Sider_rand.Rng.create (9876 + seed) in
      let m = Sider_rand.Sampler.normal_mat rng r k in
      let cov = Mat.covariance m in
      let centered, _ = center_cols m in
      let reference =
        Mat.init k k (fun a b ->
            let acc = ref 0.0 in
            for i = 0 to r - 1 do
              acc := !acc +. (Mat.get centered i a *. Mat.get centered i b)
            done;
            !acc /. float_of_int r)
      in
      mat_approx_equal ~eps:1e-12 cov reference
      && bits_equal_mat cov (Mat.transpose cov))

(* --- in-place sample and covariance against the forms they replaced -------- *)

(* [Solver.sample] as it was: per class a factor and one
   [Rng.fill_normal] of [size·d] draws into a buffer of its own, then
   [mean + L·z] per member row, classes in order. *)
let reference_sample solver rng =
  let n, d = Mat.dims (Solver.data solver) in
  let out = Mat.create n d in
  for cls = 0 to Solver.n_classes solver - 1 do
    let p = Solver.class_params solver cls in
    let chol = Chol.decompose_psd (Mat.symmetrize p.Gauss_params.sigma) in
    let rows = Partition.members (Solver.partition solver) cls in
    let z = Array.create_float (Array.length rows * d) in
    Sider_rand.Rng.fill_normal rng z ~pos:0 ~len:(Array.length z);
    Array.iteri
      (fun k r ->
        for i = 0 to d - 1 do
          let acc = ref 0.0 in
          for j = 0 to i do
            acc := !acc +. (Mat.get chol i j *. z.((k * d) + j))
          done;
          Mat.set out r i (p.Gauss_params.mean.(i) +. !acc)
        done)
      rows
  done;
  out

(* [Mat.covariance] as it was: a centred copy of the matrix, the upper
   triangle summed over the rows in order with zero entries skipped,
   mirrored, then scaled by [1/n]. *)
let reference_covariance m =
  let n, d = Mat.dims m in
  let centered, _ = center_cols m in
  let cov = Array.make (d * d) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      let xj = Mat.get centered i j in
      if not (Float.equal xj 0.0) then
        for k = j to d - 1 do
          cov.((j * d) + k) <- cov.((j * d) + k) +. (xj *. Mat.get centered i k)
        done
    done
  done;
  for j = 1 to d - 1 do
    for k = 0 to j - 1 do
      cov.((j * d) + k) <- cov.((k * d) + j)
    done
  done;
  let s = 1.0 /. float_of_int n in
  Mat.of_array d d (Array.map (fun x -> s *. x) cov)

(* After every step of a random history (margin, cluster, 2-D and
   1-cluster constraints, each followed by an update and a view, so the
   classes and their sizes change from view to view), three identically
   seeded generators draw: [Solver.sample] gives the bits of the old
   sample, [sample_projected] writes into two dirty arrays exactly
   [Mat.mv_into] of that sample on the view's two axes, and all three
   generators end in the same state.  [Mat.covariance] gives the old
   bits on the sample, on the whitened data and on the sample with a
   constant column (whose centred entries are exact zeros, so the
   zero-skip is taken).  A 600×16 matrix with a constant column spans
   two of the covariance's 8-row blocks. *)
let prop_in_place_sample_and_covariance =
  let module Session = Sider_core.Session in
  let module Rng = Sider_rand.Rng in
  let gen = QCheck.(list_of_size (Gen.int_range 1 6) (pair small_nat small_nat)) in
  qcheck ~count:25 "in-place sample and covariance keep the old bits" gen
    (fun script ->
      let s = Session.create ~seed:3 (Sider_data.Synth.clustered ~seed:17 ~n:40 ~d:4 ~k:3 ()) in
      let n, _ = Mat.dims (Session.data s) in
      let same_cov m = bits_equal_mat (Mat.covariance m) (reference_covariance m) in
      let large = Sider_rand.Sampler.normal_mat (Rng.create 29) 600 16 in
      for i = 0 to 599 do Mat.set large i 3 2.5 done;
      same_cov large
      && List.for_all
        (fun (code, pick) ->
          let rows () = Array.init (2 + (pick mod 9)) (fun i -> ((i * 5) + pick) mod n) in
          (match code mod 4 with
           | 0 -> Session.add_margin_constraint s
           | 1 -> Session.add_cluster_constraint s (rows ())
           | 2 -> Session.add_two_d_constraint s (rows ())
           | _ -> Session.add_one_cluster_constraint s);
          ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:4 s);
          let view = Session.recompute_view s in
          let module View = Sider_projection.View in
          let w1 = view.View.axis1.View.direction
          and w2 = view.View.axis2.View.direction in
          let solver = Session.solver s in
          let a = Rng.create pick and b = Rng.create pick and c = Rng.create pick in
          let sample = Solver.sample solver a in
          let projected w =
            let dst = Array.create_float n in
            Mat.mv_into ~dst sample w;
            dst
          in
          let dst1 = Array.make n Float.nan and dst2 = Array.make n 1e300 in
          Solver.sample_projected solver c ~w1 ~w2 ~dst1 ~dst2;
          let constant = Mat.copy sample in
          for i = 0 to n - 1 do Mat.set constant i 0 1.0 done;
          let next = Rng.float a in
          bits_equal_mat sample (reference_sample solver b)
          && bits_equal_vec dst1 (projected w1)
          && bits_equal_vec dst2 (projected w2)
          && Float.equal next (Rng.float b) && Float.equal next (Rng.float c)
          && same_cov sample && same_cov constant
          && same_cov (Sider_projection.Whiten.whiten solver))
        script)

let suite =
  [
    prop_partition_is_partition;
    prop_constraint_rowsets_are_class_unions;
    prop_rows_in_class_share_signature;
    prop_solver_satisfies_random_constraints;
    prop_background_independent_of_history;
    prop_constraint_eval_matches_target;
    prop_csv_roundtrip;
    prop_whiten_margin_standardizes;
    prop_margin_whitening_follows_signed_scaling;
    prop_ellipse_polyline_on_boundary;
    prop_rng_streams_diverge;
    prop_kmeans_assignment_valid;
    prop_degenerate_pipeline_stays_finite;
    prop_single_attribute_sessions;
    prop_matmul_matches_naive;
    prop_matmul_nt_tn_match_transpose;
    prop_mv_tmv_match_naive;
    prop_covariance_symmetric_halving;
    prop_in_place_sample_and_covariance;
  ]

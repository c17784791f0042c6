(* Descriptive statistics, Gaussian utilities, metrics, ellipses,
   k-means. *)

open Sider_linalg
open Sider_stats
open Test_helpers

(* --- Descriptive ---------------------------------------------------------- *)

let test_standardize () =
  let s = [| 2.0; 4.0; 6.0 |] in
  Descriptive.standardize_into ~dst:s s;
  approx ~eps:1e-12 "mean 0" 0.0 (Vec.mean s);
  approx ~eps:1e-12 "var 1" 1.0 (Vec.variance s)

(* --- Gaussian -------------------------------------------------------------- *)

let test_cdf () =
  approx ~eps:1e-7 "cdf 0" 0.5 (Gaussian.cdf 0.0);
  approx ~eps:1e-5 "cdf 1.96" 0.975 (Gaussian.cdf 1.959964);
  approx ~eps:1e-5 "symmetric" 1.0 (Gaussian.cdf 1.2 +. Gaussian.cdf (-1.2))

let test_log_cosh_moment () =
  (* Independent Monte-Carlo check of the precomputed constant. *)
  let rng = Sider_rand.Rng.create 77 in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let x = Sider_rand.Sampler.normal rng in
    acc := !acc +. log (cosh x)
  done;
  approx ~eps:3e-3 "E log cosh" (!acc /. float_of_int n)
    Gaussian.log_cosh_moment

(* The quadrature the literal was taken from: a 200,000-point trapezoid
   of log cosh(x)·φ(x) over [-12, 12], where the integrand has decayed
   below 1e-30.  Every ICA score, golden and paper artifact depends on
   the constant's bits, so they must match exactly. *)
let reference_log_cosh_moment () =
  let n = 200_000 in
  let lo = -12.0 and hi = 12.0 in
  let h = (hi -. lo) /. float_of_int n in
  let f x =
    (* log cosh x computed stably for large |x|. *)
    let ax = Float.abs x in
    let lc = ax +. log1p (exp (-2.0 *. ax)) -. log 2.0 in
    lc *. exp (-0.5 *. x *. x) /. sqrt (2.0 *. Float.pi)
  in
  let acc = ref (0.5 *. (f lo +. f hi)) in
  for i = 1 to n - 1 do
    acc := !acc +. f (lo +. (h *. float_of_int i))
  done;
  !acc *. h

let test_log_cosh_moment_literal () =
  check_bits "log cosh moment" [| reference_log_cosh_moment () |]
    [| Gaussian.log_cosh_moment |]

let test_chi2 () =
  approx ~eps:1e-9 "95% two dof" (-2.0 *. log 0.05) (Gaussian.chi2_quantile_2d 0.95);
  approx ~eps:1e-3 "5.991 textbook" 5.991 (Gaussian.chi2_quantile_2d 0.95)

(* --- Metrics ----------------------------------------------------------------- *)

let test_jaccard () =
  approx "identical" 1.0 (Metrics.jaccard [| 1; 2; 3 |] [| 3; 2; 1 |]);
  approx "disjoint" 0.0 (Metrics.jaccard [| 1 |] [| 2 |]);
  approx "half" (1.0 /. 3.0) (Metrics.jaccard [| 1; 2 |] [| 2; 3 |]);
  approx "both empty" 1.0 (Metrics.jaccard [||] [||]);
  approx "duplicates ignored" 1.0 (Metrics.jaccard [| 1; 1; 2 |] [| 2; 1 |])

let test_jaccard_to_class () =
  let labels = [| "a"; "a"; "b"; "b"; "b" |] in
  let to_class selection cls =
    List.assoc cls (Metrics.best_class_match ~selection ~labels)
  in
  approx "exact class" 1.0 (to_class [| 0; 1 |] "a");
  approx "partial" 0.4 (to_class [| 2; 3; 0; 1 |] "b");
  let matches = Metrics.best_class_match ~selection:[| 2; 3; 4 |] ~labels in
  (match matches with
   | (best, j) :: _ ->
     check_true "best is b" (String.equal best "b");
     approx "perfect" 1.0 j
   | [] -> Alcotest.fail "no matches")

(* --- Ellipse ------------------------------------------------------------------ *)

let test_ellipse_isotropic () =
  let e = Ellipse.of_points (moment_points (0.0, 0.0) 1.0 1.0) in
  approx ~eps:1e-6 "radius √5.991" (sqrt (Gaussian.chi2_quantile_2d 0.95))
    e.Ellipse.radius1;
  approx ~eps:1e-9 "circular" e.Ellipse.radius1 e.Ellipse.radius2

let test_ellipse_contains () =
  let e = Ellipse.of_points (moment_points (1.0, 1.0) 1.0 1.0) in
  check_true "center inside" (ellipse_contains e (1.0, 1.0));
  check_true "far point outside" (not (ellipse_contains e (10.0, 10.0)))

let test_ellipse_coverage () =
  (* ~95% of standard Gaussian points should fall inside the 95% ellipse
     fit on those points. *)
  let rng = Sider_rand.Rng.create 21 in
  let pts =
    Array.init 5000 (fun _ ->
        (Sider_rand.Sampler.normal rng, Sider_rand.Sampler.normal rng))
  in
  let e = Ellipse.of_points pts in
  let inside =
    Array.fold_left
      (fun acc p -> if ellipse_contains e p then acc + 1 else acc)
      0 pts
  in
  approx ~eps:0.02 "95% coverage" 0.95 (float_of_int inside /. 5000.0)

let test_ellipse_polyline () =
  let e = Ellipse.of_points (moment_points (0.0, 0.0) 1.0 1.0) in
  let pl = Ellipse.polyline e in
  approx "closed" (fst pl.(0)) (fst pl.(64));
  check_true "65 points" (Array.length pl = 65)

(* --- K-means -------------------------------------------------------------------- *)

let test_kmeans_obvious () =
  let rng = Sider_rand.Rng.create 31 in
  let centers = Mat.of_arrays [| [| 0.0; 0.0 |]; [| 10.0; 10.0 |] |] in
  let ds = blobs ~seed:3 ~sd:0.3 ~centers ~sizes:[| 40; 40 |] in
  let r = Kmeans.fit rng ~k:2 (Sider_data.Dataset.matrix ds) in
  (* All of the first 40 together, all of the last 40 together. *)
  let a0 = r.Kmeans.assignment.(0) in
  for i = 0 to 39 do
    check_true "first blob together" (r.Kmeans.assignment.(i) = a0)
  done;
  let a1 = r.Kmeans.assignment.(40) in
  check_true "blobs apart" (a0 <> a1);
  for i = 40 to 79 do
    check_true "second blob together" (r.Kmeans.assignment.(i) = a1)
  done

let test_kmeans_invalid_k () =
  let rng = Sider_rand.Rng.create 32 in
  let m = Mat.identity 3 in
  Alcotest.check_raises "k too large" (Invalid_argument "Kmeans.fit: invalid k")
    (fun () -> ignore (Kmeans.fit rng ~k:4 m))

let test_choose_k () =
  let rng = Sider_rand.Rng.create 33 in
  let centers =
    Mat.of_arrays [| [| 0.0; 0.0 |]; [| 8.0; 0.0 |]; [| 0.0; 8.0 |] |]
  in
  let ds = blobs ~seed:5 ~sd:0.3 ~centers ~sizes:[| 30; 30; 30 |] in
  let r = Kmeans.choose_k ~k_max:6 rng (Sider_data.Dataset.matrix ds) in
  let k = Array.fold_left Stdlib.max 0 r.Kmeans.assignment + 1 in
  check_true "found 3 clusters" (k = 3)

let suite =
  [
    case "standardize" test_standardize;
    case "gaussian cdf" test_cdf;
    case "log cosh moment" test_log_cosh_moment;
    case "jaccard" test_jaccard;
    case "jaccard to class" test_jaccard_to_class;
    case "ellipse isotropic" test_ellipse_isotropic;
    case "ellipse contains" test_ellipse_contains;
    case "ellipse 95% coverage" test_ellipse_coverage;
    case "ellipse polyline" test_ellipse_polyline;
    case "chi-square 2 dof" test_chi2;
    case "kmeans separates blobs" test_kmeans_obvious;
    case "kmeans invalid k" test_kmeans_invalid_k;
    case "choose_k finds 3" test_choose_k;
    case "log cosh moment literal is the trapezoid's bits" test_log_cosh_moment_literal;
  ]

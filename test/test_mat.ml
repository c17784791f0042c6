open Sider_linalg
open Test_helpers

let m23 = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |]

let test_dims_get () =
  approx "rows" 2.0 (float_of_int (fst (Mat.dims m23)));
  approx "cols" 3.0 (float_of_int (snd (Mat.dims m23)));
  approx "get" 6.0 (Mat.get m23 1 2)

let test_identity_diag () =
  let i3 = Mat.identity 3 in
  approx "trace" 3.0 (Mat.trace i3);
  approx "i11" 1.0 (Mat.get i3 1 1);
  approx "i01" 0.0 (Mat.get i3 0 1)

let test_transpose () =
  let t = Mat.transpose m23 in
  approx "shape" 3.0 (float_of_int (fst (Mat.dims t)));
  approx "t(0,1)" 4.0 (Mat.get t 0 1);
  approx_mat "double transpose" m23 (Mat.transpose t)

let test_matmul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  approx_mat "swap columns"
    (Mat.of_arrays [| [| 2.0; 1.0 |]; [| 4.0; 3.0 |] |])
    (Mat.matmul a b);
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Mat.matmul: inner dims (2x3)*(2x3)") (fun () ->
      ignore (Mat.matmul m23 m23))

let test_mv_tmv () =
  approx_vec "mv" [| 14.0; 32.0 |] (Mat.mv m23 [| 1.0; 2.0; 3.0 |])

let test_quad_outer () =
  let s = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  approx "quad_form" 7.0 (Mat.quad_form s [| 1.0; 1.0 |])

let test_rank1_update () =
  let m = Mat.identity 2 in
  Mat.rank1_update m 2.0 [| 1.0; 1.0 |];
  approx_mat "rank1"
    (Mat.of_arrays [| [| 3.0; 2.0 |]; [| 2.0; 3.0 |] |]) m

let test_col_stats () =
  approx_vec "col means" [| 2.5; 3.5; 4.5 |] (Mat.col_means m23);
  approx_vec "col vars" [| 2.25; 2.25; 2.25 |] (Mat.col_variances m23);
  let centered, means = center_cols m23 in
  approx_vec "returned means" [| 2.5; 3.5; 4.5 |] means;
  approx_vec "centered col means" [| 0.0; 0.0; 0.0 |] (Mat.col_means centered)

let test_covariance () =
  (* Two perfectly correlated columns. *)
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  let cov = Mat.covariance m in
  approx "var x" (2.0 /. 3.0) (Mat.get cov 0 0);
  approx "cov xy" (4.0 /. 3.0) (Mat.get cov 0 1);
  approx "var y" (8.0 /. 3.0) (Mat.get cov 1 1);
  check_true "symmetric" (Mat.is_symmetric cov)

let test_cat_select () =
  approx_mat "select_rows" (Mat.of_arrays [| [| 4.0; 5.0; 6.0 |] |])
    (Mat.select_rows m23 [| 1 |])

let test_row_ops () =
  approx_vec "row" [| 4.0; 5.0; 6.0 |] (Mat.row m23 1);
  approx_vec "col" [| 2.0; 5.0 |] (Mat.col m23 1);
  let m = Mat.copy m23 in
  Mat.set_row m 0 [| 7.0; 8.0; 9.0 |];
  approx_vec "set_row" [| 7.0; 8.0; 9.0 |] (Mat.row m 0);
  approx_vec "copy untouched" [| 1.0; 2.0; 3.0 |] (Mat.row m23 0)

let test_gram () =
  let g = Mat.create 3 3 in
  Mat.matmul_tn_into ~dst:g m23 m23;
  approx "g00" 17.0 (Mat.get g 0 0);
  approx "g12" 36.0 (Mat.get g 1 2);
  check_true "gram symmetric" (Mat.is_symmetric g)

let test_frobenius_symmetrize () =
  approx "frobenius" (sqrt 91.0) (Mat.frobenius m23);
  let asym = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 1.0 |] |] in
  check_true "asym detected" (not (Mat.is_symmetric asym));
  check_true "symmetrize works" (Mat.is_symmetric (Mat.symmetrize asym))

let prop_matmul_assoc =
  let rng = Sider_rand.Rng.create 17 in
  qcheck ~count:25 "matmul associativity" QCheck.(int_range 1 6)
    (fun d ->
      let a = Sider_rand.Sampler.normal_mat rng d d in
      let b = Sider_rand.Sampler.normal_mat rng d d in
      let c = Sider_rand.Sampler.normal_mat rng d d in
      mat_approx_equal ~eps:1e-8
        (Mat.matmul (Mat.matmul a b) c)
        (Mat.matmul a (Mat.matmul b c)))

let prop_transpose_product =
  let rng = Sider_rand.Rng.create 18 in
  qcheck ~count:25 "(AB)ᵀ = BᵀAᵀ" QCheck.(int_range 1 6)
    (fun d ->
      let a = Sider_rand.Sampler.normal_mat rng d d in
      let b = Sider_rand.Sampler.normal_mat rng d d in
      mat_approx_equal ~eps:1e-9
        (Mat.transpose (Mat.matmul a b))
        (Mat.matmul (Mat.transpose b) (Mat.transpose a)))

let prop_covariance_psd =
  let rng = Sider_rand.Rng.create 19 in
  qcheck ~count:25 "covariance is PSD" QCheck.(int_range 2 5)
    (fun d ->
      let m = Sider_rand.Sampler.normal_mat rng (3 * d) d in
      let cov = Mat.covariance m in
      let v = Sider_rand.Sampler.normal_vec rng d in
      Mat.quad_form cov v >= -1e-9)

let suite =
  [
    case "dims and get" test_dims_get;
    case "identity and diag" test_identity_diag;
    case "transpose" test_transpose;
    case "matmul" test_matmul;
    case "mv and tmv" test_mv_tmv;
    case "quad_form and outer" test_quad_outer;
    case "rank1 update" test_rank1_update;
    case "column statistics" test_col_stats;
    case "covariance" test_covariance;
    case "hcat vcat select" test_cat_select;
    case "row operations" test_row_ops;
    case "gram matrix" test_gram;
    case "frobenius and symmetrize" test_frobenius_symmetrize;
    prop_matmul_assoc;
    prop_transpose_product;
    prop_covariance_psd;
  ]

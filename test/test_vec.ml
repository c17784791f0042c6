open Sider_linalg
open Test_helpers

let test_create () =
  let v = Vec.create 4 in
  approx "len" 4.0 (float_of_int (Array.length v));
  Array.iter (fun x -> approx "zero" 0.0 x) v

let test_basis () =
  let v = Vec.basis 3 1 in
  approx_vec "basis" [| 0.0; 1.0; 0.0 |] v;
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis: index out of range")
    (fun () -> ignore (Vec.basis 3 3))

let test_add_sub () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 0.5; -1.0; 2.0 |] in
  approx_vec "add" [| 1.5; 1.0; 5.0 |] (Vec.add a b);
  approx_vec "sub" [| 0.5; 3.0; 1.0 |] (Vec.sub a b)

let test_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_dot () =
  approx "dot" 11.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 3.0; 1.0; 2.0 |]);
  approx "dot empty" 0.0 (Vec.dot [||] [||])

let test_scale_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy 2.0 [| 3.0; -1.0 |] y;
  approx_vec "axpy" [| 7.0; -1.0 |] y;
  approx_vec "scale" [| 2.0; 4.0 |] (Vec.scale 2.0 [| 1.0; 2.0 |])

let test_norms () =
  approx "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |]);
  approx "norm_inf" 4.0 (norm_inf [| 3.0; -4.0 |]);
  approx "dist2" 5.0 (Vec.dist2 [| 0.0; 0.0 |] [| 3.0; 4.0 |])

let test_normalize () =
  let v = Vec.normalize [| 3.0; 4.0 |] in
  approx "unit" 1.0 (Vec.norm2 v);
  approx_vec "zero stays zero" [| 0.0; 0.0 |] (Vec.normalize [| 0.0; 0.0 |])

let test_stats () =
  let v = [| 1.0; 2.0; 3.0; 4.0 |] in
  approx "sum" 10.0 (Vec.sum v);
  approx "mean" 2.5 (Vec.mean v);
  approx "variance" 1.25 (Vec.variance v);
  approx "min" 1.0 (Vec.min v);
  approx "max" 4.0 (Vec.max v)

let prop_triangle_inequality =
  qcheck "norm2 triangle inequality"
    QCheck.(pair (array_of_size (Gen.return 5) (float_range (-100.) 100.))
              (array_of_size (Gen.return 5) (float_range (-100.) 100.)))
    (fun (a, b) ->
      Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-9)

let prop_dot_symmetric =
  qcheck "dot is symmetric"
    QCheck.(pair (array_of_size (Gen.return 6) (float_range (-10.) 10.))
              (array_of_size (Gen.return 6) (float_range (-10.) 10.)))
    (fun (a, b) -> Float.abs (Vec.dot a b -. Vec.dot b a) < 1e-12)

let prop_normalize_unit =
  qcheck "normalize yields unit norm"
    QCheck.(array_of_size (Gen.return 4) (float_range 0.1 10.))
    (fun a -> Float.abs (Vec.norm2 (Vec.normalize a) -. 1.0) < 1e-9)

let suite =
  [
    case "create zeros" test_create;
    case "basis vectors" test_basis;
    case "add and sub" test_add_sub;
    case "dimension mismatch raises" test_dim_mismatch;
    case "dot product" test_dot;
    case "scale and axpy" test_scale_axpy;
    case "norms and distance" test_norms;
    case "normalize" test_normalize;
    case "summary statistics" test_stats;
    prop_triangle_inequality;
    prop_dot_symmetric;
    prop_normalize_unit;
  ]

(* RNG and sampler tests. *)

open Sider_rand
open Sider_linalg
open Test_helpers

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_true "same stream" (Float.equal (Rng.float a) (Rng.float b))
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_true "different seeds differ" (not (Float.equal (Rng.float a) (Rng.float b)))

let test_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check_true "split stream differs" (not (Float.equal (Rng.float a) (Rng.float b)))

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check_true "in [0,1)" (x >= 0.0 && x < 1.0)
  done

let test_float_mean () =
  let rng = Rng.create 4 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  approx ~eps:0.01 "uniform mean" 0.5 (!acc /. float_of_int n)

let test_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    check_true "in [0,7)" (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_uniform () =
  let rng = Rng.create 6 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Rng.int rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      approx ~eps:0.02 "each bucket ~1/5" 0.2 (float_of_int c /. float_of_int n))
    counts

let test_normal_moments () =
  let rng = Rng.create 8 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Sampler.normal rng) in
  approx ~eps:0.02 "mean 0" 0.0 (Vec.mean xs);
  approx ~eps:0.03 "variance 1" 1.0 (Vec.variance xs);
  let m2 = central_moment xs 2 in
  approx ~eps:0.05 "skewness 0" 0.0 (central_moment xs 3 /. (m2 ** 1.5));
  approx ~eps:0.1 "kurtosis 0" 0.0 ((central_moment xs 4 /. (m2 *. m2)) -. 3.0)

(* 10⁶ variates through calls of lengths 0 to 997 against the scalar
   polar loop: same bits, and the generators end in the same state. *)
let test_fill_normal_matches_polar () =
  let a = Rng.create 31 and b = Rng.create 31 in
  let total = 1_000_000 in
  let got = Array.create_float total in
  let pos = ref 0 and len = ref 0 in
  while !pos < total do
    let l = Int.min !len (total - !pos) in
    Rng.fill_normal a got ~pos:!pos ~len:l;
    pos := !pos + l;
    len := ((!len * 31) + 7) mod 998
  done;
  check_bits "fill" (Array.init total (fun _ -> polar_normal b)) got;
  Alcotest.(check (float 0.0)) "state after" (Rng.float b) (Rng.float a);
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Rng.fill_normal: range out of bounds") (fun () ->
      Rng.fill_normal a got ~pos:(total - 1) ~len:2)

let test_samplers_match_polar () =
  let a = Rng.create 32 and b = Rng.create 32 in
  let reference k = Array.init k (fun _ -> polar_normal b) in
  check_bits "normal" (reference 1) [| Sampler.normal a |];
  check_bits "normal_vec" (reference 37) (Sampler.normal_vec a 37);
  let m = Sampler.normal_mat a 9 7 in
  check_bits "normal_mat, row-major" (reference 63) m.Mat.a;
  Alcotest.(check (float 0.0)) "state after" (Rng.float b) (Rng.float a)

let test_poisson () =
  let rng = Rng.create 11 in
  let xs =
    Array.init 20_000 (fun _ ->
        float_of_int (Sampler.poisson rng ~lambda:4.0))
  in
  approx ~eps:0.1 "mean" 4.0 (Vec.mean xs);
  approx ~eps:0.25 "variance" 4.0 (Vec.variance xs)

let test_poisson_large_lambda () =
  let rng = Rng.create 12 in
  let xs =
    Array.init 5_000 (fun _ ->
        float_of_int (Sampler.poisson rng ~lambda:1000.0))
  in
  approx ~eps:5.0 "normal-approx mean" 1000.0 (Vec.mean xs)

let test_categorical () =
  let rng = Rng.create 13 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Sampler.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  approx ~eps:0.02 "w=1" 0.1 (float_of_int counts.(0) /. 30_000.0);
  approx ~eps:0.02 "w=2" 0.2 (float_of_int counts.(1) /. 30_000.0);
  approx ~eps:0.02 "w=7" 0.7 (float_of_int counts.(2) /. 30_000.0)

(* The Gamma draws behind [dirichlet], through it: the first component
   of Dirichlet(a, b) is Beta(a, b), with mean a/(a+b) and variance
   ab/((a+b)²(a+b+1)). *)
let test_gamma_moments () =
  let rng = Rng.create 14 in
  let xs =
    Array.init 50_000 (fun _ -> (Sampler.dirichlet rng [| 3.0; 2.0 |]).(0))
  in
  approx ~eps:0.005 "beta mean" 0.6 (Vec.mean xs);
  approx ~eps:0.002 "beta variance" 0.04 (Vec.variance xs)

(* Shapes below 1 take the boosted path. *)
let test_gamma_small_shape () =
  let rng = Rng.create 15 in
  let xs =
    Array.init 50_000 (fun _ -> (Sampler.dirichlet rng [| 0.5; 1.5 |]).(0))
  in
  approx ~eps:0.005 "boosted small-shape mean" 0.25 (Vec.mean xs)

let test_dirichlet () =
  let rng = Rng.create 16 in
  let alpha = [| 2.0; 3.0; 5.0 |] in
  let acc = Array.make 3 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    let theta = Sampler.dirichlet rng alpha in
    approx ~eps:1e-9 "sums to 1" 1.0 (Vec.sum theta);
    Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) theta
  done;
  approx ~eps:0.01 "E[θ1]" 0.2 (acc.(0) /. float_of_int n);
  approx ~eps:0.01 "E[θ3]" 0.5 (acc.(2) /. float_of_int n)

let test_shuffle_permutes () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  Sampler.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check_true "same multiset" (sorted = orig);
  check_true "actually moved" (arr <> orig)

let test_sample_without_replacement () =
  let rng = Rng.create 18 in
  let s = Sampler.sample_without_replacement rng 10 100 in
  check_true "10 draws" (Array.length s = 10);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = ref true in
  for i = 1 to 9 do
    if sorted.(i) = sorted.(i - 1) then distinct := false
  done;
  check_true "distinct" !distinct;
  Array.iter (fun x -> check_true "in range" (x >= 0 && x < 100)) s

let prop_int_within_bound =
  let rng = Rng.create 20 in
  qcheck ~count:100 "Rng.int bound respected" QCheck.(int_range 1 1000)
    (fun b ->
      let x = Rng.int rng b in
      x >= 0 && x < b)

let suite =
  [
    case "determinism" test_determinism;
    case "seed sensitivity" test_seed_sensitivity;
    case "split diverges" test_split_independent;
    case "float in range" test_float_range;
    case "uniform mean" test_float_mean;
    case "int bounds" test_int_bounds;
    case "int uniformity" test_int_uniform;
    case "normal moments" test_normal_moments;
    case "fill_normal is the scalar polar stream" test_fill_normal_matches_polar;
    case "normal samplers are the scalar polar stream" test_samplers_match_polar;
    case "poisson small lambda" test_poisson;
    case "poisson large lambda" test_poisson_large_lambda;
    case "categorical" test_categorical;
    case "gamma moments" test_gamma_moments;
    case "gamma small shape" test_gamma_small_shape;
    case "dirichlet" test_dirichlet;
    case "shuffle permutes" test_shuffle_permutes;
    case "sampling without replacement" test_sample_without_replacement;
    prop_int_within_bound;
  ]

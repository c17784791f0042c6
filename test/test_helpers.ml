(* Shared helpers for the test suites. *)

open Sider_linalg

let approx ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %g)" msg a b eps

(* Componentwise comparisons with an absolute tolerance, and printers
   for their failure messages. *)
let vec_approx_equal ?(eps = 1e-9) (a : Vec.t) (b : Vec.t) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a b

let mat_approx_equal ?(eps = 1e-9) (x : Mat.t) (y : Mat.t) =
  Mat.dims x = Mat.dims y && vec_approx_equal ~eps x.a y.a

let pp_vec fmt v =
  Format.fprintf fmt "[|%s|]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") v)))

let pp_mat fmt (m : Mat.t) =
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "%a@," pp_vec (Mat.row m i)
  done

let norm_inf v = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v

(* The [k]-th central moment of [v] (population: over [n]). *)
let central_moment v k =
  let mu = Vec.mean v in
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := !acc +. ((x -. mu) ** float_of_int k)) v;
  !acc /. float_of_int (Array.length v)

(* The square matrix with diagonal [v]. *)
let diag v =
  let n = Array.length v in
  Mat.init n n (fun i j -> if i = j then v.(i) else 0.0)

(* CSV text through the file reader and writer. *)
let with_temp_file f =
  let path = Filename.temp_file "sider_test" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let csv_of_string ?label_column text =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Sider_data.Csv.read_file ?label_column path)

let csv_to_string ds =
  with_temp_file (fun path ->
      Sider_data.Csv.write_file path ds;
      In_channel.with_open_bin path In_channel.input_all)

(* Isotropic Gaussian blobs: row [c] of [centers] gives [sizes.(c)]
   points with standard deviation [sd], labelled ["c<c>"]. *)
let blobs ~seed ~sd ~centers ~sizes =
  let k, d = Mat.dims centers in
  assert (Array.length sizes = k);
  let n = Array.fold_left ( + ) 0 sizes in
  let rng = Sider_rand.Rng.create seed in
  let m = Mat.create n d in
  let labels = Array.make n "" in
  let r = ref 0 in
  Array.iteri
    (fun c size ->
      let center = Mat.row centers c in
      for _ = 1 to size do
        Mat.set_row m !r
          (Array.init d (fun j ->
               center.(j) +. (sd *. Sider_rand.Sampler.normal rng)));
        labels.(!r) <- Printf.sprintf "c%d" c;
        incr r
      done)
    sizes;
  Sider_data.Dataset.create ~name:"blobs" ~labels
    ~columns:(Array.init d (fun j -> Printf.sprintf "X%d" (j + 1)))
    m

(* Four points whose mean is [(mx, my)] and whose population covariance
   is diag(a, b): the input to an ellipse with known moments. *)
let moment_points (mx, my) a b =
  let sa = sqrt (2.0 *. a) and sb = sqrt (2.0 *. b) in
  [| (mx +. sa, my); (mx -. sa, my); (mx, my +. sb); (mx, my -. sb) |]

(* Whether [(x, y)] lies inside or on the ellipse [e]. *)
let ellipse_contains (e : Sider_stats.Ellipse.t) (x, y) =
  let cx, cy = e.center in
  let proj (ax, ay) = ((x -. cx) *. ax) +. ((y -. cy) *. ay) in
  let term r p =
    if Float.equal r 0.0 then if Float.equal p 0.0 then 0.0 else infinity
    else (p /. r) ** 2.0
  in
  term e.radius1 (proj e.axis1) +. term e.radius2 (proj e.axis2) <= 1.0

let approx_vec ?(eps = 1e-9) msg a b =
  if not (vec_approx_equal ~eps a b) then
    Alcotest.failf "%s: vectors differ:@ %s vs %s" msg
      (Format.asprintf "%a" pp_vec a)
      (Format.asprintf "%a" pp_vec b)

let approx_mat ?(eps = 1e-9) msg a b =
  if not (mat_approx_equal ~eps a b) then
    Alcotest.failf "%s: matrices differ:@ %s@ vs@ %s" msg
      (Format.asprintf "%a" pp_mat a)
      (Format.asprintf "%a" pp_mat b)

(* Uniform in [lo, hi). *)
let uniform rng lo hi = lo +. ((hi -. lo) *. Sider_rand.Rng.float rng)

let check_true msg b = Alcotest.(check bool) msg true b

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* Random symmetric / SPD matrix generators for property tests. *)
let random_sym rng d =
  let m = Sider_rand.Sampler.normal_mat rng d d in
  Mat.symmetrize m

let random_spd rng d =
  let a = Sider_rand.Sampler.normal_mat rng (d + 2) d in
  let g = Mat.matmul (Mat.transpose a) a in
  (* Add a ridge so the matrix is comfortably positive definite. *)
  Mat.init d d (fun i j -> Mat.get g i j +. if i = j then 0.1 else 0.0)

(* Words this domain has allocated so far: every minor allocation
   ([Gc.minor_words]) plus the blocks allocated straight into the major
   heap ([major_words − promoted_words] of [Gc.counters]).  Both are exact
   whatever collections run.  [Gc.allocated_bytes] and the minor field of
   [Gc.counters] are not: on OCaml 5.1 they read minor words as bytes
   until a minor collection runs. *)
let words_so_far () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* The part of [words_so_far] allocated straight into the major heap
   (blocks over 256 words, such as a d×d matrix at d ≥ 16). *)
let major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* [f ()] and the words it allocated, both heaps. *)
let allocated_words f =
  let before = words_so_far () in
  let r = f () in
  (r, int_of_float (words_so_far () -. before))

(* The helper's own check, on allocations of known size: 10,000
   ten-float arrays kept in a list are 14 words each (11 for the array, 3
   for its cons cell), counted once with no minor collection inside the
   window and once with one forced halfway; a 100,000-float array goes
   straight into the major heap.  A count may exceed the known figure
   only by the few words the counter reads allocate. *)
let test_allocated_words () =
  let rec arrays acc k = if k = 0 then acc else arrays (Array.make 10 0.0 :: acc) (k - 1) in
  let check msg expected words =
    if words < expected || words > expected + 64 then
      Alcotest.failf "%s: counted %d words, allocated %d" msg words expected
  in
  Gc.minor ();
  let _, w = allocated_words (fun () -> Sys.opaque_identity (arrays [] 10_000)) in
  check "no collection inside the window" 140_000 w;
  let _, w =
    allocated_words (fun () ->
        let a = arrays [] 5_000 in
        Gc.minor ();
        Sys.opaque_identity (arrays a 5_000))
  in
  check "a collection inside the window" 140_000 w;
  let _, w = allocated_words (fun () -> Sys.opaque_identity (Array.make 100_000 0.0)) in
  check "straight into the major heap" 100_001 w

(* The first dataset of the projection_reads benchmark workload. *)
let reads_dataset () = Sider_data.Synth.clustered ~seed:7919 ~n:1024 ~d:16 ~k:8 ()

(* Runs [f] with [sink] as the telemetry sink ([None]: none), then puts
   back the sink [SIDER_TRACE] names, as the suite started with it, so
   the tests after this one run traced when the environment asks. *)
let with_sink sink f =
  Sider_obs.Obs.set_sink sink;
  Fun.protect
    ~finally:(fun () ->
      Sider_obs.Obs.set_sink None;
      Sider_obs.Obs.install_from_env ())
    f

let qcheck ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Reference normal generator for the bit-identity tests: the scalar
   polar Box–Muller loop, one variate per call through [Rng.float], the
   partner discarded.  [Rng.fill_normal] must give the same stream. *)
let rec polar_normal rng =
  let u = (2.0 *. Sider_rand.Rng.float rng) -. 1.0 in
  let v = (2.0 *. Sider_rand.Rng.float rng) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then polar_normal rng
  else u *. sqrt (-2.0 *. log s /. s)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Fails on the first entry whose bits differ. *)
let check_bits msg expected got =
  if Array.length expected <> Array.length got then
    Alcotest.failf "%s: length %d, expected %d" msg (Array.length got)
      (Array.length expected);
  Array.iteri
    (fun i e ->
      if not (same_bits e got.(i)) then
        Alcotest.failf "%s: entry %d is %h, expected %h" msg i got.(i) e)
    expected

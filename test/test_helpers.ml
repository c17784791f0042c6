(* Shared helpers for the test suites. *)

open Sider_linalg

let approx ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %g)" msg a b eps

let approx_vec ?(eps = 1e-9) msg a b =
  if not (Vec.approx_equal ~eps a b) then
    Alcotest.failf "%s: vectors differ:@ %s vs %s" msg
      (Format.asprintf "%a" Vec.pp a)
      (Format.asprintf "%a" Vec.pp b)

let approx_mat ?(eps = 1e-9) msg a b =
  if not (Mat.approx_equal ~eps a b) then
    Alcotest.failf "%s: matrices differ:@ %s@ vs@ %s" msg
      (Format.asprintf "%a" Mat.pp a)
      (Format.asprintf "%a" Mat.pp b)

let check_true msg b = Alcotest.(check bool) msg true b

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* Random symmetric / SPD matrix generators for property tests. *)
let random_sym rng d =
  let m = Sider_rand.Sampler.normal_mat rng d d in
  Mat.symmetrize m

let random_spd rng d =
  let a = Sider_rand.Sampler.normal_mat rng (d + 2) d in
  let g = Mat.gram a in
  (* Add a ridge so the matrix is comfortably positive definite. *)
  Mat.add g (Mat.scale 0.1 (Mat.identity d))

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

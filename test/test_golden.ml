(* Golden-fixture tests: whitened-Y and PCA/ICA projections of a
   fixed-seed synthetic dataset, recorded under test/golden/ as JSON and
   compared with a tolerance-aware comparator.  Numeric refactors that
   move the pipeline's output by more than [tolerance] fail here with the
   worst offending entry; intentional changes are promoted by rerunning
   with GOLDEN_UPDATE=1, which rewrites the fixtures in the source tree:

     GOLDEN_UPDATE=1 dune runtest *)

open Test_helpers
open Sider_linalg
open Sider_data
open Sider_maxent
open Sider_projection

let tolerance = 1e-6

(* Rewriting the fixtures is a deliberate, whole-run choice made from
   the shell, not a setting any test can pass in. *)
let[@sider.allow "determinism"] update_mode () =
  Sys.getenv_opt "GOLDEN_UPDATE" = Some "1"

(* Updates must land in the source tree, not the _build sandbox, so the
   directory is located by probing for this file: `dune runtest` runs
   from _build/default/test (three levels below the root), `dune exec`
   from wherever it was invoked.  GOLDEN_DIR overrides both; where the
   fixtures live is the caller's choice, as for GOLDEN_UPDATE. *)
let[@sider.allow "determinism"] golden_dir () =
  match Sys.getenv_opt "GOLDEN_DIR" with
  | Some d -> d
  | None -> (
    let marker d = Sys.file_exists (Filename.concat d "test_golden.ml") in
    match List.find_opt marker [ "../../../test"; "test"; "." ] with
    | Some d -> Filename.concat d "golden"
    | None -> "golden")

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* --- JSON codecs ---------------------------------------------------------- *)

let mat_to_json m =
  let n, d = Mat.dims m in
  let flat = Array.init (n * d) (fun i -> Mat.get m (i / d) (i mod d)) in
  Json.Obj
    [ ("rows", Json.Number (float_of_int n));
      ("cols", Json.Number (float_of_int d));
      ("data", Json.floats flat) ]

let mat_of_json j =
  let n = Json.to_int (Json.member "rows" j) in
  let d = Json.to_int (Json.member "cols" j) in
  let flat = Json.to_floats (Json.member "data" j) in
  if Array.length flat <> n * d then
    Alcotest.failf "golden matrix: %d values for a %dx%d shape"
      (Array.length flat) n d;
  Mat.init n d (fun i k -> flat.((i * d) + k))

(* --- tolerance-aware comparators ------------------------------------------ *)

let check_close_vec msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d vs %d" msg (Array.length expected)
      (Array.length actual);
  let worst = ref 0.0 and at = ref 0 in
  Array.iteri
    (fun i e ->
      let d = Float.abs (e -. actual.(i)) in
      if d > !worst then begin
        worst := d;
        at := i
      end)
    expected;
  if !worst > tolerance then
    Alcotest.failf
      "%s: max |diff| %.3g at index %d (expected %.12g, got %.12g, \
       tolerance %g)"
      msg !worst !at expected.(!at) actual.(!at) tolerance

let check_close_mat msg expected actual =
  if Mat.dims expected <> Mat.dims actual then begin
    let en, ed = Mat.dims expected and an, ad = Mat.dims actual in
    Alcotest.failf "%s: shape %dx%d vs %dx%d" msg en ed an ad
  end;
  let n, d = Mat.dims expected in
  let worst = ref 0.0 and at = ref (0, 0) in
  for i = 0 to n - 1 do
    for k = 0 to d - 1 do
      let diff = Float.abs (Mat.get expected i k -. Mat.get actual i k) in
      if diff > !worst then begin
        worst := diff;
        at := (i, k)
      end
    done
  done;
  if !worst > tolerance then begin
    let i, k = !at in
    Alcotest.failf
      "%s: max |diff| %.3g at (%d,%d) (expected %.12g, got %.12g, \
       tolerance %g)"
      msg !worst i k
      (Mat.get expected i k)
      (Mat.get actual i k)
      tolerance
  end

(* Projection axes are defined up to sign; fix the sign so the largest-
   magnitude component is positive, on both sides of the comparison. *)
let canonical_sign v =
  let lead = ref 0 in
  Array.iteri
    (fun i x -> if Float.abs x > Float.abs v.(!lead) then lead := i)
    v;
  if Array.length v > 0 && v.(!lead) < 0.0 then Array.map Float.neg v
  else Array.copy v

(* --- the fixed-seed pipeline ---------------------------------------------- *)

(* The fixed-seed dataset whitened against a background that knows its
   column margins and, with [~clusters:true], its three clusters. *)
let whiten_fixture ~clusters =
  let ds = Synth.clustered ~seed:11 ~n:120 ~d:6 ~k:3 () in
  let data = Dataset.matrix ds in
  let constraints =
    Constr.margin data
    @
    if clusters then
      List.concat_map
        (fun cls -> Constr.cluster ~data ~rows:(Dataset.class_indices ds cls) ())
        (Dataset.classes ds)
    else []
  in
  let solver = Solver.create data constraints in
  let report = Solver.solve ~max_sweeps:60 solver in
  check_true "fixture solver produced a finite state" (report.Solver.sweeps > 0);
  Whiten.whiten solver

(* Computed once: the whitened-Y and PCA fixtures share it. *)
let fixture_whitened = lazy (whiten_fixture ~clusters:true)

let run_fixture ~file ~compute ~check =
  let path = Filename.concat (golden_dir ()) file in
  let actual = compute () in
  if update_mode () then begin
    write_file path (Json.to_string actual ^ "\n");
    Printf.printf "[golden] regenerated %s\n%!" path
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "missing golden fixture %s — generate it with GOLDEN_UPDATE=1 dune \
       runtest"
      path
  else check (Json.of_string (read_file path)) actual

let test_whitened_y () =
  run_fixture ~file:"whiten_y.json"
    ~compute:(fun () -> mat_to_json (Lazy.force fixture_whitened))
    ~check:(fun expected actual ->
      check_close_mat "whitened Y" (mat_of_json expected)
        (mat_of_json actual))

let axes_to_json ~score_key (a1, s1) (a2, s2) =
  Json.Obj
    [ ("axis1", Json.floats (canonical_sign a1));
      ("axis2", Json.floats (canonical_sign a2));
      (score_key, Json.floats [| s1; s2 |]) ]

let check_axes ~score_key msg expected actual =
  let part key j = Json.to_floats (Json.member key j) in
  check_close_vec (msg ^ ": axis1") (part "axis1" expected)
    (part "axis1" actual);
  check_close_vec (msg ^ ": axis2") (part "axis2" expected)
    (part "axis2" actual);
  check_close_vec (msg ^ ": " ^ score_key)
    (part score_key expected) (part score_key actual)

let test_pca_projection () =
  run_fixture ~file:"pca.json"
    ~compute:(fun () ->
      let y = Lazy.force fixture_whitened in
      let fitted = Pca.fit y in
      let w1, w2 = Pca.top2 fitted in
      axes_to_json ~score_key:"gains" (w1, fitted.Pca.gains.(0))
        (w2, fitted.Pca.gains.(1)))
    ~check:(fun expected actual ->
      check_axes ~score_key:"gains" "PCA" expected actual)

let test_ica_projection () =
  (* Pinned to the portable kernel: its results are bit-identical on
     every CPU, so the fixture never needs per-machine variants.  (The
     SIMD kernel is deterministic too, but its tanh differs from libm by
     ~1e-15, and FastICA's tol = 1e-4 resolves the directions only to
     about 3e-3, far coarser than this file's 1e-6.  SIMD correctness is
     pinned by test_projection's closeness tests and its bit-for-bit
     model of the AVX2 arithmetic instead.) *)
  Ica_kernel.with_portable @@ fun () ->
  run_fixture ~file:"ica.json"
    ~compute:(fun () ->
      (* Margin-only whitening: the three clusters are still unexplained,
         so there is a distinguished pair and seed 1's first fit
         converges.  Against the fully constrained background every
         |score| sits inside the null spread and no fit converges, so the
         view would pin an arbitrary non-converged pair. *)
      let y = whiten_fixture ~clusters:false in
      let view =
        View.of_whitened ~rng:(Sider_rand.Rng.create 1) ~method_:View.Ica y
      in
      check_true "fixture ICA did not degrade" (view.View.degraded = None);
      axes_to_json ~score_key:"scores"
        (view.View.axis1.View.direction, view.View.axis1.View.score)
        (view.View.axis2.View.direction, view.View.axis2.View.score))
    ~check:(fun expected actual ->
      check_axes ~score_key:"scores" "ICA" expected actual)

(* The sweep's byte-identity contract, pinned down to the bit: the
   portable kernel's gz/eg must match both the three-pass
   pipeline (live, every run) and the recorded fixture (cross-version).
   The input is seeded standard-normal data of
   the whitened fixture's shape, so the pin covers the sweep alone, not
   the solver, eigensolver and whitening upstream of it. *)
let test_ica_kernel_bits () =
  run_fixture ~file:"ica_kernel_bits.json"
    ~compute:(fun () ->
      let y = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 11) 120 6 in
      let _, m = Mat.dims y in
      let w = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 2) m m in
      let gz_u, eg_u = Test_projection.unfused_sweep y w in
      let gz_f, eg_f =
        Test_projection.kernel_sweep (Test_projection.portable_kernel y) y w
      in
      let hex v = Printf.sprintf "%016Lx" (Int64.bits_of_float v) in
      let bits_of_arr a =
        Json.List (Array.to_list (Array.map (fun v -> Json.String (hex v)) a))
      in
      check_true "portable gz bit-identical to unfused"
        (Array.for_all2 Int64.equal
           (Array.map Int64.bits_of_float gz_u.Mat.a)
           (Array.map Int64.bits_of_float gz_f.Mat.a));
      check_true "portable eg bit-identical to unfused"
        (Array.for_all2 Int64.equal
           (Array.map Int64.bits_of_float eg_u)
           (Array.map Int64.bits_of_float eg_f));
      Json.Obj
        [ (* The tag the fixture was recorded under. *)
          ("kernel", Json.String "reference");
          ("gz_bits", bits_of_arr gz_f.Mat.a);
          ("eg_bits", bits_of_arr eg_f) ])
    ~check:(fun expected actual ->
      let strs key j = List.map Json.to_str (Json.to_list (Json.member key j)) in
      List.iter
        (fun key ->
          if strs key expected <> strs key actual then
            Alcotest.failf "ica kernel bits drifted in %s" key)
        [ "gz_bits"; "eg_bits" ])

(* --- on-disk compatibility --------------------------------------------------- *)

(* Files an earlier build wrote, kept byte for byte to pin the format: a
   journal compacted after 4 events (its header carries [base] 4 and its
   sibling compat.snapshot holds those events), followed by 4 more event
   lines; and compat_final.json, the snapshot that build saved of the
   final state.  The dataset name, column names, labels and tags need
   JSON escapes, and the data holds -0, integers either side of 1e15 and
   subnormals.  Never regenerated, unlike the fixtures above. *)
let test_compat_journal () =
  let open Sider_core in
  let dir = golden_dir () in
  let journal = Filename.concat dir "compat.journal" in
  let final = Filename.concat dir "compat_final.json" in
  let error e = Alcotest.failf "%s" (Sider_robust.Sider_error.to_string e) in
  let header =
    Json.of_string (List.hd (String.split_on_char '\n' (read_file journal)))
  in
  check_true "the journal header records the compaction base"
    (Json.member "base" header = Json.Number 4.0);
  (match Persist.load_result (Persist.snapshot_path journal) with
   | Ok snap ->
     check_true "the sibling snapshot holds the 4 compacted events"
       (List.length (Session.history snap) = 4)
   | Error e -> error e);
  let s =
    match Persist.journal_load journal with
    | Ok (s, applied) ->
      check_true "8 events restored" (applied = 8);
      s
    | Error e -> error e
  in
  check_true "constraints" (Session.n_constraints s = 22);
  Alcotest.(check (pair string string)) "axis labels"
    ( "PCA1[0.064] = +0.83 (a \"quoted\" col) +0.54 (ctl\001\127 \195\169) \
       +0.16 (back\\slash\ttab)",
      "PCA2[0.011] = +0.74 (back\\slash\ttab) +0.49 (ctl\001\127 \195\169) \
       -0.46 (a \"quoted\" col)" )
    (Session.axis_labels s);
  let sx, sy = Session.view_scores s in
  check_close_vec "view scores" [| 0x1.081dd4b10fe9p-4; 0x1.600823ce6bccp-7 |]
    [| sx; sy |];
  (* Saved today, the replayed state gives the earlier build's bytes,
     checksum included. *)
  let path = Filename.temp_file "sider_compat" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save path s;
      Alcotest.(check string) "final snapshot bytes" (read_file final)
        (read_file path);
      (match Persist.load_result final with
       | Ok back ->
         check_true "final snapshot replays"
           (Session.history back = Session.history s)
       | Error e -> error e);
      (* The checksum is verified, not just present: one changed digit
         of the data is refused. *)
      let text = read_file final in
      let at = String.length text - 200 in
      let digit = String.index_from text at '3' in
      write_file path
        (String.mapi (fun i c -> if i = digit then '4' else c) text);
      match Persist.load_result path with
      | Error (Sider_robust.Sider_error.Degenerate_data _) -> ()
      | Error e -> error e
      | Ok _ -> Alcotest.fail "a corrupted snapshot loaded")

let suite =
  [
    case "whitened Y matches the recorded fixture" test_whitened_y;
    case "PCA projection matches the recorded fixture" test_pca_projection;
    case "ICA projection matches the recorded fixture" test_ica_projection;
    case "fused ICA sweep is byte-identical to the unfused pipeline"
      test_ica_kernel_bits;
    case "journal, snapshot and final state written by an earlier build"
      test_compat_journal;
  ]

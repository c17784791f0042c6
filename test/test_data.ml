(* Dataset, CSV, and synthetic generators. *)

open Sider_linalg
open Sider_data
open Test_helpers

(* --- Dataset ----------------------------------------------------------------- *)

let sample_ds () =
  Dataset.create ~name:"t" ~labels:[| "a"; "b"; "a" |]
    ~columns:[| "c1"; "c2" |]
    (Mat.of_arrays [| [| 1.0; 10.0 |]; [| 2.0; 20.0 |]; [| 3.0; 30.0 |] |])

let test_dataset_basic () =
  let ds = sample_ds () in
  approx "rows" 3.0 (float_of_int (Dataset.n_rows ds));
  approx "cols" 2.0 (float_of_int (Dataset.n_cols ds));
  check_true "classes" (Dataset.classes ds = [ "a"; "b" ]);
  check_true "class indices" (Dataset.class_indices ds "a" = [| 0; 2 |])

let test_dataset_validation () =
  Alcotest.check_raises "bad columns"
    (Invalid_argument "Dataset.create: column-name count does not match width")
    (fun () ->
      ignore (Dataset.create ~columns:[| "a" |] (Mat.identity 2)));
  Alcotest.check_raises "bad labels"
    (Invalid_argument "Dataset.create: label count does not match rows")
    (fun () ->
      ignore
        (Dataset.create ~labels:[| "x" |] ~columns:[| "a"; "b" |]
           (Mat.identity 2)))

let test_dataset_standardized () =
  let ds = Dataset.standardized (sample_ds ()) in
  let m = Dataset.matrix ds in
  approx_vec ~eps:1e-12 "means 0" [| 0.0; 0.0 |] (Mat.col_means m);
  approx_vec ~eps:1e-12 "vars 1" [| 1.0; 1.0 |] (Mat.col_variances m)

let test_dataset_standardized_constant () =
  let ds =
    Dataset.create ~columns:[| "k" |]
      (Mat.of_arrays [| [| 5.0 |]; [| 5.0 |] |])
  in
  let m = Dataset.matrix (Dataset.standardized ds) in
  approx "constant centered" 0.0 (Mat.get m 0 0)

(* --- CSV --------------------------------------------------------------------- *)

(* Fields are split on commas outside double quotes; [""] inside quotes
   is one quote; an empty last field is a field. *)
let test_csv_parse_line () =
  let ds =
    csv_of_string ~label_column:"k"
      "a,\"b,c\",k\r\n1,2,\"he said \"\"hi\"\"\"\n3,4,\n"
  in
  check_true "quoted comma" (Dataset.columns ds = [| "a"; "b,c" |]);
  check_true "escaped quote, trailing empty"
    (Dataset.labels ds = Some [| {|he said "hi"|}; "" |]);
  approx "values" 4.0 (Mat.get (Dataset.matrix ds) 1 1)

let test_csv_roundtrip () =
  let ds = sample_ds () in
  let text = csv_to_string ds in
  let back = csv_of_string ~label_column:"class" text in
  approx_mat ~eps:1e-12 "matrix roundtrip" (Dataset.matrix ds)
    (Dataset.matrix back);
  check_true "labels roundtrip" (Dataset.labels back = Dataset.labels ds);
  check_true "columns roundtrip" (Dataset.columns back = Dataset.columns ds)

let test_csv_file_roundtrip () =
  let ds = Synth.three_d ~seed:4 () in
  let path = Filename.temp_file "sider_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path ds;
      let back = Csv.read_file ~label_column:"class" path in
      approx_mat ~eps:1e-12 "file roundtrip" (Dataset.matrix ds)
        (Dataset.matrix back);
      check_true "labels" (Dataset.labels back = Dataset.labels ds))

let test_csv_errors () =
  (try
     ignore (csv_of_string "a,b\n1,notanumber");
     Alcotest.fail "expected failure"
   with Sider_robust.Sider_error.Error e ->
     let msg = Sider_robust.Sider_error.to_string e in
     let contains sub =
       let n = String.length sub in
       let found = ref false in
       for i = 0 to String.length msg - n do
         if String.sub msg i n = sub then found := true
       done;
       !found
     in
     check_true "line number in error" (contains "line 2");
     check_true "column name in error" (contains "column \"b\""));
  (try
     ignore (csv_of_string ~label_column:"missing" "a,b\n1,2");
     Alcotest.fail "expected failure"
   with Failure _ -> ())

let test_csv_ragged () =
  try
    ignore (csv_of_string "a,b\n1,2,3");
    Alcotest.fail "expected failure"
  with Failure msg -> check_true "field count error" (String.length msg > 0)

(* --- Synth --------------------------------------------------------------------- *)

let test_three_d () =
  let ds = Synth.three_d () in
  approx "150 points" 150.0 (float_of_int (Dataset.n_rows ds));
  approx "3 dims" 3.0 (float_of_int (Dataset.n_cols ds));
  check_true "4 classes" (List.length (Dataset.classes ds) = 4);
  approx "A has 50" 50.0 (float_of_int (Array.length (Dataset.class_indices ds "A")));
  approx "C has 25" 25.0 (float_of_int (Array.length (Dataset.class_indices ds "C")));
  (* C and D share their location in dims 1-2 and differ along dim 3. *)
  let mean_of cls j =
    let idx = Dataset.class_indices ds cls in
    Vec.mean (Array.map (fun i -> Mat.get (Dataset.matrix ds) i j) idx)
  in
  approx ~eps:0.15 "C≈D in X1" (mean_of "C" 0) (mean_of "D" 0);
  approx ~eps:0.15 "C≈D in X2" (mean_of "C" 1) (mean_of "D" 1);
  check_true "C above D in X3" (mean_of "C" 2 > mean_of "D" 2 +. 0.5)

let test_x5 () =
  let { Synth.data; group13; group45 } = Synth.x5 ~seed:9 () in
  approx "1000 points" 1000.0 (float_of_int (Dataset.n_rows data));
  approx "5 dims" 5.0 (float_of_int (Dataset.n_cols data));
  check_true "groups sized" (Array.length group13 = 1000 && Array.length group45 = 1000);
  (* Every A-point belongs to G; B/C/D points are mostly E/F. *)
  let in_ef = ref 0 and bcd = ref 0 in
  Array.iteri
    (fun i g13 ->
      if String.equal g13 "A" then
        check_true "A implies G" (String.equal group45.(i) "G")
      else begin
        incr bcd;
        if group45.(i) = "E" || group45.(i) = "F" then incr in_ef
      end)
    group13;
  let frac = float_of_int !in_ef /. float_of_int !bcd in
  approx ~eps:0.05 "75% coupling" 0.75 frac

let test_x5_overlap_property () =
  (* In the (X1,X2) axis projection cluster A must coincide with D (both
     centered at the origin there). *)
  let { Synth.data; group13; _ } = Synth.x5 ~seed:9 () in
  let m = Dataset.matrix data in
  let mean_of g j =
    let acc = ref 0.0 and n = ref 0 in
    Array.iteri
      (fun i x ->
        if String.equal x g then begin
          acc := !acc +. Mat.get m i j;
          incr n
        end)
      group13;
    !acc /. float_of_int !n
  in
  approx ~eps:0.1 "A=D in X1" (mean_of "A" 0) (mean_of "D" 0);
  approx ~eps:0.1 "A=D in X2" (mean_of "A" 1) (mean_of "D" 1);
  check_true "A≠D in X3" (Float.abs (mean_of "A" 2 -. mean_of "D" 2) > 1.0)

let test_clustered () =
  let ds = Synth.clustered ~seed:2 ~n:200 ~d:8 ~k:4 () in
  approx "n" 200.0 (float_of_int (Dataset.n_rows ds));
  approx "d" 8.0 (float_of_int (Dataset.n_cols ds));
  check_true "k classes" (List.length (Dataset.classes ds) = 4);
  (* Points of a cluster concentrate around their centroid: within-cluster
     sd should be ~0.5, far smaller than the overall spread. *)
  let m = Dataset.matrix ds in
  let idx = Dataset.class_indices ds "c0" in
  let sub = Mat.select_rows m idx in
  let within = Vec.mean (Mat.col_variances sub) in
  let overall = Vec.mean (Mat.col_variances m) in
  check_true "clusters are tight" (within < overall /. 2.0)

let test_adversarial () =
  let ds = Synth.adversarial () in
  approx_mat "exact Eq. 11"
    (Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |])
    (Dataset.matrix ds)

let test_gaussian_null () =
  let ds = Synth.gaussian ~seed:3 ~n:5000 ~d:3 () in
  let m = Dataset.matrix ds in
  approx_vec ~eps:0.06 "means 0" [| 0.0; 0.0; 0.0 |] (Mat.col_means m);
  approx_vec ~eps:0.1 "vars 1" [| 1.0; 1.0; 1.0 |] (Mat.col_variances m)

let test_generators_deterministic () =
  let a = Synth.x5 ~seed:5 () and b = Synth.x5 ~seed:5 () in
  approx_mat "same seed, same data" (Dataset.matrix a.Synth.data)
    (Dataset.matrix b.Synth.data);
  let c = Synth.x5 ~seed:6 () in
  check_true "different seed differs"
    (not (mat_approx_equal (Dataset.matrix a.Synth.data)
            (Dataset.matrix c.Synth.data)))

(* --- Corpus / Segmentation -------------------------------------------------------- *)

let test_corpus_shape () =
  let ds = Corpus.generate ~seed:1 () in
  approx "1335 documents" 1335.0 (float_of_int (Dataset.n_rows ds));
  approx "100 words" 100.0 (float_of_int (Dataset.n_cols ds));
  check_true "4 genres" (List.length (Dataset.classes ds) = 4);
  approx "conversation count" 153.0
    (float_of_int
       (Array.length (Dataset.class_indices ds "transcribed conversations")));
  (* Counts are non-negative and roughly sum to the document length. *)
  let m = Dataset.matrix ds in
  check_true "non-negative counts"
    (Array.for_all (fun x -> x >= 0.0) (Mat.row m 0));
  approx ~eps:200.0 "≈2000 tokens" 2000.0 (Vec.sum (Mat.row m 0))

let test_corpus_genre_separation () =
  (* Conversations use the filler block (words 0-9) far more than academic
     prose — the property the Fig. 7 use case needs. *)
  let ds = Corpus.generate ~seed:1 () in
  let m = Dataset.matrix ds in
  let mean_block cls =
    let idx = Dataset.class_indices ds cls in
    let acc = ref 0.0 in
    Array.iter
      (fun i ->
        for j = 0 to 9 do
          acc := !acc +. Mat.get m i j
        done)
      idx;
    !acc /. float_of_int (Array.length idx)
  in
  check_true "speech uses fillers"
    (mean_block "transcribed conversations" > 2.0 *. mean_block "academic prose")

let test_segmentation_shape () =
  let ds = Segmentation.generate ~seed:1 () in
  approx "2310 rows" 2310.0 (float_of_int (Dataset.n_rows ds));
  approx "19 attrs" 19.0 (float_of_int (Dataset.n_cols ds));
  check_true "7 classes" (List.length (Dataset.classes ds) = 7);
  approx "330 each" 330.0
    (float_of_int (Array.length (Dataset.class_indices ds "sky")))

let test_segmentation_collinear () =
  (* The generator must produce strongly collinear attributes so that the
     standardized covariance has both huge and tiny eigenvalues — the
     Fig. 9a scale-mismatch precondition. *)
  let ds = Dataset.standardized (Segmentation.generate ~seed:1 ()) in
  let cov = Mat.covariance (Dataset.matrix ds) in
  let { Eigen.values; _ } = Eigen.symmetric cov in
  check_true "leading eigenvalue > 3" (values.(0) > 3.0);
  check_true "trailing eigenvalue < 0.05" (values.(18) < 0.05)

let test_segmentation_sky_far () =
  let ds = Dataset.standardized (Segmentation.generate ~seed:1 ()) in
  let m = Dataset.matrix ds in
  let centroid cls =
    Mat.col_means (Mat.select_rows m (Dataset.class_indices ds cls))
  in
  let sky = centroid "sky" and window = centroid "window" in
  let cement = centroid "cement" in
  check_true "sky far from centre cluster"
    (Vec.dist2 sky window > 3.0 *. Vec.dist2 cement window)

(* --- JSON string escaping -------------------------------------------------- *)

(* Arbitrary byte strings: the full 0–255 char range, so the generator
   hits the control characters escape_into turns into \uXXXX, the
   quote/backslash/\n\r\t short escapes, and high (non-ASCII) bytes the
   printer passes through raw. *)
let arbitrary_bytes =
  QCheck.string_gen_of_size QCheck.Gen.(0 -- 64)
    QCheck.Gen.(map Char.chr (int_bound 255))

let test_json_string_roundtrip =
  qcheck ~count:500 "json string escaping round-trips any bytes"
    arbitrary_bytes
    (fun s ->
      match Json.of_string (Json.to_string (Json.String s)) with
      | Json.String s' -> String.equal s s'
      | _ -> false)

let test_json_key_roundtrip =
  qcheck ~count:500 "json object keys escape-round-trip any bytes"
    arbitrary_bytes
    (fun s ->
      match Json.of_string (Json.to_string (Json.Obj [ (s, Json.Bool true) ]))
      with
      | Json.Obj [ (s', Json.Bool true) ] -> String.equal s s'
      | _ -> false)

(* --- JSON number text ------------------------------------------------------ *)

(* The codec prints numbers itself and reads them itself whenever it can
   prove the result; the oracles here are the C library it must agree
   with byte for byte ([%.17g]) and bit for bit ([float_of_string_opt],
   which reads through [strtod]). *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let printf_oracle x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* [Json.of_string s] reads a bare number exactly as [float_of_string_opt]
   does: the same floats, bit for bit, and the same rejections. *)
let parses_like_libc s =
  match (Json.of_string s, float_of_string_opt s) with
  | Json.Number x, Some y -> same_bits x y
  | _ -> false
  | exception Json.Parse_error _ -> float_of_string_opt s = None

(* Prints as [%.17g], and the printed text reads back as the C library
   reads it, which is [x] itself. *)
let prints_like_libc x =
  let s = Json.to_string (Json.Number x) in
  s = printf_oracle x
  && ((not (Float.is_finite x)) || (parses_like_libc s && same_bits (float_of_string s) x))

let test_json_numbers_random_bits =
  qcheck ~count:100_000 "json numbers print as %.17g and read as strtod"
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(map Int64.float_of_bits ui64))
    prints_like_libc

(* The writer's unboxed forms print what [to_string] prints: an integer
   as [Number (float_of_int i)], on both sides of 10^15, and a float read
   in place as [Number x]. *)
let test_json_writer_unboxed_forms =
  let edge =
    [ 0; 1; -1; 999_999_999_999_999; -999_999_999_999_999;
      1_000_000_000_000_000; -1_000_000_000_000_000; max_int; min_int ]
  in
  qcheck ~count:20_000 "json write_int and write_number_at print as to_string"
    (QCheck.make
       QCheck.Gen.(
         pair
           (oneof
              [ int; oneofl edge; int_range (-1000) 1000;
                int_range (-2_000_000_000_000_000) 2_000_000_000_000_000 ])
           (map Int64.float_of_bits ui64)))
    (fun (i, x) ->
      let w = Json.writer 16 in
      Json.write_int w i;
      let int_text = Json.contents w in
      Json.clear w;
      Json.write_number_at w [| 0.0; x |] 1;
      String.equal int_text (Json.to_string (Json.Number (float_of_int i)))
      && String.equal (Json.contents w) (Json.to_string (Json.Number x)))

let test_json_numbers_edge_values () =
  let check x =
    if not (prints_like_libc x) then
      Alcotest.failf "%h: printed %s, %%.17g gives %s" x
        (Json.to_string (Json.Number x)) (printf_oracle x)
  in
  let both x =
    check x;
    check (-.x)
  in
  for k = -330 to 310 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    List.iter both [ Float.pred p; p; Float.succ p ]
  done;
  List.iter both
    [ 0.0; 1e15 -. 1.0; 1e15 -. 0.5; 1e15; 1e15 +. 0.5; 1e15 +. 1.0;
      1e15 +. 2.0; 0x1p53 -. 1.0; 0x1p53; 0x1p53 +. 2.0; 0x1p54 +. 4.0;
      5e-324; 1e-320; Float.pred Float.min_float; Float.min_float;
      Float.max_float; Float.pred Float.max_float; 0x1p-25; 0.1; 1e23 ];
  check Float.infinity;
  check Float.nan;
  Alcotest.(check string) "-0 keeps its sign" "-0" (Json.to_string (Json.Number (-0.0)));
  (* Rounding midpoints (2^53 + 1, 2^53 + 3, 2^54 + 2, 10^23); decimals
     within 2^-36 ulp of a midpoint, found from continued fractions,
     which the double-double product alone rounds the wrong way; the
     lenient forms, signed zeros and overflows. *)
  List.iter
    (fun s -> if not (parses_like_libc s) then Alcotest.failf "reading %S" s)
    [ "9007199254740993"; "9007199254740995"; "18014398509481986"; "1e23";
      "-9007199254740993e-10"; "564798908373892837e25";
      "558247174998851720e26"; "179732481403757045e27";
      "150189545086375780e-80"; "249254610159347845e-80";
      "120151636069100624e-79"; "+1"; ".5"; "1."; "-0"; "-0.0e5"; "00012";
      "1e999"; "-1e-999"; "4.9406564584124654e-324"; "8.5e-400" ]

(* Decimal text of every shape the reader might see: 1–25 digits with
   leading zeros, a point anywhere (or none), exponents up to ±400 in
   each spelling, and each sign. *)
let decimal_text =
  let open QCheck.Gen in
  let digits = string_size ~gen:(map Char.chr (int_range 48 57)) (int_range 1 25) in
  let point s =
    map (fun p ->
        match p with
        | None -> s
        | Some p ->
          let p = p mod (String.length s + 1) in
          String.sub s 0 p ^ "." ^ String.sub s p (String.length s - p))
      (opt (int_bound 25))
  in
  let exponent =
    oneof
      [ return "";
        map3
          (fun e s x -> e ^ s ^ string_of_int x)
          (oneofl [ "e"; "E" ]) (oneofl [ ""; "+"; "-" ]) (int_bound 400) ]
  in
  map3 (fun sign body e -> sign ^ body ^ e)
    (oneofl [ ""; "-"; "+" ]) (digits >>= point) exponent

let test_json_numbers_random_decimals =
  qcheck ~count:20_000 "json reads decimal text as float_of_string_opt"
    (QCheck.make ~print:Fun.id decimal_text)
    parses_like_libc

(* Beyond 2^53 a float no longer names one integer, and int_of_float of
   1e19 is 0 on x86-64: such numbers are refused, not wrapped. *)
let test_json_to_int_range () =
  Alcotest.(check int) "2^53" (1 lsl 53) (Json.to_int (Json.Number 0x1p53));
  Alcotest.(check int) "-2^53" (-(1 lsl 53)) (Json.to_int (Json.Number (-0x1p53)));
  List.iter
    (fun x ->
      match Json.to_int (Json.Number x) with
      | n -> Alcotest.failf "%g read as %d" x n
      | exception Invalid_argument _ -> ())
    [ 0x1p53 +. 2.0; 1e19; -1e19; 1e300; 0.5 ]

(* Each level of nesting is one recursive call: past 512 the parser
   stops with a parse error instead of growing the stack. *)
let test_json_depth_bound () =
  let nest n = String.make n '[' ^ String.make n ']' in
  check_true "512 levels read" (Json.of_string (nest 512) <> Json.Null);
  List.iter
    (fun (label, text) ->
      match Json.of_string text with
      | exception Json.Parse_error msg ->
        Alcotest.(check string) label "nesting deeper than 512 at position 512" msg
      | _ -> Alcotest.failf "%s: accepted" label)
    [ ("513 arrays", nest 513);
      ("an object below 512 arrays", String.make 512 '[' ^ "{}");
      ("unclosed megabyte", String.make (1 lsl 20) '[') ];
  let obj = String.concat "" (List.init 600 (fun _ -> {|{"a":|})) in
  match Json.of_string obj with
  | exception Json.Parse_error msg ->
    Alcotest.(check string) "nested objects"
      "nesting deeper than 512 at position 2560" msg
  | _ -> Alcotest.fail "nested objects accepted"

let suite =
  [
    case "dataset basics" test_dataset_basic;
    case "dataset validation" test_dataset_validation;
    case "dataset standardization" test_dataset_standardized;
    case "constant column standardization" test_dataset_standardized_constant;
    case "csv line parsing" test_csv_parse_line;
    case "csv string roundtrip" test_csv_roundtrip;
    case "csv file roundtrip" test_csv_file_roundtrip;
    case "csv error messages" test_csv_errors;
    case "csv ragged rows" test_csv_ragged;
    case "three_d generator" test_three_d;
    case "x5 generator" test_x5;
    case "x5 overlap property" test_x5_overlap_property;
    case "clustered generator" test_clustered;
    case "adversarial dataset" test_adversarial;
    case "gaussian null" test_gaussian_null;
    case "generator determinism" test_generators_deterministic;
    case "corpus shape" test_corpus_shape;
    case "corpus genre separation" test_corpus_genre_separation;
    case "segmentation shape" test_segmentation_shape;
    case "segmentation collinearity" test_segmentation_collinear;
    case "segmentation sky separation" test_segmentation_sky_far;
    test_json_string_roundtrip;
    test_json_key_roundtrip;
    test_json_numbers_random_bits;
    test_json_writer_unboxed_forms;
    case "json numbers at powers of ten and edge values"
      test_json_numbers_edge_values;
    test_json_numbers_random_decimals;
    case "json to_int refuses integers beyond 2^53" test_json_to_int_range;
    case "json nesting depth is bounded" test_json_depth_bound;
  ]

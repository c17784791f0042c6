(* JSON implementation and session persistence/replay. *)

open Sider_data
open Sider_core
open Test_helpers

(* --- Json ------------------------------------------------------------------ *)

let test_json_print_basic () =
  check_true "null" (Json.to_string Json.Null = "null");
  check_true "bool" (Json.to_string (Json.Bool true) = "true");
  check_true "int-like" (Json.to_string (Json.Number 42.0) = "42");
  check_true "string" (Json.to_string (Json.String "hi") = {|"hi"|});
  check_true "list" (Json.to_string (Json.List [ Json.Number 1.0 ]) = "[1]");
  check_true "object"
    (Json.to_string (Json.Obj [ ("a", Json.Null) ]) = {|{"a":null}|})

let test_json_escapes () =
  let s = Json.to_string (Json.String "a\"b\\c\nd") in
  check_true "escaped" (s = {|"a\"b\\c\nd"|});
  match Json.of_string s with
  | Json.String back -> check_true "roundtrip" (back = "a\"b\\c\nd")
  | _ -> Alcotest.fail "expected string"

let test_json_parse_basics () =
  check_true "null" (Json.of_string " null " = Json.Null);
  check_true "number" (Json.of_string "-1.5e2" = Json.Number (-150.0));
  check_true "nested"
    (Json.of_string {| {"a": [1, true, "x"], "b": {}} |}
     = Json.Obj
         [ ("a", Json.List [ Json.Number 1.0; Json.Bool true; Json.String "x" ]);
           ("b", Json.Obj []) ])

let test_json_parse_unicode_escape () =
  match Json.of_string {|"é"|} with
  | Json.String s -> check_true "é decoded" (s = "\xc3\xa9")
  | _ -> Alcotest.fail "expected string"

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  fails "{";
  fails "[1,]";
  fails "nul";
  fails {|"abc|};
  fails "1 2";
  fails "{\"a\" 1}"

let test_json_float_roundtrip () =
  let xs = [| 0.1; -3.25; 1e-17; 6.02e23; 0.0 |] in
  let back = Json.to_floats (Json.of_string (Json.to_string (Json.floats xs))) in
  approx_vec ~eps:0.0 "floats exact" xs back

let prop_json_roundtrip =
  let gen =
    QCheck.(
      let leaf =
        oneof
          [ map (fun b -> Json.Bool b) bool;
            map (fun f -> Json.Number f) (float_range (-1e6) 1e6);
            map (fun s -> Json.String s) (string_gen_of_size (QCheck.Gen.return 6) QCheck.Gen.printable);
            always Json.Null ]
      in
      map (fun leaves -> Json.List leaves) (small_list leaf))
  in
  qcheck ~count:100 "json print/parse roundtrip" gen (fun j ->
      Json.of_string (Json.to_string j) = j)

(* Messages and positions reach clients in 400 bodies; these were
   recorded from the character-at-a-time parser the index-based one
   replaced. *)
let test_json_parse_error_messages () =
  List.iter
    (fun (input, expected) ->
      match Json.of_string input with
      | exception Json.Parse_error msg ->
        Alcotest.(check string) (Printf.sprintf "error on %S" input) expected msg
      | _ -> Alcotest.failf "expected a parse error on %S" input)
    [ ("", "unexpected end of input at position 0");
      ("   ", "unexpected end of input at position 3");
      ("{", "expected '\"' at position 1");
      ("[1,]", "expected number at position 3");
      ("nul", "expected null at position 0");
      ("\"abc", "unterminated string at position 4");
      ("1 2", "trailing content at position 2");
      ("{\"a\" 1}", "expected ':' at position 5");
      ("{\"a\":1,}", "expected '\"' at position 7");
      ("[1 2]", "expected ']' at position 3");
      ("{1:2}", "expected '\"' at position 1");
      ("]", "expected number at position 0");
      ("-", "malformed number at position 1");
      ("1e", "malformed number at position 2");
      ("--1", "malformed number at position 3");
      ("inf", "expected number at position 0");
      ("\"jitter\":inf", "trailing content at position 8");
      ("{\"jitter\":-inf}", "malformed number at position 11");
      ("\"\\x\"", "bad escape at position 2");
      ("\"\\u12\"", "bad \\u escape at position 3");
      ("\"\\u12g4\"", "bad \\u escape at position 3");
      ("\"\\u0_41\"", "bad \\u escape at position 3");
      ("\"\\u1_2_\"", "bad \\u escape at position 3");
      ("\"\\ud83d\"", "bad \\u escape at position 3");
      ("\"\\ude00\"", "bad \\u escape at position 3");
      ("\"\\ud83dx\"", "bad \\u escape at position 3");
      ("\"\\ud83d\\u0041\"", "bad \\u escape at position 3");
      ("\"\\ud83d\\ud83d\"", "bad \\u escape at position 3");
      ("\"\\ud83d\\u12\"", "bad \\u escape at position 9");
      ("\"abc\\", "bad escape at position 5");
      ("tru", "expected true at position 0");
      ("[true,fals]", "expected false at position 6");
      ("{\"a\":[1,{\"b\":\"c\\\"\"}]", "expected '}' at position 20");
      ("\"a\"\"b\"", "trailing content at position 3");
      ("\000", "expected number at position 0");
      ("[1,\n 2,\n x]", "expected number at position 9") ];
  (* An overflowing literal still reads, as an infinity.  A \u escape
     decodes to UTF-8, and a surrogate pair to one 4-byte code point. *)
  check_true "1e999 reads as infinity, escapes as UTF-8"
    (Json.of_string {|["\u00e9", 1e999, "\ud83d\ude00", "\u00C9\u0041"]|}
     = Json.List
         [ Json.String "\xc3\xa9"; Json.Number Float.infinity;
           Json.String "\xf0\x9f\x98\x80"; Json.String "\xc3\x89A" ])

let test_json_non_finite_prints_null () =
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%h" x) "null"
        (Json.to_string (Json.Number x)))
    [ Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan ];
  let report =
    Json.Obj
      [ ("max_dlambda", Json.Number Float.infinity);
        ("max_dparam", Json.Number Float.nan) ]
  in
  check_true "the printed object parses"
    (Json.of_string (Json.to_string report)
     = Json.Obj [ ("max_dlambda", Json.Null); ("max_dparam", Json.Null) ])

(* Printing a number gives exactly the bytes [Printf] gave before the
   printer called the C primitive directly, and reading them back gives
   the same float, bit for bit. *)
let printf_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let prop_json_number_bytes =
  let specials =
    [ 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308;
      2.2250738585072014e-308; 1e-310; 999999999999999.0;
      -999999999999999.0; 999999999999999.5; 1e15; -1e15; 1e15 +. 2.0;
      9007199254740993.0; 1.7976931348623157e308; -1.7976931348623157e308;
      1e300; 1e-300; 0.1; 1e21; 1e22; 123456789012345678.0 ]
  in
  let gen =
    QCheck.Gen.(
      oneof
        [ map Int64.float_of_bits ui64;
          oneofl specials;
          map
            (fun (k, neg) ->
              let x = 1e15 +. float_of_int k in
              if neg then -.x else x)
            (pair (int_range (-4) 4) bool);
          map2 ldexp (float_range (-1.0) 1.0) (int_range (-1074) 1024) ])
  in
  qcheck ~count:2000 "json numbers print as Printf did and read back exactly"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x ->
      let s = Json.to_string (Json.Number x) in
      if not (Float.is_finite x) then s = "null"
      else
        s = printf_number x
        &&
        match Json.of_string s with
        | Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | _ -> false)

(* --- Dataset persistence ------------------------------------------------------ *)

let test_dataset_roundtrip () =
  let ds = Synth.three_d ~seed:5 () in
  let back = Persist.dataset_of_json (Persist.dataset_to_json ds) in
  approx_mat ~eps:0.0 "matrix exact" (Dataset.matrix ds) (Dataset.matrix back);
  check_true "labels" (Dataset.labels back = Dataset.labels ds);
  check_true "columns" (Dataset.columns back = Dataset.columns ds);
  check_true "name" (Dataset.name back = Dataset.name ds)

let test_dataset_roundtrip_unlabeled () =
  let ds = Synth.gaussian ~seed:2 ~n:20 ~d:3 () in
  let back = Persist.dataset_of_json (Persist.dataset_to_json ds) in
  check_true "no labels" (Dataset.labels back = None)

(* --- Session persistence -------------------------------------------------------- *)

let explored_session () =
  let ds = Synth.three_d ~seed:1 () in
  let s = Session.create ~seed:77 ds in
  let sels = Auto_explore.mark_clusters ~rng:(Sider_rand.Rng.create 3) s in
  Array.iter (Session.add_cluster_constraint s) sels;
  ignore (Session.update_background_exn s);
  ignore (Session.recompute_view s);
  s

let test_history_recorded () =
  let s = explored_session () in
  let events = Session.history s in
  let clusters =
    List.length
      (List.filter
         (function Session.Added_cluster _ -> true | _ -> false)
         events)
  in
  check_true "cluster events" (clusters >= 2);
  check_true "update event"
    (List.exists (function Session.Updated _ -> true | _ -> false) events);
  check_true "view event"
    (List.exists (function Session.Viewed _ -> true | _ -> false) events)

(* A session's snapshot text, through [Persist.save] on a temp file, and
   a session loaded from snapshot text through [Persist.load]. *)
let with_temp_snapshot f =
  let path = Filename.temp_file "sider_snapshot" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let snapshot_text s =
  with_temp_snapshot (fun path ->
      Persist.save path s;
      In_channel.with_open_bin path In_channel.input_all)

let load_text text =
  with_temp_snapshot (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Persist.load path)

(* The snapshot as a tree, edited, printed and loaded. *)
let load_edited s edit =
  match Json.of_string (snapshot_text s) with
  | Json.Obj fields -> load_text (Json.to_string (Json.Obj (edit fields)))
  | _ -> Alcotest.fail "snapshot is not an object"

let test_session_replay_exact () =
  let s = explored_session () in
  let replayed = load_text (snapshot_text s) in
  (* The replayed session reaches the identical state. *)
  check_true "same constraint count"
    (Session.n_constraints replayed = Session.n_constraints s);
  check_true "same axis labels"
    (Session.axis_labels replayed = Session.axis_labels s);
  check_true "same scores" (Session.view_scores replayed = Session.view_scores s);
  approx_mat ~eps:0.0 "same engine data" (Session.data s)
    (Session.data replayed);
  (* Background parameters coincide too. *)
  let p_orig = Sider_maxent.Solver.row_params (Session.solver s) 0 in
  let p_back = Sider_maxent.Solver.row_params (Session.solver replayed) 0 in
  approx_vec ~eps:1e-12 "same background mean"
    p_orig.Sider_maxent.Gauss_params.mean p_back.Sider_maxent.Gauss_params.mean

let test_session_file_roundtrip () =
  let s = explored_session () in
  let path = Filename.temp_file "sider_session" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save path s;
      let replayed = Persist.load path in
      check_true "file replay matches"
        (Session.axis_labels replayed = Session.axis_labels s))

let test_session_of_json_rejects_garbage () =
  (match load_text {|{"format":"x"}|} with
   | exception Sider_robust.Sider_error.Error _ -> ()
   | _ -> Alcotest.fail "expected a structured error");
  match load_text "null" with
  | exception Sider_robust.Sider_error.Error _ -> ()
  | _ -> Alcotest.fail "expected a structured error"

(* --- snapshot integrity (format v2) -------------------------------------------- *)

let index_of_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found
    else if String.sub text i m = sub then i
    else go (i + 1)
  in
  go 0

let test_snapshot_checksum_detects_bitrot () =
  let s = explored_session () in
  let text = snapshot_text s in
  (* Flip one character inside the dataset payload (well past the header
     keys) and expect a checksum mismatch, not a crash or silent load. *)
  let i = index_of_sub text "\"data\"" + 20 in
  let corrupted = Bytes.of_string text in
  Bytes.set corrupted i (if Bytes.get corrupted i = '1' then '2' else '1');
  match load_text (Bytes.to_string corrupted) with
  | exception Sider_robust.Sider_error.Error
      (Sider_robust.Sider_error.Degenerate_data _) -> ()
  | exception e ->
    Alcotest.failf "expected Degenerate_data, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bit rot loaded silently"

let test_snapshot_v2_requires_checksum () =
  let s = explored_session () in
  match load_edited s (List.filter (fun (k, _) -> k <> "checksum")) with
  | exception Sider_robust.Sider_error.Error _ -> ()
  | _ -> Alcotest.fail "v2 snapshot without checksum loaded"

let test_snapshot_v1_still_loads () =
  let s = explored_session () in
  (* A version-1 file has no checksum; replacing the version field and
     dropping the checksum must still load (backwards compatibility). *)
  let replayed =
    load_edited s
      (List.filter_map (fun (k, v) ->
           if k = "checksum" then None
           else if k = "version" then Some (k, Json.Number 1.0)
           else Some (k, v)))
  in
  check_true "v1 replay matches"
    (Session.axis_labels replayed = Session.axis_labels s)

let test_save_is_atomic () =
  let s = explored_session () in
  let path = Filename.temp_file "sider_atomic" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save path s;
      check_true "no tmp file left behind"
        (not (Sys.file_exists (path ^ ".tmp")));
      check_true "reload ok" (Result.is_ok (Persist.load_result path)))

let test_load_missing_file_is_structured () =
  match Persist.load_result "/nonexistent/sider-nowhere.json" with
  | Error (Sider_robust.Sider_error.Io_failure _) -> ()
  | Error e ->
    Alcotest.failf "expected Io_failure, got %s"
      (Sider_robust.Sider_error.to_string e)
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"

(* --- qcheck: session JSON round-trips over random histories --------------------- *)

(* A random interaction history: a list of small ints decodes to a
   deterministic sequence of session events (constraint declarations of
   every kind, solver updates, view changes).  The property: snapshot →
   JSON → replay reproduces the exact observable state. *)
let apply_script s script =
  let n = Sider_linalg.Mat.dims (Session.data s) |> fst in
  List.iter
    (fun (code : int) ->
      match code mod 5 with
      | 0 ->
        let rows = Array.init (2 + (code mod 7)) (fun i -> (i * 3 + code) mod n) in
        Session.add_cluster_constraint s rows
      | 1 -> Session.add_margin_constraint s
      | 2 -> Session.add_one_cluster_constraint s
      | 3 ->
        ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:4 s)
      | _ ->
        ignore
          (Session.recompute_view
             ~method_:Sider_projection.View.Pca s))
    script

let prop_session_roundtrip_random_history =
  let gen = QCheck.(list_of_size (QCheck.Gen.int_range 0 6) small_nat) in
  qcheck ~count:12 "session json roundtrip over random histories" gen
    (fun script ->
      let ds = Synth.gaussian ~seed:11 ~n:18 ~d:3 () in
      let s = Session.create ~seed:5 ds in
      apply_script s script;
      let replayed = load_text (snapshot_text s) in
      Session.n_constraints replayed = Session.n_constraints s
      && Session.axis_labels replayed = Session.axis_labels s
      && Session.view_scores replayed = Session.view_scores s
      && List.length (Session.history replayed)
         = List.length (Session.history s))

(* --- write-ahead journal --------------------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "sider_journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- one-pass checksummed text against the tree it replaced -------------------- *)

(* The checksummed tree as it was built before documents were printed
   once: fields hashed byte by byte over their printed text without the
   checksum, the checksum inserted after "version", the tree printed. *)
let reference_fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* An event as the snapshot's history holds it. *)
let event_json = function
  | Session.Added_cluster { rows; tag } ->
    Json.Obj
      [ ("event", Json.String "cluster"); ("rows", Json.ints rows);
        ("tag", Json.String tag) ]
  | Session.Added_two_d { rows; tag } ->
    Json.Obj
      [ ("event", Json.String "two_d"); ("rows", Json.ints rows);
        ("tag", Json.String tag) ]
  | Session.Added_margin -> Json.Obj [ ("event", Json.String "margin") ]
  | Session.Added_one_cluster ->
    Json.Obj [ ("event", Json.String "one_cluster") ]
  | Session.Updated { time_cutoff; max_sweeps } ->
    Json.Obj
      ([ ("event", Json.String "update");
         ("time_cutoff", Json.Number time_cutoff) ]
       @
       match max_sweeps with
       | Some s -> [ ("max_sweeps", Json.Number (float_of_int s)) ]
       | None -> [])
  | Session.Viewed m ->
    Json.Obj
      [ ("event", Json.String "view");
        ("method",
         Json.String
           (match m with
            | Sider_projection.View.Pca -> "pca"
            | Sider_projection.View.Ica -> "ica")) ]

let reference_checksummed ~format extra s =
  let seed, standardize, jitter, method_ = Session.creation_args s in
  let fields =
    [ ("format", Json.String format); ("version", Json.Number 2.0) ]
    @ extra
    @ [ ("seed", Json.Number (float_of_int seed));
        ("standardize", Json.Bool standardize);
        ("jitter", Json.Number jitter);
        ("method",
         Json.String
           (match method_ with
            | Sider_projection.View.Pca -> "pca"
            | Sider_projection.View.Ica -> "ica"));
        ("dataset", Persist.dataset_to_json (Session.dataset s)) ]
  in
  let fields =
    if format = "sider-session" then
      fields
      @ [ ("history",
           Json.List (List.map event_json (Session.history s))) ]
    else fields
  in
  let sum = reference_fnv64 (Json.to_string (Json.Obj fields)) in
  let rec insert = function
    | ("version", v) :: rest ->
      ("version", v) :: ("checksum", Json.String sum) :: rest
    | kv :: rest -> kv :: insert rest
    | [] -> [ ("checksum", Json.String sum) ]
  in
  Json.to_string (Json.Obj (insert fields))

(* Strings mixing characters JSON must escape with ones it copies. *)
let awkward_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [ '"'; '\\'; '\n'; '\r'; '\t'; '\001'; '\031'; '\b'; '/'; 'a';
             'Z'; ' '; '\xc3'; '\xa9'; '\127' ])
      (int_range 0 8))

let awkward_session =
  QCheck.Gen.(
    let* name = awkward_string in
    let* columns = array_repeat 3 awkward_string in
    let* class_a = awkward_string in
    let* class_b = awkward_string in
    let* tags = list_size (int_range 0 3) awkward_string in
    let* seed = int_range 0 1000 in
    let* jitter = oneofl [ 0.0; 1e-3; 2.5e-3; 0.1 ] in
    let* cells =
      array_repeat 24
        (oneof
           [ float_range (-10.0) 10.0;
             oneofl [ -0.0; 1e15; 999999999999999.0; 5e-324; 1e-310; 1e20 ] ])
    in
    return (name, columns, (class_a, class_b), tags, seed, jitter, cells))

let awkward_session_of (name, columns, (class_a, class_b), tags, seed, jitter, cells) =
  (* Column names are made distinct by a prefix; every character the
     generator drew is kept. *)
  let columns = Array.mapi (fun i c -> string_of_int i ^ c) columns in
  let m = Sider_linalg.Mat.init 8 3 (fun i j -> cells.((i * 3) + j)) in
  let labels = Array.init 8 (fun i -> if i < 4 then class_a else class_b) in
  let ds = Dataset.create ~name ~labels ~columns m in
  let s = Session.create ~seed ~jitter ds in
  List.iteri
    (fun i tag ->
      if i mod 2 = 0 then Session.add_cluster_constraint ~tag s [| 0; 1; 2 |]
      else Session.add_two_d_constraint ~tag s [| 4; 5; 6; 7 |])
    tags;
  ignore (Session.update_background ~time_cutoff:0.5 ~max_sweeps:1 s);
  s

let prop_checksummed_text_matches_reference_tree =
  qcheck ~count:40 "snapshot and journal headers equal the printed reference tree"
    (QCheck.make awkward_session) (fun args ->
      let s = awkward_session_of args in
      with_temp_journal @@ fun path ->
      let snap = Persist.snapshot_path path in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists snap then Sys.remove snap)
        (fun () ->
          let read p = In_channel.with_open_bin p In_channel.input_all in
          let first_line p = List.hd (String.split_on_char '\n' (read p)) in
          Persist.save snap s;
          let saved = read snap in
          let j = Persist.journal_start path s in
          let header = first_line path in
          (* Compaction rewrites both the snapshot and the header. *)
          Persist.journal_compact j s;
          Persist.journal_close j;
          let compacted_snapshot = read snap in
          let compacted = first_line path in
          let base = List.length (Session.history s) in
          saved = reference_checksummed ~format:"sider-session" [] s
          && compacted_snapshot = saved
          && header = reference_checksummed ~format:"sider-journal" [] s
          && compacted
             = reference_checksummed ~format:"sider-journal"
                 [ ("base", Json.Number (float_of_int base)) ]
                 s
          && snapshot_text s = saved))

(* Starting a journal at the projection_reads benchmark's shape prints
   the header straight from the matrix into one buffer sized for it:
   at most 4·n·d words.  Printing it from a tree takes about 28·n·d. *)
let test_journal_start_allocation () =
  let ds = reads_dataset () in
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  let s = Session.create ~seed:1 ds in
  with_temp_journal @@ fun path ->
  let j, words = allocated_words (fun () -> Persist.journal_start path s) in
  Persist.journal_close j;
  if words > 4 * n * d then
    Alcotest.failf "journal_start allocated %d words, over 4nd = %d" words
      (4 * n * d)

let test_journal_roundtrip () =
  let s = explored_session () in
  with_temp_journal @@ fun path ->
  let j = Persist.journal_start path s in
  check_true "events written" (Persist.journal_events j > 0);
  Persist.journal_close j;
  Persist.journal_close j (* idempotent *);
  match Persist.journal_load path with
  | Error e -> Alcotest.failf "load: %s" (Sider_robust.Sider_error.to_string e)
  | Ok (replayed, applied) ->
    check_true "all events applied"
      (applied = List.length (Session.history s));
    check_true "same state" (Session.axis_labels replayed = Session.axis_labels s)

let test_journal_append_then_load () =
  let ds = Synth.gaussian ~seed:7 ~n:16 ~d:3 () in
  let s = Session.create ~seed:3 ds in
  with_temp_journal @@ fun path ->
  let j = Persist.journal_start path s in
  (* The service's write-ahead order: journal, then apply. *)
  Persist.journal_append j Session.Added_margin;
  Session.add_margin_constraint s;
  Persist.journal_append j
    (Session.Updated { time_cutoff = 1.0; max_sweeps = Some 4 });
  ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:4 s);
  Persist.journal_close j;
  match Persist.journal_load path with
  | Error e -> Alcotest.failf "load: %s" (Sider_robust.Sider_error.to_string e)
  | Ok (replayed, applied) ->
    check_true "two events" (applied = 2);
    check_true "constraints restored"
      (Session.n_constraints replayed = Session.n_constraints s)

(* The crash-recovery sweep: truncating the journal at EVERY byte offset
   must yield either a recovered prefix or a structured error — never a
   raw exception.  A truncation that keeps the final newline intact
   must recover every line before it. *)
let test_journal_truncation_sweep () =
  let ds = Synth.gaussian ~seed:13 ~n:14 ~d:3 () in
  let s = Session.create ~seed:4 ds in
  with_temp_journal @@ fun path ->
  let j = Persist.journal_start path s in
  Persist.journal_append j Session.Added_margin;
  Session.add_margin_constraint s;
  Persist.journal_append j
    (Session.Updated { time_cutoff = 1.0; max_sweeps = Some 3 });
  ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s);
  Persist.journal_close j;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let header_len = String.index full '\n' + 1 in
  let total = String.length full in
  with_temp_journal @@ fun cut_path ->
  for len = 0 to total do
    let prefix = String.sub full 0 len in
    Out_channel.with_open_bin cut_path (fun oc ->
        Out_channel.output_string oc prefix);
    match Persist.journal_load cut_path with
    | Ok (_, applied) ->
      check_true
        (Printf.sprintf "truncation at %d: complete prefix only" len)
        (len >= header_len);
      (* Count the intact (newline-terminated) event lines in the
         prefix: recovery must apply exactly those. *)
      let expected =
        String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 prefix
        - 1
      in
      check_true
        (Printf.sprintf "truncation at %d: %d events (expected %d)" len
           applied expected)
        (applied = expected)
    | Error _ ->
      (* Only a cut inside the header line may lose the journal; past it,
         recovery returns the intact prefix. *)
      check_true
        (Printf.sprintf "truncation at %d: error only inside the header" len)
        (len < header_len)
    | exception e ->
      Alcotest.failf "truncation at %d raised %s" len (Printexc.to_string e)
  done;
  (* The untruncated file must recover everything. *)
  match Persist.journal_load path with
  | Ok (_, applied) -> check_true "full file: 2 events" (applied = 2)
  | Error e -> Alcotest.failf "full: %s" (Sider_robust.Sider_error.to_string e)

(* A terminated-but-corrupt interior line is corruption (it was fsynced
   and acknowledged), not a droppable tail. *)
let test_journal_interior_corruption_is_error () =
  let ds = Synth.gaussian ~seed:17 ~n:14 ~d:3 () in
  let s = Session.create ~seed:6 ds in
  with_temp_journal @@ fun path ->
  let j = Persist.journal_start path s in
  Persist.journal_append j Session.Added_margin;
  Persist.journal_append j Session.Added_one_cluster;
  Persist.journal_close j;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let first_nl = String.index full '\n' in
  let second_nl = String.index_from full (first_nl + 1) '\n' in
  let corrupted = Bytes.of_string full in
  Bytes.set corrupted (second_nl - 3) '~';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc corrupted);
  match Persist.journal_load path with
  | Error (Sider_robust.Sider_error.Degenerate_data _) -> ()
  | Error e ->
    Alcotest.failf "expected Degenerate_data, got %s"
      (Sider_robust.Sider_error.to_string e)
  | Ok _ -> Alcotest.fail "corrupt interior line replayed"

let test_journal_reopen_appends_after_crash () =
  let ds = Synth.gaussian ~seed:19 ~n:14 ~d:3 () in
  let s = Session.create ~seed:8 ds in
  with_temp_journal @@ fun path ->
  let j = Persist.journal_start path s in
  Persist.journal_append j Session.Added_margin;
  Persist.journal_close j;
  (* Simulate a crash mid-append: a torn, unterminated tail. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc {|{"event":"one_clu|};
  close_out oc;
  (match Persist.journal_reopen path with
   | Error e ->
     Alcotest.failf "reopen: %s" (Sider_robust.Sider_error.to_string e)
   | Ok (recovered, j2) ->
     check_true "tail dropped" (Persist.journal_events j2 = 1);
     (* Appending after recovery lands on a clean record boundary. *)
     Persist.journal_append j2 Session.Added_one_cluster;
     Session.add_margin_constraint recovered;
     Session.add_one_cluster_constraint recovered;
     Persist.journal_close j2);
  match Persist.journal_load path with
  | Ok (_, applied) -> check_true "recovered + appended" (applied = 2)
  | Error e -> Alcotest.failf "reload: %s" (Sider_robust.Sider_error.to_string e)

let test_journal_fail_append_injection () =
  let ds = Synth.gaussian ~seed:23 ~n:14 ~d:3 () in
  let s = Session.create ~seed:9 ds in
  Sider_robust.Fault.reset ();
  with_temp_journal @@ fun path ->
  let j = Persist.journal_start path s in
  Sider_robust.Fault.(arm (Journal_fail_append { path_substr = "" }));
  (match Persist.journal_append j Session.Added_margin with
   | exception Sider_robust.Sider_error.Error
       (Sider_robust.Sider_error.Io_failure _) -> ()
   | () -> Alcotest.fail "injected append failure did not fire");
  check_true "injection consumed"
    (List.length (Sider_robust.Fault.fired ()) = 1);
  (* The failed append wrote nothing: the journal still replays. *)
  Persist.journal_append j Session.Added_one_cluster;
  Persist.journal_close j;
  Sider_robust.Fault.reset ();
  match Persist.journal_load path with
  | Ok (_, applied) -> check_true "only the durable event" (applied = 1)
  | Error e -> Alcotest.failf "load: %s" (Sider_robust.Sider_error.to_string e)

(* --- journal compaction ----------------------------------------------------------- *)

(* Compaction leaves three kinds of files next to the journal: the
   sibling snapshot, and the tmp files of either atomic rename.  Tests
   must clean all of them or a crashed iteration pollutes the next. *)
let with_temp_store f =
  with_temp_journal @@ fun path ->
  let siblings =
    [ Persist.snapshot_path path;
      Persist.snapshot_path path ^ ".tmp";
      path ^ ".compact.tmp" ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) siblings)
    (fun () -> f path)

let session_bytes = snapshot_text

let test_journal_compact_roundtrip () =
  let ds = Synth.gaussian ~seed:29 ~n:14 ~d:3 () in
  let s = Session.create ~seed:10 ds in
  with_temp_store @@ fun path ->
  let j = Persist.journal_start path s in
  Persist.journal_append j Session.Added_margin;
  Session.add_margin_constraint s;
  Persist.journal_append j
    (Session.Updated { time_cutoff = 1.0; max_sweeps = Some 3 });
  ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s);
  check_true "events before compaction" (Persist.journal_events j = 2);
  Persist.journal_compact j s;
  check_true "snapshot exists" (Sys.file_exists (Persist.snapshot_path path));
  check_true "journal reset" (Persist.journal_events j = 0);
  check_true "base recorded"
    (Persist.journal_base j = List.length (Session.history s));
  check_true "no snapshot tmp left"
    (not (Sys.file_exists (Persist.snapshot_path path ^ ".tmp")));
  check_true "no journal tmp left"
    (not (Sys.file_exists (path ^ ".compact.tmp")));
  (* The handle keeps appending after compaction. *)
  Persist.journal_append j Session.Added_one_cluster;
  Session.add_one_cluster_constraint s;
  Persist.journal_close j;
  match Persist.journal_load path with
  | Error e -> Alcotest.failf "load: %s" (Sider_robust.Sider_error.to_string e)
  | Ok (replayed, applied) ->
    check_true "all events restored"
      (applied = List.length (Session.history s));
    check_true "byte-identical state"
      (session_bytes replayed = session_bytes s)

let test_journal_compact_twice () =
  let ds = Synth.gaussian ~seed:41 ~n:14 ~d:3 () in
  let s = Session.create ~seed:15 ds in
  with_temp_store @@ fun path ->
  let j = Persist.journal_start path s in
  Persist.journal_append j Session.Added_margin;
  Session.add_margin_constraint s;
  Persist.journal_compact j s;
  Persist.journal_append j Session.Added_one_cluster;
  Session.add_one_cluster_constraint s;
  (* Second compaction folds the post-snapshot suffix into a newer
     snapshot; the first one is simply overwritten. *)
  Persist.journal_compact j s;
  Persist.journal_append j
    (Session.Updated { time_cutoff = 1.0; max_sweeps = Some 3 });
  ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s);
  Persist.journal_close j;
  match Persist.journal_load path with
  | Error e -> Alcotest.failf "load: %s" (Sider_robust.Sider_error.to_string e)
  | Ok (replayed, applied) ->
    check_true "all events restored"
      (applied = List.length (Session.history s));
    check_true "byte-identical state"
      (session_bytes replayed = session_bytes s)

(* Crash injected at every fault point of the compaction sequence: the
   store must recover to the exact pre-crash session state from the
   files alone, and stay appendable.  The four points cover: nothing
   written yet (0), snapshot tmp written but not renamed (1), snapshot
   renamed but journal not rewritten (2), journal tmp written but not
   renamed (3). *)
let test_journal_compact_crash_sweep () =
  for point = 0 to 3 do
    Sider_robust.Fault.reset ();
    let ds = Synth.gaussian ~seed:31 ~n:14 ~d:3 () in
    let s = Session.create ~seed:12 ds in
    with_temp_store @@ fun path ->
    let j = Persist.journal_start path s in
    Persist.journal_append j Session.Added_margin;
    Session.add_margin_constraint s;
    Persist.journal_append j Session.Added_one_cluster;
    Session.add_one_cluster_constraint s;
    Sider_robust.Fault.(arm (Compact_crash { path_substr = ""; point }));
    (match Persist.journal_compact j s with
     | exception Sider_robust.Fault.Crash_injected -> ()
     | () -> Alcotest.failf "point %d: injected crash did not fire" point);
    Sider_robust.Fault.reset ();
    (* The process is gone; recovery sees only the files. *)
    Persist.journal_close j;
    (match Persist.journal_reopen path with
     | Error e ->
       Alcotest.failf "point %d reopen: %s" point
         (Sider_robust.Sider_error.to_string e)
     | Ok (recovered, j2) ->
       check_true
         (Printf.sprintf "point %d: recovered state is byte-identical" point)
         (session_bytes recovered = session_bytes s);
       (* The store stays appendable after crash recovery. *)
       Persist.journal_append j2 Session.Added_margin;
       Session.add_margin_constraint s;
       Persist.journal_close j2);
    match Persist.journal_load path with
    | Error e ->
      Alcotest.failf "point %d reload: %s" point
        (Sider_robust.Sider_error.to_string e)
    | Ok (replayed, applied) ->
      check_true
        (Printf.sprintf "point %d: post-recovery append restored" point)
        (applied = List.length (Session.history s));
      check_true
        (Printf.sprintf "point %d: final state is byte-identical" point)
        (session_bytes replayed = session_bytes s)
  done

(* Journal lines and history events must stay 1:1 even when an update
   fails: the service journals before applying, and a failed solve
   rolls back but still records its [Updated] event.  Without that,
   the crash-between-compaction-renames recovery below would compute
   skip = snapshot_history - base short by one and double-apply the
   journal tail. *)
let test_failed_update_keeps_journal_history_aligned () =
  Sider_robust.Fault.reset ();
  let ds = Synth.gaussian ~seed:47 ~n:14 ~d:3 () in
  let s = Session.create ~seed:19 ds in
  with_temp_store @@ fun path ->
  let j = Persist.journal_start path s in
  Persist.journal_append j Session.Added_margin;
  Session.add_margin_constraint s;
  (* Write-ahead order, as the service does it — then the solve fails. *)
  Persist.journal_append j
    (Session.Updated { time_cutoff = 1.0; max_sweeps = Some 3 });
  Sider_robust.Fault.(arm (Fail_sweep { sweep = 1 }));
  (match Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s with
   | Ok _ -> Alcotest.fail "injected divergence must fail the update"
   | Error _ -> ());
  Sider_robust.Fault.reset ();
  check_true "failed update recorded in history"
    (List.length (Session.history s) = 2);
  Persist.journal_append j Session.Added_one_cluster;
  Session.add_one_cluster_constraint s;
  (* Crash between the two compaction renames: the new snapshot now
     coexists with the old journal, the exact window where the skip
     arithmetic must hold. *)
  Sider_robust.Fault.(arm (Compact_crash { path_substr = ""; point = 2 }));
  (match Persist.journal_compact j s with
   | exception Sider_robust.Fault.Crash_injected -> ()
   | () -> Alcotest.fail "injected compaction crash did not fire");
  Sider_robust.Fault.reset ();
  Persist.journal_close j;
  match Persist.journal_load path with
  | Error e ->
    Alcotest.failf "recovery: %s" (Sider_robust.Sider_error.to_string e)
  | Ok (replayed, applied) ->
    check_true "no journal tail double-applied"
      (applied = List.length (Session.history s));
    check_true "recovered state is byte-identical"
      (session_bytes replayed = session_bytes s)

(* The pinning property: a random lifecycle history — constraint
   declarations of every kind, solver updates, view changes — with
   compaction forced at random points must recover byte-identically
   from the files, exactly as an uncompacted journal would. *)
let prop_journal_compaction_random_history =
  let gen =
    QCheck.(list_of_size (QCheck.Gen.int_range 0 10) (pair small_nat bool))
  in
  qcheck ~count:10 "journal with random compactions replays byte-identically"
    gen (fun script ->
      let ds = Synth.gaussian ~seed:37 ~n:16 ~d:3 () in
      let s = Session.create ~seed:13 ds in
      with_temp_store @@ fun path ->
      let j = Persist.journal_start path s in
      let apply (code, compact_after) =
        (match code mod 5 with
         | 0 ->
           let rows =
             Array.init (2 + (code mod 5)) (fun i -> ((i * 3) + code) mod 16)
           in
           let tag = "c" ^ string_of_int code in
           Persist.journal_append j (Session.Added_cluster { rows; tag });
           Session.add_cluster_constraint ~tag s rows
         | 1 ->
           Persist.journal_append j Session.Added_margin;
           Session.add_margin_constraint s
         | 2 ->
           Persist.journal_append j Session.Added_one_cluster;
           Session.add_one_cluster_constraint s
         | 3 ->
           Persist.journal_append j
             (Session.Updated { time_cutoff = 1.0; max_sweeps = Some 3 });
           ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s)
         | _ ->
           Persist.journal_append j (Session.Viewed Sider_projection.View.Pca);
           ignore
             (Session.recompute_view ~method_:Sider_projection.View.Pca s));
        if compact_after then Persist.journal_compact j s
      in
      List.iter apply script;
      Persist.journal_close j;
      match Persist.journal_load path with
      | Error e ->
        QCheck.Test.fail_reportf "load: %s"
          (Sider_robust.Sider_error.to_string e)
      | Ok (replayed, applied) ->
        applied = List.length (Session.history s)
        && session_bytes replayed = session_bytes s)

(* Same property under a crash at a script-chosen fault point of a
   script-chosen compaction: recovery from the files equals the live
   pre-crash state. *)
let prop_journal_compaction_crash_random_history =
  let gen =
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_range 1 8) small_nat)
        (int_bound 7) (int_bound 3))
  in
  qcheck ~count:10 "random crash mid-compaction recovers byte-identically"
    gen (fun (script, crash_at, point) ->
      Sider_robust.Fault.reset ();
      let ds = Synth.gaussian ~seed:43 ~n:16 ~d:3 () in
      let s = Session.create ~seed:17 ds in
      with_temp_store @@ fun path ->
      let j = Persist.journal_start path s in
      let crashed = ref false in
      List.iteri
        (fun i code ->
          if not !crashed then begin
            (match code mod 3 with
             | 0 ->
               Persist.journal_append j Session.Added_margin;
               Session.add_margin_constraint s
             | 1 ->
               Persist.journal_append j Session.Added_one_cluster;
               Session.add_one_cluster_constraint s
             | _ ->
               let rows = Array.init (2 + (code mod 4)) (fun r -> r) in
               let tag = "q" ^ string_of_int i in
               Persist.journal_append j (Session.Added_cluster { rows; tag });
               Session.add_cluster_constraint ~tag s rows);
            if i = crash_at mod max 1 (List.length script) then begin
              Sider_robust.Fault.(
                arm (Compact_crash { path_substr = ""; point }));
              match Persist.journal_compact j s with
              | exception Sider_robust.Fault.Crash_injected -> crashed := true
              | () -> ()
            end
          end)
        script;
      Sider_robust.Fault.reset ();
      Persist.journal_close j;
      match Persist.journal_reopen path with
      | Error e ->
        QCheck.Test.fail_reportf "reopen: %s"
          (Sider_robust.Sider_error.to_string e)
      | Ok (recovered, j2) ->
        Persist.journal_close j2;
        session_bytes recovered = session_bytes s)

let suite =
  [
    case "json printing" test_json_print_basic;
    case "json escapes" test_json_escapes;
    case "json parsing" test_json_parse_basics;
    case "json unicode escape" test_json_parse_unicode_escape;
    case "json parse errors" test_json_parse_errors;
    case "json parse error messages and positions"
      test_json_parse_error_messages;
    case "json non-finite numbers print as null"
      test_json_non_finite_prints_null;
    prop_json_number_bytes;
    case "json float fidelity" test_json_float_roundtrip;
    prop_json_roundtrip;
    case "dataset json roundtrip" test_dataset_roundtrip;
    case "unlabeled dataset roundtrip" test_dataset_roundtrip_unlabeled;
    case "history recorded" test_history_recorded;
    slow_case "session replay is exact" test_session_replay_exact;
    case "session file roundtrip" test_session_file_roundtrip;
    case "rejects malformed snapshots" test_session_of_json_rejects_garbage;
    case "checksum detects bit rot" test_snapshot_checksum_detects_bitrot;
    case "v2 requires checksum" test_snapshot_v2_requires_checksum;
    case "v1 still loads" test_snapshot_v1_still_loads;
    case "save is atomic" test_save_is_atomic;
    case "missing file is structured" test_load_missing_file_is_structured;
    prop_session_roundtrip_random_history;
    prop_checksummed_text_matches_reference_tree;
    case "journal roundtrip" test_journal_roundtrip;
    case "journal append then load" test_journal_append_then_load;
    slow_case "journal truncation sweep" test_journal_truncation_sweep;
    case "journal interior corruption" test_journal_interior_corruption_is_error;
    case "journal reopen after crash" test_journal_reopen_appends_after_crash;
    case "journal append injection" test_journal_fail_append_injection;
    case "journal compaction roundtrip" test_journal_compact_roundtrip;
    case "journal compaction twice" test_journal_compact_twice;
    slow_case "compaction crash sweep" test_journal_compact_crash_sweep;
    case "failed update keeps journal and history 1:1"
      test_failed_update_keeps_journal_history_aligned;
    prop_journal_compaction_random_history;
    prop_journal_compaction_crash_random_history;
    case "journal start allocates at most 4nd words"
      test_journal_start_allocation;
  ]

(* The multi-tenant session service: API round-trips, error mapping,
   overload shedding, write-ahead durability and service-level fault
   injection (lib/serve/service.ml, registry.ml, http.ml). *)

open Sider_data
open Sider_core
open Sider_serve
open Test_helpers
module Fault = Sider_robust.Fault

let tiny_dataset () = Synth.gaussian ~seed:3 ~n:12 ~d:3 ()

let create_body ?(seed = 7) () =
  Json.to_string
    (Json.Obj
       [ ("dataset", Persist.dataset_to_json (tiny_dataset ()));
         ("seed", Json.Number (float_of_int seed)) ])

let cluster_body =
  {|{"type":"cluster","rows":[0,1,2,3,4]}|}

let update_body = {|{"time_cutoff":1.0,"max_sweeps":4}|}

let with_service ?data_dir ?(config = Service.default_config) f =
  Fault.reset ();
  let svc = Service.start ~config:{ config with port = 0; data_dir } () in
  Fun.protect
    ~finally:(fun () ->
      Service.stop svc;
      Fault.reset ())
    (fun () -> f svc)

let temp_dir () =
  let path = Filename.temp_file "sider_svc" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let req svc ?body meth path =
  match Http.request ?body ~meth ~port:(Service.port svc) path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s %s: transport error: %s" meth path e

let json_of (r : Http.response) = Json.of_string r.Http.r_body

(* A response header, looked up case-insensitively. *)
let header (r : Http.response) k =
  List.assoc_opt (String.lowercase_ascii k) r.Http.r_headers

let status_is msg expected (r : Http.response) =
  if r.Http.status <> expected then
    Alcotest.failf "%s: expected %d, got %d (%s)" msg expected r.Http.status
      r.Http.r_body

let create_session svc =
  let r = req svc ~body:(create_body ()) "POST" "/sessions" in
  status_is "create" 201 r;
  Json.to_str (Json.member "id" (json_of r))

(* --- the full interaction loop over HTTP ---------------------------------------- *)

let test_lifecycle () =
  with_service @@ fun svc ->
  status_is "healthz" 200 (req svc "GET" "/healthz");
  status_is "metrics" 200 (req svc "GET" "/metrics");
  let id = create_session svc in
  let r = req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints") in
  status_is "constraint" 200 r;
  check_true "constraints queued"
    (Json.to_int (Json.member "constraints" (json_of r)) > 0);
  let r = req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update") in
  status_is "update" 200 r;
  check_true "solver report has sweeps"
    (Json.to_int (Json.member "sweeps" (json_of r)) >= 1);
  let r = req svc ~body:{|{"method":"pca"}|} "POST" ("/sessions/" ^ id ^ "/view") in
  status_is "view" 200 r;
  let r = req svc "GET" ("/sessions/" ^ id ^ "/projection") in
  status_is "projection" 200 r;
  let proj = json_of r in
  check_true "one point per row"
    (List.length (Json.to_list (Json.member "points" proj)) = 12);
  check_true "paired background sample"
    (match Json.to_list (Json.member "points" proj) with
     | p :: _ -> Json.member_opt "bx" p <> None && Json.member_opt "by" p <> None
     | [] -> false);
  let r = req svc "GET" "/sessions" in
  status_is "list" 200 r;
  check_true "listed" (Json.to_int (Json.member "count" (json_of r)) = 1);
  status_is "summary" 200 (req svc "GET" ("/sessions/" ^ id));
  status_is "delete" 204 (req svc "DELETE" ("/sessions/" ^ id));
  status_is "gone" 404 (req svc "GET" ("/sessions/" ^ id))

(* The stage series the end-to-end benchmark reads from /metrics
   ([Service.queue_s] ... [Service.project_s]): every request observes
   its queue wait, a journaled constraint, update and view their journal
   append, the update its solve, and the view and the projection GET
   their print. *)
let test_stage_series () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sider_obs.Obs.reset ();
  Fun.protect ~finally:Sider_obs.Obs.reset @@ fun () ->
  with_sink (Some Sider_obs.Obs.null_sink) @@ fun () ->
  with_service ~data_dir:dir @@ fun svc ->
  let id = create_session svc in
  let session path = "/sessions/" ^ id ^ path in
  status_is "constraint" 200
    (req svc ~body:cluster_body "POST" (session "/constraints"));
  status_is "update" 200 (req svc ~body:update_body "POST" (session "/update"));
  status_is "view" 200
    (req svc ~body:{|{"method":"pca"}|} "POST" (session "/view"));
  status_is "projection" 200 (req svc "GET" (session "/projection"));
  let r = req svc "GET" "/metrics" in
  status_is "metrics" 200 r;
  let samples =
    String.split_on_char '\n' r.Http.r_body
    |> List.filter_map Serve.parse_sample
  in
  let sample name stage =
    match
      List.find_opt
        (fun (n, ls, _) -> n = name && ls = [ ("stage", stage) ])
        samples
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "%s{stage=%S} missing from /metrics" name stage
  in
  List.iter
    (fun (stage, count) ->
      Alcotest.(check (float 0.0)) (stage ^ " count") (float_of_int count)
        (sample "sider_serve_stage_s_count" stage);
      let sum = sample "sider_serve_stage_s_sum" stage in
      check_true (stage ^ " sum is a finite non-negative time")
        (Float.is_finite sum && sum >= 0.0))
    (* Six requests wait in the queue: the five above and the scrape. *)
    [ ("queue", 6); ("journal", 3); ("solve", 1); ("project", 2) ];
  check_true "the solve took time"
    (sample "sider_serve_stage_s_sum" "solve" > 0.0)

(* --- validation and error mapping ------------------------------------------------ *)

let test_error_mapping () =
  let config = { Service.default_config with max_body = 4096 } in
  with_service ~config @@ fun svc ->
  status_is "unknown path" 404 (req svc "GET" "/nope");
  status_is "unknown session" 404 (req svc "GET" "/sessions/s-999");
  status_is "wrong method" 405 (req svc "PUT" "/sessions");
  status_is "malformed json" 400 (req svc ~body:"{not json" "POST" "/sessions");
  status_is "missing dataset" 400 (req svc ~body:"{}" "POST" "/sessions");
  let id = create_session svc in
  status_is "unknown constraint type" 400
    (req svc ~body:{|{"type":"sphere"}|} "POST"
       ("/sessions/" ^ id ^ "/constraints"));
  status_is "rows out of range" 400
    (req svc ~body:{|{"type":"cluster","rows":[0,99]}|} "POST"
       ("/sessions/" ^ id ^ "/constraints"));
  status_is "empty rows" 400
    (req svc ~body:{|{"type":"cluster","rows":[]}|} "POST"
       ("/sessions/" ^ id ^ "/constraints"));
  status_is "unknown method name" 400
    (req svc ~body:{|{"method":"tsne"}|} "POST" ("/sessions/" ^ id ^ "/view"));
  let big = String.make 8192 'x' in
  status_is "body over cap" 413 (req svc ~body:big "POST" "/sessions");
  (* The error body is structured. *)
  let r = req svc ~body:"{not json" "POST" "/sessions" in
  check_true "structured error body"
    (Json.member_opt "error" (json_of r) <> None)

let test_degenerate_dataset_maps_to_400 () =
  with_service @@ fun svc ->
  (* A dataset with a NaN cell: Session.create rejects it, and the
     service must answer 400, not crash the worker. *)
  let body =
    {|{"dataset":{"name":"bad","columns":["a","b"],"data":[[1.0,2.0],[null,3.0]]}}|}
  in
  let r = req svc ~body "POST" "/sessions" in
  check_true "client error for degenerate data"
    (r.Http.status = 400 || r.Http.status = 422);
  (* The worker survived. *)
  status_is "still alive" 200 (req svc "GET" "/healthz")

(* Smaller data has no 2-D view.  A one-row session used to get a 201,
   an update that could not converge and a journaled view that then
   failed, and recovery skipped its journal; every such shape now gets
   one 400 before anything is created or journaled. *)
let test_tiny_datasets_refused () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  with_service ~data_dir:dir @@ fun svc ->
  List.iter
    (fun (shape, columns, data, expected) ->
      let body =
        Printf.sprintf
          {|{"dataset":{"name":"t","columns":%s,"labels":null,"data":%s}}|}
          columns data
      in
      let r = req svc ~body "POST" "/sessions" in
      status_is shape 400 r;
      Alcotest.(check string) shape
        ("dataset must have at least 2 rows and 2 columns, got " ^ expected)
        (Json.to_str (Json.member "detail" (json_of r))))
    [ ("zero rows", {|["a","b"]|}, "[]", "0 x 2");
      ("one row", {|["a","b"]|}, "[[1,2]]", "1 x 2");
      ("zero columns", "[]", "[[],[],[]]", "3 x 0");
      ("one column", {|["a"]|}, "[[1],[2],[3]]", "3 x 1") ];
  check_true "no session created"
    (Json.to_int (Json.member "count" (json_of (req svc "GET" "/sessions"))) = 0);
  check_true "nothing journaled" (Sys.readdir dir = [||])

(* An integer beyond 2^53 used to wrap through int_of_float (1e19 read
   as 0, so row 0 was constrained); now it is a 400 and nothing moves. *)
let test_out_of_range_integers_refused () =
  with_service @@ fun svc ->
  let body =
    Json.to_string
      (Json.Obj
         [ ("dataset", Persist.dataset_to_json (tiny_dataset ()));
           ("seed", Json.Number 1e19) ])
  in
  status_is "seed 1e19" 400 (req svc ~body "POST" "/sessions");
  let id = create_session svc in
  let path = "/sessions/" ^ id in
  status_is "row 1e19" 400
    (req svc ~body:{|{"type":"cluster","rows":[1e19,2]}|} "POST"
       (path ^ "/constraints"));
  status_is "max_sweeps 1e19" 400
    (req svc ~body:{|{"max_sweeps":1e19}|} "POST" (path ^ "/update"));
  let summary = json_of (req svc "GET" path) in
  check_true "no constraint added"
    (Json.to_int (Json.member "constraints" summary) = 0);
  check_true "no event recorded" (Json.to_int (Json.member "events" summary) = 0)

(* A megabyte of '[' is a 400 from the depth bound, not a deep
   recursion, and the one worker goes on serving. *)
let test_deep_nesting_refused () =
  let config = { Service.default_config with workers = 1 } in
  with_service ~config @@ fun svc ->
  let r = req svc ~body:(String.make (1 lsl 20) '[') "POST" "/sessions" in
  status_is "deep nesting" 400 r;
  Alcotest.(check string) "malformed-json" "malformed-json"
    (Json.to_str (Json.member "error" (json_of r)));
  status_is "still alive" 200 (req svc "GET" "/healthz");
  ignore (create_session svc)

(* Decoding a create body at the projection_reads benchmark's shape
   reads the rows straight into float blocks small enough for the minor
   heap and copies them into one array of exactly n·d cells: at most
   5·n·d words in all, and under n·d + 2·n on the major heap (17,410
   when written: the cells and the shared labels' array).  Gathering
   the cells in a doubling array put 34,825 words there; parsing the
   body to a tree and decoding that allocates 12.9·n·d. *)
let test_create_decode_allocation () =
  let ds = reads_dataset () in
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  (* Built as bench/e2e/plan.ml builds a create body. *)
  let body =
    Printf.sprintf {|{"dataset":%s,"method":"pca","seed":1}|}
      (Json.to_string (Persist.dataset_to_json ds))
  in
  let before = major_words () in
  let c, words = allocated_words (fun () -> Service.decode_create body) in
  let major = int_of_float (major_words () -. before) in
  check_true "decoded the shape"
    (Dataset.n_rows c.Service.dataset = n && Dataset.n_cols c.Service.dataset = d);
  if words > 5 * n * d then
    Alcotest.failf "decoding a create body allocated %d words, over 5nd = %d"
      words (5 * n * d);
  if major >= (n * d) + (2 * n) then
    Alcotest.failf
      "decoding a create body put %d words on the major heap, nd + 2n = %d"
      major ((n * d) + (2 * n))

(* A worker reads every request head into the one buffer it keeps, and a
   connection keeps only what it pipelined: once the buffer is warm, a
   keep-alive request's read puts nothing on the major heap.  A fresh
   8 KiB buffer a read put 1,025 words there.  Each request is read
   alone, then two arrive in one write and the second is read from what
   the first left pending. *)
let test_warm_read_major_heap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  let rb = Http.read_buffer () and r = Http.reader b in
  let get = "GET /sessions/s1/projection HTTP/1.1\r\nHost: x\r\n\r\n" in
  let post =
    Printf.sprintf
      "POST /sessions/s1/constraints HTTP/1.1\r\nHost: x\r\n\
       Content-Length: %d\r\n\r\n%s"
      (String.length cluster_body) cluster_body
  in
  let send text = ignore (Unix.write_substring a text 0 (String.length text)) in
  let projection = "/sessions/s1/projection"
  and constraints = "/sessions/s1/constraints" in
  (* Reads one request, which must be for [path]; returns the words its
     read put on the major heap. *)
  let read path =
    let before = major_words () in
    let got = Http.read_request_buffered rb r in
    let major = int_of_float (major_words () -. before) in
    (match got with
     | Ok req when req.Http.path = path -> ()
     | Ok req -> Alcotest.failf "read %s, expected %s" req.Http.path path
     | Error _ -> Alcotest.failf "%s: the request did not read" path);
    major
  in
  send get;
  ignore (read projection);
  List.iter
    (fun (what, text, paths) ->
      send text;
      List.iter
        (fun path ->
          let major = read path in
          if major > 0 then
            Alcotest.failf "%s, %s: %d words on the major heap" what path major)
        paths)
    [ ("get", get, [ projection ]);
      ("post", post, [ constraints ]);
      ("pipelined", get ^ post, [ projection; constraints ]) ];
  check_true "nothing left pending" (not (Http.reader_has_pending r))

(* --- create bodies: cursor decode against the tree ------------------------------ *)

(* The create route as it was before bodies were read with a cursor:
   the body parsed to a tree, the dataset decoded from it by the
   accessors, then each check in turn, then [Session.create].  Returns
   the status, error label and detail the route answered. *)
let reference_dataset_of_json j =
  let refuse msg = Sider_robust.Sider_error.(raise_ (degenerate_data msg)) in
  try
    let name = Json.to_str (Json.member "name" j) in
    let columns =
      Json.to_list (Json.member "columns" j) |> List.map Json.to_str
      |> Array.of_list
    in
    let labels =
      match Json.member "labels" j with
      | Json.Null -> None
      | l -> Some (Json.to_list l |> List.map Json.to_str |> Array.of_list)
    in
    let rows = Json.to_list (Json.member "data" j) in
    let d = Array.length columns in
    let m = Sider_linalg.Mat.create (List.length rows) d in
    List.iteri
      (fun i row ->
        let cells = Json.to_floats row in
        if Array.length cells <> d then
          refuse
            (Printf.sprintf "dataset: row %d has %d cells, expected %d" i
               (Array.length cells) d);
        Sider_linalg.Mat.set_row m i cells)
      rows;
    Dataset.create ~name ?labels ~columns m
  with
  | Failure msg | Invalid_argument msg -> refuse ("dataset: " ^ msg)
  | Not_found -> refuse "dataset: required field missing"

exception Refused of int * string * string

let reference_create body =
  let bad msg = raise (Refused (400, "bad-request", msg)) in
  try
    let j = if String.trim body = "" then Json.Obj [] else Json.of_string body in
    let ds =
      match Json.member_opt "dataset" j with
      | Some d -> reference_dataset_of_json d
      | None -> bad "missing required field \"dataset\""
    in
    let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
    if n < 2 || d < 2 then
      bad
        (Printf.sprintf
           "dataset must have at least 2 rows and 2 columns, got %d x %d" n d);
    let opt key conv default =
      match Json.member_opt key j with Some v -> conv v | None -> default
    in
    let seed = opt "seed" Json.to_int 42 in
    let standardize = opt "standardize" Json.to_bool true in
    let jitter = opt "jitter" Json.to_float 1e-3 in
    let method_ =
      match opt "method" Json.to_str "pca" with
      | "pca" -> Sider_projection.View.Pca
      | "ica" -> Sider_projection.View.Ica
      | other ->
        bad
          (Printf.sprintf
             "unknown projection method %S (expected \"pca\" or \"ica\")"
             other)
    in
    ignore (Session.create ~seed ~standardize ~jitter ~method_ ds);
    Ok (ds, seed, standardize, jitter, method_)
  with
  | Refused (status, label, detail) -> Error (status, label, detail)
  | Json.Parse_error m -> Error (400, "malformed-json", m)
  | Sider_robust.Sider_error.Error e ->
    let status =
      match e with
      | Sider_robust.Sider_error.Degenerate_data _ -> 400
      | Sider_robust.Sider_error.Io_failure _ -> 503
      | _ -> 422
    in
    Error
      ( status,
        Sider_robust.Sider_error.label e,
        (Sider_robust.Sider_error.context_of e).Sider_robust.Sider_error.detail )
  | Not_found -> Error (400, "bad-request", "missing required field")
  | Invalid_argument m | Failure m -> Error (400, "bad-request", m)

(* Random create bodies, as trees: small datasets with awkward strings
   and numbers, then a few mutations from the list the cursor decoder
   must refuse (or accept) as the tree path did. *)
module Body_gen = struct
  let pick st a = a.(Random.State.int st (Array.length a))

  let awkward_string st =
    String.concat ""
      (List.init (Random.State.int st 5) (fun _ ->
           pick st [| "a"; "Z"; " "; "\""; "\\"; "\n"; "\t"; "\001"; "/"; "\xc3\xa9" |]))

  let number st =
    match Random.State.int st 4 with
    | 0 -> Random.State.float st 20.0 -. 10.0
    | 1 -> float_of_int (Random.State.int st 2001 - 1000)
    | 2 ->
      pick st
        [| -0.0; 0.0; 1e15; 999999999999999.0; 5e-324; 1e-310; 1e20; 0.1;
           -1e-7; 123456.789 |]
    | _ -> Random.State.float st 1.0

  let junk st =
    pick st
      [| Json.Null; Json.Bool true; Json.String "1"; Json.List [ Json.Number 1.0 ];
         Json.Obj []; Json.Number 1e19 |]

  (* Mostly at least 2×2; one in eight sizes is smaller. *)
  let size st k =
    if Random.State.int st 8 = 0 then Random.State.int st 2
    else 2 + Random.State.int st k

  let dataset st =
    let n = size st 5 in
    let d = size st 3 in
    let strings k =
      Json.List
        (List.init k (fun i -> Json.String (string_of_int i ^ awkward_string st)))
    in
    let labels =
      if Random.State.bool st then Json.Null
      else
        Json.List
          (List.init n (fun i ->
               Json.String (if i mod 2 = 0 then "a" else awkward_string st)))
    in
    let row _ = Json.List (List.init d (fun _ -> Json.Number (number st))) in
    Json.Obj
      [ ("name", Json.String (awkward_string st)); ("columns", strings d);
        ("labels", labels); ("rows", Json.Number (float_of_int n));
        ("cols", Json.Number (float_of_int d));
        ("data", Json.List (List.init n row)) ]

  let body st =
    let fields =
      [ ("dataset", dataset st);
        ("method", Json.String (pick st [| "pca"; "ica" |])) ]
    in
    let maybe odds field fields =
      if Random.State.int st odds = 0 then fields @ [ field () ] else fields
    in
    fields
    |> maybe 2 (fun () ->
           ("seed", Json.Number (float_of_int (Random.State.int st 100))))
    |> maybe 4 (fun () -> ("standardize", Json.Bool (Random.State.bool st)))
    |> maybe 4 (fun () ->
           ("jitter", Json.Number (pick st [| 0.0; 1e-3; 0.01 |])))
    |> fun fields -> Json.Obj fields

  let shuffle st l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a

  let map_nth st l f =
    if l = [] then l
    else
      let k = Random.State.int st (List.length l) in
      List.mapi (fun i x -> if i = k then f x else x) l

  let remove_nth st l =
    if l = [] then l
    else
      let k = Random.State.int st (List.length l) in
      List.filteri (fun i _ -> i <> k) l

  let insert st l x =
    let k = Random.State.int st (List.length l + 1) in
    List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)

  let on_top f = function Json.Obj top -> Json.Obj (f top) | j -> j

  (* Applies [f] to the fields of the dataset object, when there is one. *)
  let on_dataset f =
    on_top
      (List.map (function
        | "dataset", Json.Obj ds -> ("dataset", Json.Obj (f ds))
        | kv -> kv))

  let on_rows f =
    on_dataset
      (List.map (function
        | "data", Json.List rows -> ("data", Json.List (f rows))
        | kv -> kv))

  let on_a_row st f = on_rows (fun rows -> map_nth st rows f)

  let on_cells f = function Json.List cells -> Json.List (f cells) | r -> r

  (* A random field of [fields] with [value] of its value, if any. *)
  let repeat st fields value =
    match fields with
    | [] -> []
    | _ ->
      let k, v = List.nth fields (Random.State.int st (List.length fields)) in
      [ (k, value v) ]

  let mutate st j =
    match Random.State.int st 16 with
    | 0 -> on_top (shuffle st) j
    | 1 -> on_dataset (shuffle st) j
    | 2 -> (* a repeated key, appended: the first counts *)
      on_top (fun top -> top @ repeat st top (fun _ -> junk st)) j
    | 3 ->
      on_dataset
        (fun ds ->
          match repeat st ds (fun v -> if Random.State.bool st then v else junk st) with
          | [] -> ds
          | kv :: _ -> insert st ds kv)
        j
    | 4 -> on_top (fun top -> insert st top ("extra", junk st)) j
    | 5 -> on_dataset (fun ds -> insert st ds ("extra", junk st)) j
    | 6 -> (* a ragged row *)
      on_a_row st
        (on_cells (fun cells ->
             if Random.State.bool st then Json.Number 1.0 :: cells
             else remove_nth st cells))
        j
    | 7 -> (* a cell that is not a number *)
      on_a_row st (on_cells (fun cells -> map_nth st cells (fun _ -> junk st))) j
    | 8 -> on_a_row st (fun _ -> junk st) j
    | 9 -> on_dataset (remove_nth st) j
    | 10 -> on_top (remove_nth st) j
    | 11 -> (* integers beyond 2^53, and other out-of-type scalars *)
      let scalar =
        pick st
          [| Json.Number 1e19; Json.Number 9007199254740994.0;
             Json.Number 1.5; Json.Number 1e999; Json.String "tsne"; Json.Null |]
      in
      let key = pick st [| "seed"; "standardize"; "jitter"; "method" |] in
      on_top
        (fun top -> List.filter (fun (k, _) -> k = "dataset") top @ [ (key, scalar) ])
        j
    | 12 -> (* one label short *)
      on_dataset
        (List.map (function
          | "labels", Json.List (_ :: l) -> ("labels", Json.List l)
          | kv -> kv))
        j
    | 13 ->
      on_dataset
        (List.map (fun (k, v) ->
             if k = "data" || k = "columns" then (k, junk st) else (k, v)))
        j
    | 14 ->
      on_top (List.map (fun (k, v) -> if k = "dataset" then (k, junk st) else (k, v))) j
    | _ -> (* a non-finite cell *)
      on_a_row st
        (on_cells (fun cells ->
             map_nth st cells (fun _ -> Json.Number (pick st [| 1e999; -1e999 |]))))
        j

  (* [Json.to_string]'s bytes, or the same tree with random whitespace
     between its tokens. *)
  let print st j =
    if Random.State.bool st then Json.to_string j
    else begin
      let b = Buffer.create 256 in
      let ws () =
        if Random.State.int st 3 = 0 then
          Buffer.add_string b (pick st [| " "; "\n"; "\t"; "\r\n  " |])
      in
      let rec go j =
        ws ();
        (match j with
         | Json.List items ->
           Buffer.add_char b '[';
           List.iteri (fun i x -> if i > 0 then (ws (); Buffer.add_char b ','); go x) items;
           ws ();
           Buffer.add_char b ']'
         | Json.Obj fields ->
           Buffer.add_char b '{';
           List.iteri
             (fun i (k, v) ->
               if i > 0 then (ws (); Buffer.add_char b ',');
               ws ();
               Buffer.add_string b (Json.to_string (Json.String k));
               ws ();
               Buffer.add_char b ':';
               go v)
             fields;
           ws ();
           Buffer.add_char b '}'
         | scalar -> Buffer.add_string b (Json.to_string scalar));
        ws ()
      in
      go j;
      Buffer.contents b
    end

  (* A syntax error at the very end, after any semantic fault the
     mutations planted. *)
  let break_syntax st s =
    let n = String.length s in
    match Random.State.int st 4 with
    | 0 -> String.sub s 0 (n - 1)
    | 1 -> s ^ " x"
    | 2 -> (match String.rindex_opt s '}' with Some i -> String.sub s 0 i ^ ",}" | None -> s ^ "{")
    | _ -> (match String.rindex_opt s '}' with Some i -> String.sub s 0 i ^ "]" | None -> s ^ "]")

  let generate st =
    let j = ref (body st) in
    for _ = 1 to Random.State.int st 4 do
      j := mutate st !j
    done;
    let s = print st !j in
    if Random.State.int st 5 = 0 then break_syntax st s else s
end

let same_dataset (a : Dataset.t) (b : Dataset.t) =
  let cells ds = (Dataset.matrix ds).Sider_linalg.Mat.a in
  Dataset.name a = Dataset.name b
  && Dataset.columns a = Dataset.columns b
  && Dataset.labels a = Dataset.labels b
  && Sider_linalg.Mat.dims (Dataset.matrix a) = Sider_linalg.Mat.dims (Dataset.matrix b)
  && Array.for_all2 same_bits (cells a) (cells b)

(* The same body as a worker meets it: a POST over a socket, written in
   [Http.read_step] pieces, read and decoded as its bytes arrive.  The
   rows go from the reads straight into the decoder's blocks, so reading
   and decoding put on the major heap only what the decode keeps (the
   cells and the shared labels' array, 17,410 words), at most nd + 2n.
   Reading the body into a string of its length first put its 329,354
   bytes there as well: 58,581 words. *)
let test_streamed_create_major_heap () =
  let ds = reads_dataset () in
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  let body =
    Printf.sprintf {|{"dataset":%s,"method":"pca","seed":1}|}
      (Json.to_string (Persist.dataset_to_json ds))
  in
  let text =
    Printf.sprintf "POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  (* As [Service.start] does: a write to a closed peer fails with
     EPIPE, so a failed read below ends the writer, not the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let write () =
    let rec go at =
      if at < String.length text then
        go (at + Unix.write_substring a text at (min Http.read_step (String.length text - at)))
    in
    try go 0 with Unix.Unix_error _ -> ()
  in
  let writer = Thread.create write () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown b Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join writer;
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  let rb = Http.read_buffer () and r = Http.reader b in
  let before = major_words () in
  let c =
    match Http.read_request_buffered rb r with
    | Error _ -> Alcotest.fail "the request did not read"
    | Ok req ->
      let c = Service.read_create (Http.body_cursor req) in
      if Http.finish_body req <> Ok () then Alcotest.fail "the body did not finish";
      c
  in
  let major = int_of_float (major_words () -. before) in
  check_true "decoded the shape"
    (Dataset.n_rows c.Service.dataset = n && Dataset.n_cols c.Service.dataset = d);
  check_true "decoded the dataset's bits" (same_dataset ds c.Service.dataset);
  check_true "nothing left pending" (not (Http.reader_has_pending r));
  if major > (n * d) + (2 * n) then
    Alcotest.failf
      "reading and decoding a create body put %d words on the major heap, nd + 2n = %d"
      major ((n * d) + (2 * n))

(* A warm client create allocates about one copy of its body: the
   request goes out as one [Bytes] of exactly head + body.  The server is
   a thread of this domain that reads into one preallocated buffer and
   answers a fixed 201, so nothing it does in the window is counted. *)
let test_client_create_words () =
  let body =
    Printf.sprintf {|{"dataset":%s,"method":"pca","seed":1}|}
      (Json.to_string (Persist.dataset_to_json (reads_dataset ())))
  in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lsock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "loopback socket has no port"
  in
  let buf = Bytes.create 65536 in
  let answer =
    Bytes.of_string "HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}"
  in
  (* Reads up to the blank line that ends a request's head, then the
     body's length past it. *)
  let read_request c =
    let crlf = ref 0 and left = ref max_int in
    while !left > 0 do
      let k = Unix.read c buf 0 (Bytes.length buf) in
      if k = 0 then raise End_of_file;
      if !left = max_int then begin
        let i = ref 0 in
        while !left = max_int && !i < k do
          let ch = Bytes.get buf !i in
          crlf :=
            if ch = (if !crlf land 1 = 0 then '\r' else '\n') then !crlf + 1
            else if ch = '\r' then 1
            else 0;
          incr i;
          if !crlf = 4 then left := String.length body - (k - !i)
        done
      end
      else left := !left - k
    done
  in
  let serve () =
    match Unix.select [ lsock ] [] [] 10.0 with
    | [], _, _ -> ()
    | _ ->
      let c, _ = Unix.accept lsock in
      Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
      Unix.setsockopt_float c Unix.SO_RCVTIMEO 10.0;
      (try
         for _ = 1 to 2 do
           read_request c;
           ignore (Unix.write c answer 0 (Bytes.length answer))
         done
       with End_of_file | Unix.Unix_error _ -> ())
  in
  let server = Thread.create serve () in
  Fun.protect ~finally:(fun () -> Thread.join server) @@ fun () ->
  let c = Http.client ~timeout_s:10.0 ~port () in
  Fun.protect ~finally:(fun () -> Http.client_close c) @@ fun () ->
  let send () = Http.client_request ~body c ~meth:"POST" "/sessions" in
  let created what = function
    | Ok r -> Alcotest.(check int) what 201 r.Http.status
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  created "first create" (send ());
  let r, words = allocated_words send in
  created "warm create" r;
  let body_words = String.length body / 8 in
  if words > body_words + 1024 then
    Alcotest.failf
      "a warm create of a %d-byte body allocated %d words; one copy is %d"
      (String.length body) words body_words

(* Every body gets the status, error label and detail the tree path
   gave, over HTTP; an accepted one decodes to the bits of
   [Persist.dataset_of_json] on its tree, and to the same arguments. *)
let test_create_decode_matches_tree () =
  with_service @@ fun svc ->
  let st = Random.State.make [| 2305 |] in
  let tally = Hashtbl.create 8 in
  for i = 1 to 400 do
    let body = Body_gen.generate st in
    let fail what = Alcotest.failf "body %d %S: %s" i body what in
    let r = req svc ~body "POST" "/sessions" in
    match reference_create body with
    | Error (status, label, detail) ->
      Hashtbl.replace tally label ();
      let j = json_of r in
      let got =
        (r.Http.status, Json.to_str (Json.member "error" j),
         Json.to_str (Json.member "detail" j))
      in
      if got <> (status, label, detail) then
        let s, l, d = got in
        fail
          (Printf.sprintf "answered %d %s %S, the tree path %d %s %S" s l d
             status label detail)
    | Ok (ds, seed, standardize, jitter, method_) ->
      Hashtbl.replace tally "accepted" ();
      if r.Http.status <> 201 then
        fail (Printf.sprintf "answered %d %s" r.Http.status r.Http.r_body);
      let id = Json.to_str (Json.member "id" (json_of r)) in
      status_is "delete" 204 (req svc "DELETE" ("/sessions/" ^ id));
      let c = Service.decode_create body in
      if not (same_dataset
                (Persist.dataset_of_json (Json.member "dataset" (Json.of_string body)))
                c.Service.dataset
              && same_dataset ds c.Service.dataset)
      then fail "decoded dataset differs";
      if not (c.Service.seed = seed && c.Service.standardize = standardize
              && same_bits c.Service.jitter jitter && c.Service.method_ = method_)
      then fail "decoded arguments differ"
  done;
  (* The population reaches both outcomes and every refusal label. *)
  List.iter
    (fun k -> check_true ("some " ^ k) (Hashtbl.mem tally k))
    [ "accepted"; "malformed-json"; "degenerate-data"; "bad-request" ]

(* What a decode ends in, as comparable text: the arguments' bits or the
   exception with its message. *)
let create_outcome f =
  match f () with
  | (c : Service.create) ->
    let cells = (Dataset.matrix c.dataset).Sider_linalg.Mat.a in
    Ok (c, Array.map Int64.bits_of_float cells)
  | exception Json.Parse_error m -> Error ("malformed-json: " ^ m)
  | exception Sider_robust.Sider_error.Error e ->
    Error
      (Sider_robust.Sider_error.label e ^ ": "
       ^ (Sider_robust.Sider_error.context_of e).Sider_robust.Sider_error.detail)
  | exception e -> Error (Printexc.to_string e)

(* A create body read as it arrives, cut anywhere (one byte a read in a
   quarter of the cases) and through windows of 16 to 80 bytes, decodes
   to the bits and arguments the whole-string decode gives, or raises
   its error with the same text and position. *)
let prop_streamed_create_matches_string =
  qcheck ~count:400 "create decode: a body read in pieces decodes as the whole"
    (QCheck.make
       ~print:(fun (seed, window, pieces) ->
         Printf.sprintf "%S, window %d, pieces [%s]"
           (Body_gen.generate (Random.State.make [| seed |]))
           window
           (String.concat ";" (Array.to_list (Array.map string_of_int pieces))))
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_range 16 80)
           (oneof [ return [| 1 |]; array_size (int_range 1 6) (int_range 1 40) ])))
    (fun (seed, window, pieces) ->
      let body = Body_gen.generate (Random.State.make [| seed |]) in
      match
        ( create_outcome (fun () -> Service.decode_create body),
          create_outcome (fun () ->
              Service.read_create (piecewise_cursor ~window ~pieces body)) )
      with
      | Ok (a, abits), Ok (b, bbits) ->
        same_dataset a.Service.dataset b.Service.dataset
        && abits = bbits && a.Service.seed = b.Service.seed
        && a.Service.standardize = b.Service.standardize
        && same_bits a.Service.jitter b.Service.jitter
        && a.Service.method_ = b.Service.method_
      | Error a, Error b -> String.equal a b
      | _ -> false)

(* --- overload handling ----------------------------------------------------------- *)

let test_queue_full_sheds_429 () =
  let config =
    { Service.default_config with workers = 1; queue_capacity = 1 }
  in
  with_service ~config @@ fun svc ->
  (* Hold the single worker busy, fill the one queue slot, then expect
     an immediate 429 with Retry-After from the poller. *)
  Fault.arm (Fault.Svc_delay_request { path_substr = "/healthz"; ms = 1200 });
  let results = Array.make 3 None in
  let fire i =
    Thread.create
      (fun () ->
        results.(i) <-
          Some (Http.request ~meth:"GET" ~port:(Service.port svc) "/healthz"))
      ()
  in
  let t1 = fire 0 in
  Thread.delay 0.3;
  let t2 = fire 1 in
  Thread.delay 0.3;
  let t3 = fire 2 in
  List.iter Thread.join [ t1; t2; t3 ];
  let statuses =
    Array.to_list results
    |> List.filter_map (function
        | Some (Ok r) -> Some r
        | _ -> None)
  in
  check_true "someone was shed with 429"
    (List.exists (fun r -> r.Http.status = 429) statuses);
  let shed = List.find (fun r -> r.Http.status = 429) statuses in
  check_true "Retry-After present" (header shed "retry-after" = Some "1");
  check_true "someone was served"
    (List.exists (fun r -> r.Http.status = 200) statuses);
  (* The service recovers once the burst passes. *)
  status_is "healthy after burst" 200 (req svc "GET" "/healthz")

let test_deadline_expired_sheds_503 () =
  let config = { Service.default_config with deadline_s = 0.0 } in
  with_service ~config @@ fun svc ->
  let r = req svc "GET" "/healthz" in
  status_is "past deadline" 503 r;
  check_true "Retry-After present" (header r "retry-after" = Some "1")

let test_max_sessions_sheds_429 () =
  let config = { Service.default_config with max_sessions = 1 } in
  with_service ~config @@ fun svc ->
  ignore (create_session svc);
  status_is "capacity reached" 429
    (req svc ~body:(create_body ()) "POST" "/sessions")

let test_slow_client_gets_408 () =
  let config = { Service.default_config with read_timeout_s = 0.3 } in
  with_service ~config @@ fun svc ->
  (* Connect and go silent: the worker must answer 408 instead of
     wedging on the dead read. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Service.port svc));
      let buf = Bytes.create 1024 in
      let n = Unix.read sock buf 0 1024 in
      let head = Bytes.sub_string buf 0 n in
      check_true "408 answered"
        (String.length head >= 12 && String.sub head 9 3 = "408"))

(* --- fault injection -------------------------------------------------------------- *)

let test_drop_and_truncate_requests () =
  with_service @@ fun svc ->
  let id = create_session svc in
  (* Drop: the connection dies without a response; the service lives. *)
  Fault.arm (Fault.Svc_drop_request { path_substr = "/constraints" });
  (match
     Http.request ~body:cluster_body ~meth:"POST" ~port:(Service.port svc)
       ("/sessions/" ^ id ^ "/constraints")
   with
   | Error _ -> ()
   | Ok r -> Alcotest.failf "expected a dropped connection, got %d" r.Http.status);
  (* Truncate: half the body is discarded -> malformed JSON -> 400,
     and the mutation must not have been applied. *)
  Fault.arm (Fault.Svc_truncate_request { path_substr = "/constraints" });
  let r = req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints") in
  status_is "truncated body is a 400" 400 r;
  let summary = json_of (req svc "GET" ("/sessions/" ^ id)) in
  check_true "no constraint applied"
    (Json.to_int (Json.member "constraints" summary) = 0);
  (* Without faults the same request succeeds. *)
  status_is "clean retry works" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))

let test_journal_fail_append_maps_to_503 () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  with_service ~data_dir:dir @@ fun svc ->
  let id = create_session svc in
  Fault.arm (Fault.Journal_fail_append { path_substr = id });
  let r = req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints") in
  status_is "failed append is a 503" 503 r;
  (* Write-ahead: journal refused => nothing applied, session intact. *)
  let summary = json_of (req svc "GET" ("/sessions/" ^ id)) in
  check_true "mutation not applied"
    (Json.to_int (Json.member "constraints" summary) = 0);
  status_is "retry after fault works" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))

(* --- durability ------------------------------------------------------------------- *)

let test_restart_recovers_sessions () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let id, events, constraints =
    with_service ~data_dir:dir @@ fun svc ->
    let id = create_session svc in
    status_is "constraint" 200
      (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
    status_is "update" 200
      (req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
    let summary = json_of (req svc "GET" ("/sessions/" ^ id)) in
    ( id,
      Json.to_int (Json.member "events" summary),
      Json.to_int (Json.member "constraints" summary) )
  in
  (* A fresh service over the same directory restores the tenant. *)
  with_service ~data_dir:dir @@ fun svc2 ->
  check_true "no recovery failures" (Service.recovery_failures svc2 = []);
  let summary = json_of (req svc2 "GET" ("/sessions/" ^ id)) in
  check_true "events restored"
    (Json.to_int (Json.member "events" summary) = events);
  check_true "constraints restored"
    (Json.to_int (Json.member "constraints" summary) = constraints);
  status_is "projection after recovery" 200
    (req svc2 "GET" ("/sessions/" ^ id ^ "/projection"));
  (* New ids never collide with recovered ones. *)
  let id2 = create_session svc2 in
  check_true "fresh id" (id2 <> id)

let test_crash_between_journal_and_ack () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let id =
    with_service ~data_dir:dir @@ fun svc ->
    let id = create_session svc in
    Fault.arm (Fault.Svc_crash_after_journal { path_substr = "/constraints" });
    (* The client never gets an acknowledgement... *)
    (match
       Http.request ~body:cluster_body ~meth:"POST" ~port:(Service.port svc)
         ("/sessions/" ^ id ^ "/constraints")
     with
     | Error _ -> ()
     | Ok r ->
       Alcotest.failf "expected no response, got %d" r.Http.status);
    id
  in
  (* ...but the journaled event survives the restart: journaled-then-
     crashed is the one case where an unacknowledged mutation may
     persist (at-least-once), and it must replay cleanly. *)
  with_service ~data_dir:dir @@ fun svc2 ->
  check_true "no recovery failures" (Service.recovery_failures svc2 = []);
  let summary = json_of (req svc2 "GET" ("/sessions/" ^ id)) in
  check_true "journaled constraint recovered"
    (Json.to_int (Json.member "constraints" summary) > 0)

(* JSON has no infinity, yet an overflowing literal such as 1e999 reads
   as one.  A create or update carrying one must be refused before it
   is journaled: acknowledged, it would be written as [inf], which the
   restart cannot parse, and the session would be lost.  Every
   acknowledged session recovers. *)
let test_non_finite_inputs_refused () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let id =
    with_service ~data_dir:dir @@ fun svc ->
    let body = create_body () in
    let body =
      String.sub body 0 (String.length body - 1) ^ {|,"jitter":1e999}|}
    in
    status_is "infinite jitter" 400 (req svc ~body "POST" "/sessions");
    let id = create_session svc in
    status_is "infinite cutoff" 400
      (req svc ~body:{|{"time_cutoff":-1e999}|} "POST"
         ("/sessions/" ^ id ^ "/update"));
    status_is "finite cutoff" 200
      (req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
    id
  in
  with_service ~data_dir:dir @@ fun svc2 ->
  check_true "no recovery failures" (Service.recovery_failures svc2 = []);
  check_true "one session recovered"
    (Json.to_int (Json.member "count" (json_of (req svc2 "GET" "/sessions")))
     = 1);
  check_true "only the acknowledged update was journaled"
    (Json.to_int
       (Json.member "events" (json_of (req svc2 "GET" ("/sessions/" ^ id))))
     = 1)

(* An update that runs no sweep has no finite step sizes to report;
   they print as null, so the 200 body is still JSON.  The cutoff is
   negative because one of 0 still allows a sweep when the clock has not
   ticked since the solve started. *)
let test_zero_sweep_update_body_parses () =
  with_service @@ fun svc ->
  let id = create_session svc in
  status_is "constraint" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
  let r =
    req svc ~body:{|{"time_cutoff":-1}|} "POST" ("/sessions/" ^ id ^ "/update")
  in
  status_is "zero-sweep update" 200 r;
  let report = json_of r in
  check_true "no sweeps" (Json.to_int (Json.member "sweeps" report) = 0);
  check_true "step sizes are null"
    (Json.member "max_dlambda" report = Json.Null
     && Json.member "max_dparam" report = Json.Null)

let test_corrupt_journal_quarantined () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let id =
    with_service ~data_dir:dir @@ fun svc ->
    let id = create_session svc in
    status_is "constraint" 200
      (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
    id
  in
  (* Flip a byte inside the journal's first line. *)
  let path = Filename.concat dir (id ^ ".journal") in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string text in
  Bytes.set b 100 (if Bytes.get b 100 = '1' then '2' else '1');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  (* Boot continues: the bad tenant is reported, not fatal. *)
  with_service ~data_dir:dir @@ fun svc2 ->
  check_true "corruption reported"
    (List.length (Service.recovery_failures svc2) = 1);
  status_is "service is up" 200 (req svc2 "GET" "/healthz");
  status_is "bad tenant not resurrected" 404 (req svc2 "GET" ("/sessions/" ^ id));
  (* The quarantined tenant's id stays reserved: a new session gets a
     fresh id, and the corrupt-but-repairable journal survives on disk
     untouched instead of being truncated by a colliding journal_start. *)
  let id2 = create_session svc2 in
  check_true "quarantined id not reused" (id2 <> id);
  check_true "quarantined journal left intact for repair"
    (In_channel.with_open_bin path In_channel.input_all = Bytes.to_string b)

(* --- concurrency ------------------------------------------------------------------ *)

let test_concurrent_tenants () =
  let config = { Service.default_config with workers = 4; queue_capacity = 64 } in
  with_service ~config @@ fun svc ->
  (* Eight analysts in parallel, each driving a full loop on its own
     session; per-session serialization must keep every tenant coherent. *)
  let errors = Array.make 8 None in
  let analyst i =
    try
      let id = create_session svc in
      status_is "constraint" 200
        (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
      status_is "update" 200
        (req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
      status_is "projection" 200 (req svc "GET" ("/sessions/" ^ id ^ "/projection"))
    with e -> errors.(i) <- Some (Printexc.to_string e)
  in
  let threads = List.init 8 (fun i -> Thread.create analyst i) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i -> function
      | Some e -> Alcotest.failf "analyst %d: %s" i e
      | None -> ())
    errors;
  let r = req svc "GET" "/sessions" in
  check_true "all eight tenants live"
    (Json.to_int (Json.member "count" (json_of r)) = 8)

(* --- keep-alive connections -------------------------------------------------------- *)

(* A raw loopback socket with a receive timeout, for tests that need to
   observe the wire (pipelining, idle closes, torn requests). *)
let with_raw_socket svc f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Service.port svc));
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.0;
      f sock)

let write_string sock s =
  ignore (Unix.write_substring sock s 0 (String.length s))

(* Read [n] complete Content-Length-delimited responses off the socket;
   returns the list of (status, headers-and-body block). *)
let read_responses sock n =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec index_of_sub text from sub =
    let m = String.length sub in
    if from + m > String.length text then None
    else if String.sub text from m = sub then Some from
    else index_of_sub text (from + 1) sub
  in
  let parse_one from =
    let text = Buffer.contents buf in
    match index_of_sub text from "\r\n\r\n" with
    | None -> None
    | Some hdr_end ->
      let head = String.sub text from (hdr_end - from) in
      let clen =
        String.split_on_char '\n' head
        |> List.find_map (fun line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
              String.sub line (i + 1) (String.length line - i - 1)
              |> String.trim |> int_of_string_opt
            | _ -> None)
        |> Option.value ~default:0
      in
      let body_end = hdr_end + 4 + clen in
      if String.length text < body_end then None
      else
        let status = int_of_string (String.sub text (from + 9) 3) in
        Some ((status, String.sub text from (body_end - from)), body_end)
  in
  let rec collect acc from remaining =
    if remaining = 0 then List.rev acc
    else
      match parse_one from with
      | Some (resp, next) -> collect (resp :: acc) next (remaining - 1)
      | None ->
        let n_read = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n_read = 0 then
          Alcotest.failf "connection closed with %d response(s) pending"
            remaining
        else begin
          Buffer.add_subbytes buf chunk 0 n_read;
          collect acc from remaining
        end
  in
  collect [] 0 n

let test_keepalive_sequential_requests () =
  with_service @@ fun svc ->
  (* One persistent client connection across the whole interaction
     loop: every response advertises keep-alive, and the session flow
     works exactly as over one-shot connections. *)
  let client = Http.client ~port:(Service.port svc) () in
  Fun.protect ~finally:(fun () -> Http.client_close client)
  @@ fun () ->
  let creq ?body meth path =
    match Http.client_request ?body client ~meth path with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s %s: %s" meth path e
  in
  let r = creq "GET" "/healthz" in
  status_is "healthz" 200 r;
  check_true "connection kept alive"
    (header r "connection" = Some "keep-alive");
  let r = creq ~body:(create_body ()) "POST" "/sessions" in
  status_is "create over keep-alive" 201 r;
  let id = Json.to_str (Json.member "id" (json_of r)) in
  status_is "constraint over keep-alive" 200
    (creq ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
  status_is "update over keep-alive" 200
    (creq ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
  status_is "projection over keep-alive" 200
    (creq "GET" ("/sessions/" ^ id ^ "/projection"))

let test_pipelined_requests_both_answered () =
  with_service @@ fun svc ->
  with_raw_socket svc @@ fun sock ->
  (* Two requests in one write: both must be answered, in order, on the
     same connection — the second's bytes arrived with the first and
     must survive in the reader's buffer. *)
  let one = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
  write_string sock (one ^ one);
  match read_responses sock 2 with
  | [ (s1, _); (s2, _) ] ->
    check_true "first pipelined response" (s1 = 200);
    check_true "second pipelined response" (s2 = 200)
  | other -> Alcotest.failf "expected 2 responses, got %d" (List.length other)

let test_idle_timeout_closes_connection () =
  let config = { Service.default_config with idle_timeout_s = 0.2 } in
  with_service ~config @@ fun svc ->
  with_raw_socket svc @@ fun sock ->
  write_string sock "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  (match read_responses sock 1 with
   | [ (200, _) ] -> ()
   | _ -> Alcotest.fail "healthz over keep-alive failed");
  (* Parked past the idle timeout: the poller must close the
     connection (EOF on our side), not leak it. *)
  let buf = Bytes.create 16 in
  check_true "idle connection closed by server"
    (Unix.read sock buf 0 16 = 0);
  (* And the service still serves fresh connections. *)
  status_is "still serving" 200 (req svc "GET" "/healthz")

let test_connection_close_honoured () =
  with_service @@ fun svc ->
  with_raw_socket svc @@ fun sock ->
  write_string sock
    "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  (match read_responses sock 1 with
   | [ (200, text) ] ->
     check_true "response says close"
       (let lower = String.lowercase_ascii text in
        let rec has i =
          i >= 0
          && (String.length lower - i >= 17
              && String.sub lower i 17 = "connection: close"
              || has (i - 1))
        in
        has (String.length lower - 17))
   | _ -> Alcotest.fail "healthz failed");
  let buf = Bytes.create 16 in
  check_true "server closed after Connection: close"
    (Unix.read sock buf 0 16 = 0)

let test_request_cap_rolls_connection () =
  let config = { Service.default_config with keepalive_requests = 2 } in
  with_service ~config @@ fun svc ->
  let client = Http.client ~port:(Service.port svc) () in
  Fun.protect ~finally:(fun () -> Http.client_close client)
  @@ fun () ->
  let creq () =
    match Http.client_request client ~meth:"GET" "/healthz" with
    | Ok r -> r
    | Error e -> Alcotest.failf "healthz: %s" e
  in
  let r1 = creq () in
  status_is "first" 200 r1;
  check_true "first kept alive" (header r1 "connection" = Some "keep-alive");
  let r2 = creq () in
  status_is "second" 200 r2;
  (* The cap is 2: the second response announces the close... *)
  check_true "cap closes connection" (header r2 "connection" = Some "close");
  (* ...and the client transparently reconnects for the third. *)
  let r3 = creq () in
  status_is "third (fresh connection)" 200 r3

let test_torn_request_leaves_service_healthy () =
  with_service @@ fun svc ->
  (* A keep-alive connection dies mid-request (half a body, then RST):
     the worker must drop it silently and the next connection must see
     a healthy service. *)
  with_raw_socket svc @@ fun sock ->
  write_string sock "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  (match read_responses sock 1 with
   | [ (200, _) ] -> ()
   | _ -> Alcotest.fail "first request failed");
  write_string sock
    "POST /sessions HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"tru";
  Unix.close sock;
  (* A fresh connection is unaffected. *)
  status_is "healthy after torn request" 200 (req svc "GET" "/healthz");
  let client = Http.client ~port:(Service.port svc) () in
  Fun.protect ~finally:(fun () -> Http.client_close client)
  @@ fun () ->
  match Http.client_request client ~meth:"GET" "/healthz" with
  | Ok r -> status_is "keep-alive after torn request" 200 r
  | Error e -> Alcotest.failf "healthz: %s" e

let test_stale_connection_post_not_retried () =
  let config = { Service.default_config with idle_timeout_s = 0.2 } in
  with_service ~config @@ fun svc ->
  let client = Http.client ~port:(Service.port svc) () in
  Fun.protect ~finally:(fun () -> Http.client_close client)
  @@ fun () ->
  (match Http.client_request client ~meth:"GET" "/healthz" with
   | Ok r -> status_is "warm-up" 200 r
   | Error e -> Alcotest.failf "healthz: %s" e);
  (* Let the server idle-close the parked connection, then send a
     mutation on the stale socket: a POST must surface the transport
     error, never be re-sent automatically — the server may have
     journaled a mutation just before a connection died. *)
  Thread.delay 0.5;
  (match
     Http.client_request ~body:(create_body ()) client ~meth:"POST" "/sessions"
   with
   | Error _ -> ()
   | Ok r ->
     Alcotest.failf "stale POST must not be auto-retried, got %d" r.Http.status);
  check_true "failed POST created nothing"
    (Json.to_int (Json.member "count" (json_of (req svc "GET" "/sessions"))) = 0);
  (* An idempotent request in the same situation reconnects and retries
     transparently. *)
  (match Http.client_request client ~meth:"GET" "/healthz" with
   | Ok r -> status_is "fresh GET after error" 200 r
   | Error e -> Alcotest.failf "GET reconnect: %s" e);
  Thread.delay 0.5;
  match Http.client_request client ~meth:"GET" "/healthz" with
  | Ok r -> status_is "stale GET retried transparently" 200 r
  | Error e -> Alcotest.failf "stale GET: %s" e

(* --- Content-Length spellings ------------------------------------------------------ *)

(* Content-Length is ASCII digits only.  Each spelling below is one that
   [int_of_string] reads as a number; the body is long enough for any
   of those readings, so a server that accepted one would parse a body
   and answer malformed-json instead. *)
let odd_content_lengths = [ "0x10"; "1_0"; "+5"; "-5"; "0o17"; "0b11"; "0u5" ]

let test_server_rejects_odd_content_length () =
  with_service @@ fun svc ->
  List.iter
    (fun v ->
      with_raw_socket svc @@ fun sock ->
      write_string sock
        (Printf.sprintf "POST /sessions HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s"
           v (String.make 16 ' '));
      match read_responses sock 1 with
      | [ (status, text) ] ->
        let rec body_at i =
          if String.sub text i 4 = "\r\n\r\n" then i + 4 else body_at (i + 1)
        in
        let at = body_at 0 in
        let body = String.sub text at (String.length text - at) in
        Alcotest.(check int) ("status for " ^ v) 400 status;
        Alcotest.(check string) ("error for " ^ v) "malformed-request"
          (Json.to_str (Json.member "error" (Json.of_string body)))
      | _ -> Alcotest.failf "no response for Content-Length %s" v)
    odd_content_lengths;
  status_is "still serving" 200 (req svc "GET" "/healthz")

(* A loopback server that answers one request with [response], bytes as
   given, for client paths a well-behaved service never takes. *)
let with_canned_server response f =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lsock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "loopback socket has no port"
  in
  let serve () =
    match Unix.select [ lsock ] [] [] 5.0 with
    | [], _, _ -> ()
    | _ ->
      let c, _ = Unix.accept lsock in
      Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
      ignore (Unix.read c (Bytes.create 4096) 0 4096);
      write_string c response;
      Unix.shutdown c Unix.SHUTDOWN_SEND
  in
  let server = Thread.create serve () in
  Fun.protect ~finally:(fun () -> Thread.join server) (fun () -> f port)

let test_client_rejects_odd_content_length () =
  List.iter
    (fun v ->
      with_canned_server
        (Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s" v
           (String.make 16 ' '))
      @@ fun port ->
      match Http.request ~timeout_s:5.0 ~meth:"GET" ~port "/healthz" with
      | Error e ->
        Alcotest.(check string) ("client error for " ^ v)
          ("bad content-length: " ^ v) e
      | Ok r ->
        Alcotest.failf "Content-Length %s accepted with status %d" v
          r.Http.status)
    odd_content_lengths

(* Several Content-Length fields: differing values are a 400 before
   anything is routed, and the connection closes (the body's extent is
   unknown); identical values read as one.  Session creation is the
   probe: a server that read the first field would parse a 2-byte body
   and answer malformed-json. *)
let test_server_rejects_differing_content_lengths () =
  with_service @@ fun svc ->
  let body = create_body () in
  let len = String.length body in
  let count () =
    Json.to_int (Json.member "count" (json_of (req svc "GET" "/sessions")))
  in
  let post first second =
    with_raw_socket svc @@ fun sock ->
    write_string sock
      (Printf.sprintf
         "POST /sessions HTTP/1.1\r\nContent-Length: %d\r\n\
          Content-Length: %d\r\n\r\n%s"
         first second body);
    match read_responses sock 1 with
    | [ (status, text) ] ->
      let at =
        let rec body_at i =
          if String.sub text i 4 = "\r\n\r\n" then i + 4 else body_at (i + 1)
        in
        body_at 0
      in
      let reply = Json.of_string (String.sub text at (String.length text - at)) in
      let closed =
        match Unix.read sock (Bytes.create 1) 0 1 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          false
      in
      (status, reply, closed)
    | _ -> Alcotest.failf "no response for Content-Length %d, %d" first second
  in
  let before = count () in
  let status, reply, closed = post 2 len in
  Alcotest.(check int) "differing values: status" 400 status;
  Alcotest.(check string) "differing values: error" "malformed-request"
    (Json.to_str (Json.member "error" reply));
  check_true "differing values: connection closed" closed;
  Alcotest.(check int) "differing values: no session" before (count ());
  let status, _, _ = post len len in
  Alcotest.(check int) "identical values: status" 201 status;
  Alcotest.(check int) "identical values: one session" (before + 1) (count ())

let test_client_rejects_differing_content_lengths () =
  let respond a b =
    Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\
                    Content-Length: %s\r\n\r\n%s"
      a b (String.make 16 ' ')
  in
  (with_canned_server (respond "2" "16") @@ fun port ->
   match Http.request ~timeout_s:5.0 ~meth:"GET" ~port "/healthz" with
   | Error e ->
     Alcotest.(check string) "client error" "bad content-length: 2, 16" e
   | Ok r ->
     Alcotest.failf "differing Content-Length accepted with status %d (%d \
                     body bytes)"
       r.Http.status (String.length r.Http.r_body));
  with_canned_server (respond "16" "16") @@ fun port ->
  match Http.request ~timeout_s:5.0 ~meth:"GET" ~port "/healthz" with
  | Ok r ->
    Alcotest.(check int) "identical values: body length" 16
      (String.length r.Http.r_body)
  | Error e -> Alcotest.failf "identical Content-Length refused: %s" e

(* --- TTL eviction and rehydration -------------------------------------------------- *)

let[@sider.allow "determinism"] wait_until ?(timeout_s = 5.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_ttl_evicts_and_rehydrates () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let config = { Service.default_config with session_ttl_s = 0.15 } in
  with_service ~data_dir:dir ~config @@ fun svc ->
  let reg = Service.registry svc in
  let ids = List.init 3 (fun _ -> create_session svc) in
  List.iter
    (fun id ->
      status_is "constraint" 200
        (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints")))
    ids;
  let constraints_of id =
    Json.to_int (Json.member "constraints" (json_of (req svc "GET" ("/sessions/" ^ id))))
  in
  let live_count = constraints_of (List.hd ids) in
  check_true "constraint applied" (live_count > 0);
  check_true "all resident after activity" (Registry.resident_count reg = 3);
  (* The TTL sweep must evict all three once they idle past the TTL... *)
  check_true "all evicted after TTL"
    (wait_until (fun () -> Registry.resident_count reg = 0));
  check_true "tenants still registered" (Registry.count reg = 3);
  (* ...and the next touch rehydrates transparently, state intact. *)
  let id = List.hd ids in
  check_true "rehydrated with its constraint" (constraints_of id = live_count);
  check_true "resident again" (Registry.resident_count reg >= 1);
  (* Mutations keep working on a rehydrated session. *)
  status_is "constraint after rehydration" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))

let[@sider.allow "determinism"] test_eviction_rehydration_race () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  (* Aggressive TTL with constant traffic: every request must see a
     fully rebuilt session — never a partial one, never a 5xx. *)
  let config =
    { Service.default_config with session_ttl_s = 0.05; workers = 4 }
  in
  with_service ~data_dir:dir ~config @@ fun svc ->
  let ids = Array.init 6 (fun _ -> create_session svc) in
  let errors = Array.make 4 None in
  let stop_at = Unix.gettimeofday () +. 1.2 in
  let hammer t () =
    try
      let k = ref 0 in
      while Unix.gettimeofday () < stop_at do
        incr k;
        let id = ids.((t + !k) mod Array.length ids) in
        let r = req svc "GET" ("/sessions/" ^ id) in
        status_is "summary during churn" 200 r;
        (* No mutations in flight: a partially rebuilt session would
           surface as a wrong event count (or a 5xx above). *)
        let events = Json.to_int (Json.member "events" (json_of r)) in
        if events <> 0 then
          Alcotest.failf "partial session observed: %d event(s)" events;
        if !k mod 7 = 0 then Thread.delay 0.08 (* let the TTL sweep run *)
      done
    with e -> errors.(t) <- Some (Printexc.to_string e)
  in
  let threads = List.init 4 (fun t -> Thread.create (hammer t) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun t -> function
      | Some e -> Alcotest.failf "hammer thread %d: %s" t e
      | None -> ())
    errors;
  (* Every tenant's journaled state survived the churn. *)
  Array.iter
    (fun id ->
      let summary = json_of (req svc "GET" ("/sessions/" ^ id)) in
      check_true "tenant state coherent after churn"
        (Json.to_int (Json.member "events" summary) = 0))
    ids

let test_acked_event_survives_evict_touch_crash () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let config = { Service.default_config with session_ttl_s = 0.1 } in
  let id, acked_count =
    with_service ~data_dir:dir ~config @@ fun svc ->
    let reg = Service.registry svc in
    let id = create_session svc in
    status_is "acked constraint" 200
      (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
    let acked_count =
      Json.to_int
        (Json.member "constraints" (json_of (req svc "GET" ("/sessions/" ^ id))))
    in
    (* Evict, then touch (rehydrate), then die mid-request. *)
    check_true "evicted"
      (wait_until (fun () -> Registry.resident_count reg = 0));
    let summary = json_of (req svc "GET" ("/sessions/" ^ id)) in
    check_true "rehydrated"
      (Json.to_int (Json.member "constraints" summary) = acked_count);
    Fault.arm (Fault.Svc_crash_after_journal { path_substr = "/constraints" });
    (match
       Http.request ~body:cluster_body ~meth:"POST" ~port:(Service.port svc)
         ("/sessions/" ^ id ^ "/constraints")
     with
     | Error _ -> ()
     | Ok r -> Alcotest.failf "expected no response, got %d" r.Http.status);
    (id, acked_count)
  in
  (* kill -9 equivalent: a fresh boot replays the journal — the acked
     constraint and the journaled-but-unacked one both survive (each
     identical declaration expands to the same solver-constraint
     count). *)
  with_service ~data_dir:dir @@ fun svc2 ->
  check_true "no recovery failures" (Service.recovery_failures svc2 = []);
  let summary = json_of (req svc2 "GET" ("/sessions/" ^ id)) in
  check_true "both journaled constraints recovered"
    (Json.to_int (Json.member "constraints" summary) = 2 * acked_count)

let test_capacity_evicts_idle_before_429 () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let config = { Service.default_config with max_sessions = 2 } in
  with_service ~data_dir:dir ~config @@ fun svc ->
  let reg = Service.registry svc in
  let id1 = create_session svc in
  let _id2 = create_session svc in
  (* Journaled and idle: the third tenant evicts the LRU instead of
     being shed. *)
  let r = req svc ~body:(create_body ()) "POST" "/sessions" in
  status_is "evict-then-admit" 201 r;
  check_true "resident population bounded" (Registry.resident_count reg <= 2);
  check_true "all three tenants registered" (Registry.count reg = 3);
  (* The evicted tenant is still reachable (rehydrates on demand). *)
  status_is "evicted tenant rehydrates" 200 (req svc "GET" ("/sessions/" ^ id1))

let test_recover_bounds_resident_sessions () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let ids =
    with_service ~data_dir:dir @@ fun svc ->
    List.init 3 (fun _ -> create_session svc)
  in
  (* Restart with a smaller resident bound than the tenant count: boot
     must evict back down instead of holding every journal resident
     (TTL eviction is off by default, so recover itself must bound). *)
  let config = { Service.default_config with max_sessions = 2 } in
  with_service ~data_dir:dir ~config @@ fun svc2 ->
  check_true "no recovery failures" (Service.recovery_failures svc2 = []);
  let reg = Service.registry svc2 in
  check_true "all tenants registered" (Registry.count reg = 3);
  check_true "resident population bounded at boot"
    (Registry.resident_count reg <= 2);
  (* Evicted tenants are still reachable — they rehydrate on touch. *)
  List.iter
    (fun id -> status_is "tenant reachable" 200 (req svc2 "GET" ("/sessions/" ^ id)))
    ids

(* The poller multiplexes parked keep-alive connections over [select],
   which cannot watch fds at or above FD_SETSIZE (1024).  Open more
   connections than the parked cap (512): the oldest parked connection
   must be recycled (closed) rather than the overflow killing the
   poller and stranding every parked client. *)
let test_parked_connections_bounded () =
  with_service @@ fun svc ->
  let n = 540 in
  let socks = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
        !socks)
  @@ fun () ->
  let first = ref None in
  for i = 0 to n - 1 do
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    socks := sock :: !socks;
    if i = 0 then first := Some sock;
    Unix.connect sock
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Service.port svc));
    Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.0;
    write_string sock "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    match read_responses sock 1 with
    | [ (200, _) ] -> ()
    | _ -> Alcotest.failf "healthz on connection %d failed" i
  done;
  (* The oldest parked connection was closed to bound the set. *)
  let sock0 = Option.get !first in
  let buf = Bytes.create 8 in
  check_true "oldest parked connection recycled"
    (match Unix.read sock0 buf 0 8 with
     | 0 -> true
     | _ -> false
     | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
       true);
  (* The poller survived: fresh connections are still served and
     parked connections still get idle management. *)
  status_is "service healthy past the cap" 200 (req svc "GET" "/healthz")

(* --- compaction through the service ------------------------------------------------ *)

let test_compaction_through_service () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let config = { Service.default_config with compact_events = 3 } in
  let id, constraints =
    with_service ~data_dir:dir ~config @@ fun svc ->
    let id = create_session svc in
    for _ = 1 to 4 do
      status_is "constraint" 200
        (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))
    done;
    status_is "update" 200
      (req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
    (* The journal crossed the threshold: a sibling snapshot appeared
       and the journal was reset. *)
    let snap = Persist.snapshot_path (Filename.concat dir (id ^ ".journal")) in
    check_true "snapshot written" (Sys.file_exists snap);
    let summary = json_of (req svc "GET" ("/sessions/" ^ id)) in
    (id, Json.to_int (Json.member "constraints" summary))
  in
  check_true "constraints applied before restart" (constraints > 0);
  (* Boot-time recovery is snapshot-aware: the recovered tenant matches
     the live pre-restart state exactly. *)
  with_service ~data_dir:dir @@ fun svc2 ->
  check_true "no recovery failures" (Service.recovery_failures svc2 = []);
  let summary = json_of (req svc2 "GET" ("/sessions/" ^ id)) in
  check_true "compacted tenant recovered in full"
    (Json.to_int (Json.member "constraints" summary) = constraints);
  status_is "projection after compacted recovery" 200
    (req svc2 "GET" ("/sessions/" ^ id ^ "/projection"))

(* A session's journal header changes on disk after the start released
   its dataset: one digit of the data.  Reads and writes never read the
   dataset, so a projection read and a write round answer the bytes an
   intact twin answers.  The next compaction reads the header back and
   refuses it: a compaction failure is counted, the journal is closed
   (the next write is a 503), and no snapshot or temporary file is
   written. *)
let test_changed_header_fails_next_compaction () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  with_sink (Some Sider_obs.Obs.null_sink) @@ fun () ->
  let config = { Service.default_config with compact_events = 4 } in
  with_service ~data_dir:dir ~config @@ fun svc ->
  let changed = create_session svc and twin = create_session svc in
  let path = Filename.concat dir (changed ^ ".journal") in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let rec data_at i =
    if String.sub text i 8 = {|"data":[|} then i else data_at (i + 1)
  in
  let digit = String.index_from text (data_at 0) '3' in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (String.mapi (fun i c -> if i = digit then '4' else c) text));
  let projection id =
    let r = req svc "GET" ("/sessions/" ^ id ^ "/projection") in
    status_is "projection" 200 r;
    r.Http.r_body
  in
  let constrain id =
    req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints")
  in
  let round id =
    status_is "constraint" 200 (constrain id);
    status_is "update" 200
      (req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
    let r = req svc ~body:{|{"method":"pca"}|} "POST" ("/sessions/" ^ id ^ "/view") in
    status_is "view" 200 r;
    r.Http.r_body
  in
  check_true "projection read" (projection changed = projection twin);
  check_true "write round" (round changed = round twin);
  check_true "projection after the round" (projection changed = projection twin);
  let failures () = Sider_obs.Obs.counter_value "serve.compaction_failures" in
  let before = failures () in
  (* The fourth event reaches the threshold: the twin compacts... *)
  status_is "the twin's fourth event" 200 (constrain twin);
  check_true "the twin compacted"
    (Sys.file_exists (Filename.concat dir (twin ^ ".snapshot")));
  (* ...and the changed journal's compaction fails after its ack. *)
  status_is "the fourth event" 200 (constrain changed);
  Alcotest.(check int) "compaction failures" 1 (failures () - before);
  status_is "the next write" 503 (constrain changed);
  check_true "no snapshot or temporary file"
    (Array.for_all
       (fun f -> f = changed ^ ".journal" || String.starts_with ~prefix:twin f)
       (Sys.readdir dir))

(* --- multi-shot fault arms ---------------------------------------------------------- *)

let test_counted_arm_fires_n_times () =
  with_service @@ fun svc ->
  let id = create_session svc in
  (* arm_counted 2: exactly two truncated (400) requests, then clean. *)
  Fault.arm_counted 2 (Fault.Svc_truncate_request { path_substr = "/constraints" });
  status_is "first truncation" 400
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
  status_is "second truncation" 400
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
  status_is "third request is clean" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
  check_true "exactly two firings" (List.length (Fault.fired ()) = 2)

let test_persistent_arm_fires_until_reset () =
  with_service @@ fun svc ->
  let id = create_session svc in
  Fault.arm_persistent (Fault.Svc_truncate_request { path_substr = "/constraints" });
  for i = 1 to 4 do
    status_is (Printf.sprintf "truncation %d" i) 400
      (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))
  done;
  check_true "still armed after four firings"
    (List.length (Fault.armed ()) = 1);
  Fault.reset ();
  status_is "clean after reset" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))

(* --- tracing, access log and SLO ---------------------------------------------------- *)

module Obs = Sider_obs.Obs

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One client-supplied trace id must link all four observability
   surfaces: the response header echo, the structured access-log line,
   the recorded span tree, and — for a request that dies on a 5xx — the
   flight-recorder dump it triggers. *)
let test_trace_links_all_surfaces () =
  let log_path = Filename.temp_file "sider_access" ".jsonl" in
  let dump_path = Filename.temp_file "sider_dump" ".jsonl" in
  let log_oc = open_out log_path in
  let dump_oc = open_out dump_path in
  let rec_ = Obs.recording_sink () in
  Obs.reset ();
  with_sink (Some rec_.Obs.rec_sink) @@ fun () ->
  Obs.set_flight_recorder ~capacity:256 true;
  Obs.set_flight_auto_dump (Some dump_oc);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_flight_auto_dump None;
      Obs.set_flight_recorder false;
      Obs.flight_reset ();
      Obs.reset ();
      close_out_noerr log_oc;
      close_out_noerr dump_oc;
      (try Sys.remove log_path with Sys_error _ -> ());
      (try Sys.remove dump_path with Sys_error _ -> ()))
  @@ fun () ->
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let config = { Service.default_config with access_log = Some log_oc } in
  let trace_ok = "e2e-trace-ok-1" and trace_bad = "e2e-trace-fail-1" in
  let id =
    with_service ~data_dir:dir ~config @@ fun svc ->
    let id = create_session svc in
    let traced ?body ~trace meth path =
      match
        Http.request
          ~headers:[ (Http.trace_response_header, trace) ]
          ?body ~meth ~port:(Service.port svc) path
      with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s %s: %s" meth path e
    in
    let r =
      traced ~body:update_body ~trace:trace_ok "POST"
        ("/sessions/" ^ id ^ "/update")
    in
    status_is "traced update" 200 r;
    Alcotest.(check (option string))
      "trace id echoed on success" (Some trace_ok)
      (header r "x-sider-trace-id");
    (* A 5xx under the same contract: the echo still happens, and the
       failure dumps the flight ring tagged with the id. *)
    Fault.arm (Fault.Journal_fail_append { path_substr = id });
    let r =
      traced ~body:cluster_body ~trace:trace_bad "POST"
        ("/sessions/" ^ id ^ "/constraints")
    in
    status_is "traced failure" 503 r;
    Alcotest.(check (option string))
      "trace id echoed on error" (Some trace_bad)
      (header r "x-sider-trace-id");
    id
  in
  (* Span tree: the request span carries the trace id and route. *)
  let request_spans =
    List.filter (fun s -> s.Obs.name = "serve.request") (rec_.Obs.spans ())
  in
  check_true "request span carries trace id, route and status"
    (List.exists
       (fun s ->
         List.assoc_opt "trace" s.Obs.attrs = Some (Obs.Str trace_ok)
         && List.assoc_opt "route" s.Obs.attrs = Some (Obs.Str "update")
         && List.assoc_opt "status" s.Obs.attrs = Some (Obs.Int 200))
       request_spans);
  check_true "failed request span carries its trace id"
    (List.exists
       (fun s ->
         List.assoc_opt "trace" s.Obs.attrs = Some (Obs.Str trace_bad)
         && List.assoc_opt "status" s.Obs.attrs = Some (Obs.Int 503))
       request_spans);
  (* Access log: one JSON line per request with the full field set. *)
  let log_lines =
    String.split_on_char '\n' (read_file log_path)
    |> List.filter (fun l -> l <> "")
    |> List.map Json.of_string
  in
  let line_with trace =
    match
      List.find_opt
        (fun j -> Json.to_str (Json.member "trace" j) = trace)
        log_lines
    with
    | Some j -> j
    | None -> Alcotest.failf "no access-log line for trace %s" trace
  in
  let ok_line = line_with trace_ok in
  Alcotest.(check string) "access log tenant" id
    (Json.to_str (Json.member "tenant" ok_line));
  Alcotest.(check string) "access log route" "update"
    (Json.to_str (Json.member "route" ok_line));
  Alcotest.(check int) "access log status" 200
    (Json.to_int (Json.member "status" ok_line));
  check_true "access log timings non-negative"
    (Json.to_float (Json.member "dur_s" ok_line) >= 0.0
     && Json.to_float (Json.member "queue_s" ok_line) >= 0.0
     && Json.to_int (Json.member "journal_fsync_ns" ok_line) >= 0);
  check_true "access log records the update's sweeps"
    (Json.to_int (Json.member "sweeps" ok_line) > 0);
  Alcotest.(check int) "failed request logged with its status" 503
    (Json.to_int (Json.member "status" (line_with trace_bad)));
  (* Flight dump: the 5xx dumped the ring with the trace id in its
     header, so `sider doctor --trace` can find it. *)
  flush dump_oc;
  let dump = read_file dump_path in
  check_true "flight dump written on the 5xx" (dump <> "");
  check_true "flight dump header carries the trace id"
    (contains dump trace_bad)

let test_slo_route_and_degraded_healthz () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  with_service ~data_dir:dir @@ fun svc ->
  let slo () = json_of (req svc "GET" "/slo") in
  let j = slo () in
  check_true "fresh service not degraded"
    (not (Json.to_bool (Json.member "degraded" j)));
  (match Json.to_list (Json.member "windows" j) with
   | [ w5; w1 ] ->
     Alcotest.(check string) "short window first" "5m"
       (Json.to_str (Json.member "window" w5));
     Alcotest.(check string) "long window second" "1h"
       (Json.to_str (Json.member "window" w1))
   | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
  let id = create_session svc in
  (* Burn the error budget: persistent journal failures turn every
     mutation into a 503, far above a 0.99 objective's budget in both
     windows at once. *)
  Fault.arm_persistent (Fault.Journal_fail_append { path_substr = id });
  for _ = 1 to 8 do
    status_is "burning" 503
      (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"))
  done;
  Fault.reset ();
  (* The response is written before the window is charged, so the last
     503 can still be in flight when we scrape — poll briefly. *)
  check_true "all eight errors land in both windows"
    (wait_until (fun () ->
         Json.to_list (Json.member "windows" (slo ()))
         |> List.for_all (fun w ->
             Json.to_int (Json.member "errors" w) >= 8)));
  let j = slo () in
  check_true "slo reports degraded" (Json.to_bool (Json.member "degraded" j));
  (match Json.to_list (Json.member "windows" j) with
   | w :: _ ->
     check_true "burn above threshold"
       (Json.to_float (Json.member "burn" w)
        > Json.to_float (Json.member "burn_threshold" j))
   | [] -> Alcotest.fail "windows missing");
  (* Degraded state surfaces on the health probe... *)
  let r = req svc "GET" "/healthz" in
  status_is "healthz degrades" 503 r;
  check_true "degraded body names the cause"
    (contains r.Http.r_body "slo-degraded");
  (* ...while the observability routes stay reachable (and exempt from
     SLO accounting, so the probe can't keep the burn alive itself). *)
  status_is "metrics still served" 200 (req svc "GET" "/metrics");
  status_is "slo still served" 200 (req svc "GET" "/slo")

(* A poisoned access-log channel must not wedge the service.
   [access_log_line] writes under [t.access_m]; if an exception on the
   write path could skip the unlock, the first failed write would
   strand the mutex and every later request would hang inside its own
   logging call.  Closing the channel out from under a live service
   makes every subsequent write raise, so a few successful follow-up
   requests prove the unlock is exception-safe (sider-lint R8). *)
let test_access_log_poisoned_channel () =
  let log_path = Filename.temp_file "sider_access" ".jsonl" in
  let log_oc = open_out log_path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr log_oc;
      (try Sys.remove log_path with Sys_error _ -> ()))
  @@ fun () ->
  let config = { Service.default_config with access_log = Some log_oc } in
  with_service ~config @@ fun svc ->
  status_is "healthz before poison" 200 (req svc "GET" "/healthz");
  (* The log line is flushed after the response is handed to the
     client, so poll briefly (up to ~2s) rather than assert
     immediately. *)
  let rec wait_for_line tries =
    if (Unix.stat log_path).Unix.st_size > 0 then ()
    else if tries = 0 then
      Alcotest.fail "no access-log line before poisoning"
    else begin
      Thread.delay 0.01;
      wait_for_line (tries - 1)
    end
  in
  wait_for_line 200;
  (* Poison: every write in access_log_line now raises. *)
  close_out log_oc;
  (* Each of these logs on completion; a stranded access_m would hang
     the second one inside Mutex.lock. *)
  let id = create_session svc in
  status_is "constraint after poison" 200
    (req svc ~body:cluster_body "POST" ("/sessions/" ^ id ^ "/constraints"));
  status_is "update after poison" 200
    (req svc ~body:update_body "POST" ("/sessions/" ^ id ^ "/update"));
  status_is "healthz after poison" 200 (req svc "GET" "/healthz")

(* --- responses: printed and framed in one reused buffer ---------------------- *)

(* The body of GET /projection as the service built it before it printed
   it in place: a tree of [Session.scatter]'s points, printed by
   [Json.to_string]. *)
let reference_projection session =
  let xl, yl = Session.axis_labels session in
  let sx, sy = Session.view_scores session in
  let points =
    Session.scatter session |> Array.to_list
    |> List.map (fun (p : Session.point) ->
        let bx, by = p.background in
        Json.Obj
          (("i", Json.Number (float_of_int p.index))
           :: ("x", Json.Number p.x)
           :: ("y", Json.Number p.y)
           :: ("bx", Json.Number bx)
           :: ("by", Json.Number by)
           ::
           (match p.label with
            | Some l -> [ ("label", Json.String l) ]
            | None -> [])))
  in
  Json.to_string
    (Json.Obj
       [ ("method",
          Json.String (Sider_projection.View.method_name (Session.method_ session)));
         ("axis_labels", Json.List [ Json.String xl; Json.String yl ]);
         ("scores", Json.List [ Json.Number sx; Json.Number sy ]);
         ("points", Json.List points) ])

(* The text [Service.write_projection] leaves in [w], emptied first. *)
let printed_projection w session =
  Json.clear w;
  Service.write_projection w session;
  Json.contents w

(* A random session: 2 to 300 rows of 2 to 5 columns, PCA or ICA, with
   or without labels, right after creation or after one round. *)
let random_projection_session =
  QCheck.Gen.(
    let* n = oneof [ int_range 2 12; int_range 2 300 ] in
    let* d = int_range 2 5 in
    let* seed = int_range 0 10_000 in
    let* ica = bool in
    let* labels = option (array_repeat 3 Test_persist.awkward_string) in
    let* solved = bool in
    return (n, d, seed, ica, labels, solved))

let projection_session_of (n, d, seed, ica, labels, solved) =
  let ds = Synth.gaussian ~seed ~n ~d () in
  let labels = Option.map (fun l -> Array.init n (fun i -> l.(i mod 3))) labels in
  let ds =
    Dataset.create ?labels ~columns:(Dataset.columns ds) (Dataset.matrix ds)
  in
  let method_ = if ica then Sider_projection.View.Ica else Sider_projection.View.Pca in
  let s = Session.create ~seed ~method_ ds in
  if solved then begin
    Session.add_margin_constraint s;
    ignore (Session.update_background ~time_cutoff:1.0 ~max_sweeps:3 s);
    ignore (Session.recompute_view s)
  end;
  s

(* A body larger than any the generator makes, printed first so that a
   shorter body after it lands in a buffer holding a longer one. *)
let larger_session =
  lazy
    (Session.create ~seed:3
       (Synth.clustered ~seed:5 ~n:1000 ~d:5 ~k:3 ()))

let prop_projection_matches_tree =
  qcheck ~count:40 "projection body equals the reference tree, fresh or reused"
    (QCheck.make random_projection_session) (fun args ->
      let s = projection_session_of args in
      let expected = reference_projection s in
      let fresh = printed_projection (Json.writer 16) s in
      let w = Json.writer 16 in
      let larger = printed_projection w (Lazy.force larger_session) in
      let reused = printed_projection w s in
      String.length larger > String.length reused
      && String.equal fresh expected
      && String.equal reused expected)

(* The reason phrase of every status the service sends. *)
let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

(* [Http.respond] as it was before responses were framed in place: the
   head built with [Printf] into a [Buffer], the body appended. *)
let reference_response ?(headers = []) ~status ~content_type ~keep_alive body =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  Buffer.add_string b body;
  Buffer.contents b

(* The headers the service sends with a status: its trace id, then
   [Retry-After] on a 429 or 503. *)
let service_headers ~trace status =
  (Http.trace_response_header, trace)
  :: (if status = 429 || status = 503 then [ ("Retry-After", "1") ] else [])

let long_trace = String.init 128 (fun i -> "abcXYZ019._:-".[i mod 13])

(* Every status the service sends, keep-alive and close, with a fresh
   trace id and with the longest a client can send, each framed right
   after a longer response in the same buffer: the bytes written are
   the reference's, head and body. *)
let test_framing_matches_reference () =
  let r, wr = Unix.pipe () in
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close wr) @@ fun () ->
  let w = Json.writer 16 in
  let check ~headers ~status ~content_type ~keep_alive body =
    let expected = reference_response ~headers ~status ~content_type ~keep_alive body in
    Http.start_body w;
    Json.write_raw w body;
    check_true "written" (Http.respond ~headers ~status ~content_type ~keep_alive wr w);
    let got = Bytes.create (String.length expected) in
    let rec fill k =
      if k < Bytes.length got then
        fill (k + Unix.read r got k (Bytes.length got - k))
    in
    fill 0;
    if not (String.equal (Bytes.to_string got) expected) then
      Alcotest.failf "status %d: framed@ %S@ expected@ %S" status
        (Bytes.to_string got) expected
  in
  let bodies = function
    | 204 -> [ ("application/json", "") ]
    | 200 ->
      [ ("application/json", {|{"id":"s1"}|}); ("text/plain; version=0.0.4", "ok\n") ]
    | _ -> [ ("application/json", {|{"error":"x","detail":"y \"z\""}|}) ]
  in
  List.iter
    (fun status ->
      List.iter
        (fun (content_type, body) ->
          List.iter
            (fun keep_alive ->
              List.iter
                (fun trace ->
                  check ~headers:[] ~status:200 ~content_type:"application/json"
                    ~keep_alive:true (String.make 700 'x');
                  check ~headers:(service_headers ~trace status) ~status
                    ~content_type ~keep_alive body)
                [ Http.fresh_trace_id (); long_trace ])
            [ true; false ])
        (bodies status))
    [ 200; 201; 204; 400; 404; 405; 408; 413; 429; 500; 503 ]

let dataset_body ?(method_ = "pca") ds =
  Json.to_string
    (Json.Obj
       [ ("dataset", Persist.dataset_to_json ds); ("seed", Json.Number 1.0);
         ("method", Json.String method_) ])

let create_dataset svc ?method_ ds =
  let r = req svc ~body:(dataset_body ?method_ ds) "POST" "/sessions" in
  status_is "create" 201 r;
  Json.to_str (Json.member "id" (json_of r))

let session_of svc id =
  match Registry.find (Service.registry svc) id with
  | Some entry -> Registry.session entry
  | None -> Alcotest.failf "no session %s" id

(* A request carrying its own trace id, so its response's bytes are
   known in full. *)
let traced_request ~trace meth path =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: x\r\nX-Sider-Trace-Id: %s\r\n\r\n"
    meth path trace

(* Over one keep-alive connection to a single worker, one request at a
   time and then all pipelined in one write: a large projection, a
   small one, a 404, a 204 DELETE and the large projection again each
   arrive byte for byte as the reference frames them, none with a tail
   left in the buffer by a longer response before it. *)
let test_reused_buffer_responses_exact () =
  let config = { Service.default_config with workers = 1 } in
  with_service ~config @@ fun svc ->
  let large =
    create_dataset svc (Synth.clustered ~seed:11 ~n:300 ~d:4 ~k:3 ())
  in
  let small = create_dataset svc ~method_:"ica" (Synth.gaussian ~seed:2 ~n:5 ~d:3 ()) in
  let doomed =
    Array.init 2 (fun i -> create_dataset svc (Synth.gaussian ~seed:(4 + i) ~n:6 ~d:2 ()))
  in
  let large_body = reference_projection (session_of svc large) in
  let small_body = reference_projection (session_of svc small) in
  let ok body = (200, body) in
  (* Round [r] deletes its own session, so both rounds see a 204. *)
  let exchange r =
    [ ("GET", "/sessions/" ^ large ^ "/projection", ok large_body);
      ("GET", "/sessions/" ^ small ^ "/projection", ok small_body);
      ( "GET", "/sessions/nope",
        (404, {|{"error":"not-found","detail":"no session nope"}|}) );
      ("DELETE", "/sessions/" ^ doomed.(r), (204, ""));
      ("GET", "/sessions/" ^ large ^ "/projection", ok large_body) ]
  in
  let trace r i = Printf.sprintf "r%d-%d" r i in
  let expected r =
    List.mapi
      (fun i (_, _, (status, body)) ->
        ( status,
          reference_response ~headers:(service_headers ~trace:(trace r i) status)
            ~status ~content_type:"application/json" ~keep_alive:true body ))
      (exchange r)
  in
  let requests r =
    List.mapi
      (fun i (meth, path, _) -> traced_request ~trace:(trace r i) meth path)
      (exchange r)
  in
  let check what got want =
    List.iteri
      (fun i ((s, text), (s', text')) ->
        if s <> s' || not (String.equal text text') then
          Alcotest.failf "%s, response %d: status %d, %d bytes; expected %d, %d bytes"
            what i s (String.length text) s' (String.length text'))
      (List.combine got want)
  in
  with_raw_socket svc @@ fun sock ->
  check "one at a time"
    (List.map
       (fun request ->
         write_string sock request;
         List.hd (read_responses sock 1))
       (requests 0))
    (expected 0);
  write_string sock (String.concat "" (requests 1));
  check "pipelined" (read_responses sock 5) (expected 1)

(* Four workers, four client threads, four sessions of different sizes:
   each thread reads its own session's projection over its own
   keep-alive connection, all at once, and always gets its own bytes. *)
let test_concurrent_projection_reads () =
  let config = { Service.default_config with workers = 4 } in
  with_service ~config @@ fun svc ->
  let sessions =
    List.map
      (fun (seed, n) ->
        let id = create_dataset svc (Synth.clustered ~seed ~n ~d:4 ~k:3 ()) in
        (id, reference_projection (session_of svc id)))
      [ (1, 40); (2, 90); (3, 150); (4, 220) ]
  in
  let failures = Atomic.make 0 in
  let reader (id, expected) =
    let c = Http.client ~port:(Service.port svc) () in
    Fun.protect ~finally:(fun () -> Http.client_close c) @@ fun () ->
    for _ = 1 to 25 do
      match Http.client_request c ~meth:"GET" ("/sessions/" ^ id ^ "/projection") with
      | Ok r when r.Http.status = 200 && String.equal r.Http.r_body expected -> ()
      | Ok _ | Error _ -> Atomic.incr failures
    done
  in
  List.iter Thread.join (List.map (Thread.create reader) sessions);
  Alcotest.(check int) "responses with another session's bytes" 0
    (Atomic.get failures)

(* At [projection_reads]' shape (n=1024, d=16, a margin-solved PCA
   session), a warm worker prints and frames a projection response
   allocating nothing on the major heap and at most 64 words in all
   (49 when written): the head's header list.  Printing a tree into a
   fresh string and copying it through a [Buffer] took 252,628 words,
   83,127 of them on the major heap; with the axis labels built on
   every read, a response took 3,068.  The frame is written to
   /dev/null, which allocates nothing. *)
let test_projection_response_allocation () =
  let s = Session.create ~seed:1 (reads_dataset ()) in
  Session.add_margin_constraint s;
  ignore (Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 s);
  ignore (Session.recompute_view s);
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  let w = Json.writer 4096 in
  let respond () =
    Http.start_body w;
    Service.write_projection w s;
    Http.respond
      ~headers:(service_headers ~trace:long_trace 200)
      ~status:200 ~content_type:"application/json" ~keep_alive:true null w
  in
  check_true "cold response sent" (respond ());
  let major_before = major_words () in
  let sent, words = allocated_words respond in
  let major = int_of_float (major_words () -. major_before) in
  check_true "warm response sent" sent;
  Alcotest.(check int) "words on the major heap" 0 major;
  if words > 64 then
    Alcotest.failf "a warm projection response allocated %d words, over 64" words

(* A client that pipelines three large projection reads, takes 100
   bytes of the first answer and resets the connection: the worker's
   write fails, and it must close the connection rather than write the
   next answer into the reset socket, which without SIGPIPE ignored
   ends the process.  Exactly one write fails, and the service then
   still answers /healthz. *)
let test_pipelined_reset_leaves_service_up () =
  let config = { Service.default_config with workers = 1 } in
  with_sink (Some Sider_obs.Obs.null_sink) @@ fun () ->
  with_service ~config @@ fun svc ->
  let id = create_dataset svc (Synth.clustered ~seed:9 ~n:4000 ~d:4 ~k:3 ()) in
  let get = Printf.sprintf "GET /sessions/%s/projection HTTP/1.1\r\nHost: x\r\n\r\n" id in
  let failed_before = Sider_obs.Obs.counter_value "serve.write_failures" in
  (with_raw_socket svc @@ fun sock ->
   write_string sock (get ^ get ^ get);
   let b = Bytes.create 100 in
   let rec take k = if k < 100 then take (k + Unix.read sock b k (100 - k)) in
   take 0;
   Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0));
  status_is "healthz after the reset" 200 (req svc "GET" "/healthz");
  Alcotest.(check int) "failed writes" 1
    (Sider_obs.Obs.counter_value "serve.write_failures" - failed_before)

(* --- the client's status line and head bound ---------------------------------- *)

(* Status codes are exactly three ASCII digits.  Each spelling below is
   one [int_of_string] reads as a number (the first four as 200, 200,
   500 and 500), or a code of the wrong length. *)
let test_client_rejects_odd_status () =
  List.iter
    (fun code ->
      with_canned_server
        (Printf.sprintf "HTTP/1.1 %s OK\r\nContent-Length: 2\r\n\r\n{}" code)
      @@ fun port ->
      match Http.request ~timeout_s:5.0 ~meth:"GET" ~port "/healthz" with
      | Error e ->
        Alcotest.(check string) ("client error for " ^ code)
          (Printf.sprintf "malformed status line: HTTP/1.1 %s OK" code) e
      | Ok r ->
        Alcotest.failf "status %S read as %d" code r.Http.status)
    [ "2_00"; "+200"; "0x1F4"; "0o764"; "20"; "2000"; "OK" ]

(* A peer that sends 17 KiB of header lines and no blank line, then
   holds the connection open: the client gives up at the 16 KiB bound
   with an error of its own, rather than reading on until its timeout. *)
let test_client_bounds_response_head () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lsock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "loopback socket has no port"
  in
  let line = "X-Pad: " ^ String.make 57 'a' ^ "\r\n" in
  let head =
    "HTTP/1.1 200 OK\r\n" ^ String.concat "" (List.init 272 (fun _ -> line))
  in
  let serve () =
    match Unix.select [ lsock ] [] [] 5.0 with
    | [], _, _ -> ()
    | _ ->
      let c, _ = Unix.accept lsock in
      Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
      ignore (Unix.read c (Bytes.create 4096) 0 4096);
      write_string c head;
      (* Hold the connection until the client closes it. *)
      let b = Bytes.create 4096 in
      let rec wait () =
        match Unix.select [ c ] [] [] 10.0 with
        | [], _, _ -> ()
        | _ -> (
          match Unix.read c b 0 4096 with
          | 0 -> ()
          | _ -> wait ()
          | exception Unix.Unix_error _ -> ())
      in
      wait ()
  in
  let server = Thread.create serve () in
  Fun.protect ~finally:(fun () -> Thread.join server) @@ fun () ->
  check_true "17 KiB of header lines" (String.length head > 17 * 1024);
  match Http.request ~timeout_s:8.0 ~meth:"GET" ~port "/healthz" with
  | Error e -> Alcotest.(check string) "client error" "response head over 16 KiB" e
  | Ok r -> Alcotest.failf "unbounded head read as status %d" r.Http.status

(* The client's body buffer grows with the bytes that arrive, not with
   the declared length: a length no string can hold is refused at once,
   a declared 10 TB whose bytes never come is a truncated response (not
   [Out_of_memory] escaping the [result]), and a 3 MiB body, past the
   first megabyte, arrives whole. *)
let test_client_body_follows_bytes () =
  let respond len body =
    Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s" len body
  in
  let get port = Http.request ~timeout_s:5.0 ~meth:"GET" ~port "/healthz" in
  List.iter
    (fun (len, expected) ->
      with_canned_server (respond len "{}") @@ fun port ->
      match get port with
      | Error e -> Alcotest.(check string) ("client error for " ^ len) expected e
      | Ok r ->
        Alcotest.failf "Content-Length %s read as status %d" len r.Http.status)
    [ ("999999999999999999", "bad content-length: 999999999999999999");
      ("10000000000000", "truncated response") ];
  let big = String.init ((3 * 1024 * 1024) + 17) (fun i -> Char.chr (i land 255)) in
  with_canned_server (respond (string_of_int (String.length big)) big) @@ fun port ->
  match get port with
  | Ok r -> check_true "3 MiB body byte for byte" (String.equal big r.Http.r_body)
  | Error e -> Alcotest.failf "3 MiB body refused: %s" e

(* --- HTTP parser fuzz ------------------------------------------------------------ *)

(* Seeded random and mutated requests against a live service: bad
   request lines, headers without a colon, odd and repeated
   Content-Length fields, truncated bodies and random bytes, one to
   three pipelined per connection, written in random pieces; some
   connections are reset mid-request.  Every answer must be a
   well-formed response with a 2xx or 4xx status, the service must
   answer /healthz afterwards, and the process must hold as many file
   descriptors as before. *)
let fuzz_request rng =
  let pick a = a.(Sider_rand.Rng.int rng (Array.length a)) in
  let body = pick [| ""; "{}"; "{\"data\":"; create_body () |] in
  let valid () =
    pick
      [| "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
         "GET /sessions HTTP/1.1\r\n\r\n";
         Printf.sprintf "POST /sessions HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
           (String.length body) body |]
  in
  match Sider_rand.Rng.int rng 9 with
  | 0 -> pick [| "GARBAGE\r\n\r\n"; "GET\r\n\r\n"; " / HTTP/1.1\r\n\r\n";
                 "\r\n\r\n"; "GET /healthz\r\n\r\n" |]
  | 1 -> "GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n"
  | 2 ->
    Printf.sprintf "POST /sessions HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s"
      (pick (Array.of_list ("" :: "99999999999" :: odd_content_lengths)))
      body
  | 3 ->
    Printf.sprintf
      "POST /sessions HTTP/1.1\r\nContent-Length: %d\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) (String.length body + Sider_rand.Rng.int rng 3) body
  | 4 ->
    (* Truncated: the body is shorter than declared. *)
    Printf.sprintf "POST /sessions HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body + 1 + Sider_rand.Rng.int rng 40) body
  | 5 -> String.init (1 + Sider_rand.Rng.int rng 64) (fun _ ->
      Char.chr (Sider_rand.Rng.int rng 256))
  | 6 ->
    let r = Bytes.of_string (valid ()) in
    for _ = 0 to Sider_rand.Rng.int rng 4 do
      Bytes.set r (Sider_rand.Rng.int rng (Bytes.length r))
        (Char.chr (Sider_rand.Rng.int rng 256))
    done;
    Bytes.to_string r
  | _ -> valid ()

(* Every response in [text], in order; fails on bytes that are not a
   complete, well-formed response. *)
let parse_responses text =
  let n = String.length text in
  let rec go at acc =
    if at = n then List.rev acc
    else
      let rec blank i =
        if i + 3 >= n then Alcotest.failf "unterminated head in %S" text
        else if String.sub text i 4 = "\r\n\r\n" then i
        else blank (i + 1)
      in
      let head_end = blank at in
      let lines = String.split_on_char '\n' (String.sub text at (head_end - at)) in
      let status_line = String.trim (List.hd lines) in
      let status =
        match String.split_on_char ' ' status_line with
        | "HTTP/1.1" :: code :: _ :: _ when String.length code = 3 ->
          int_of_string code
        | _ -> Alcotest.failf "malformed status line %S" status_line
      in
      let clen =
        List.find_map
          (fun l ->
            match String.index_opt l ':' with
            | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
              int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> None)
          lines
      in
      match clen with
      | None -> Alcotest.failf "response without Content-Length: %S" status_line
      | Some len when head_end + 4 + len > n ->
        Alcotest.failf "short body after %S" status_line
      | Some len -> go (head_end + 4 + len) (status :: acc)
  in
  go 0 []

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Every byte the peer sends until it closes; a read that times out
   fails the test. *)
let read_to_eof sock =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read sock chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "no EOF within the receive timeout after %S"
        (Buffer.contents buf)
  in
  go ()

(* A body sent with Transfer-Encoding is not read as Content-Length
   bytes: here its "chunks" are a whole GET, which a server that read
   no body would run as the next request (400 for the empty create, then
   200 for the GET).  One 411, then the connection closes, and nothing
   is created. *)
let test_transfer_encoding_refused () =
  with_service @@ fun svc ->
  (with_raw_socket svc @@ fun sock ->
   write_string sock
     "POST /sessions HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
      GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
   Alcotest.(check (list int)) "one 411, then EOF" [ 411 ]
     (parse_responses (read_to_eof sock)));
  check_true "no session created"
    (Json.to_int (Json.member "count" (json_of (req svc "GET" "/sessions"))) = 0)

(* A client that sends [Expect: 100-continue] waits for the interim
   response before it sends its body (curl waits 1 s for bodies over
   1 MiB).  The service answers it once the head is accepted, then
   reads the body; a body over [max_body] gets its 413 and no 100. *)
let test_expect_continue () =
  let head len =
    Printf.sprintf
      "POST /sessions HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\
       Content-Length: %d\r\n\r\n" len
  in
  let interim = "HTTP/1.1 100 Continue\r\n\r\n" in
  let config = { Service.default_config with max_body = 4096 } in
  with_service ~config @@ fun svc ->
  (with_raw_socket svc @@ fun sock ->
   let body = create_body () in
   write_string sock (head (String.length body));
   Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.0;
   let got = Bytes.create (String.length interim) in
   let rec fill at =
     if at < Bytes.length got then
       match Unix.read sock got at (Bytes.length got - at) with
       | 0 -> Alcotest.fail "closed before 100 Continue"
       | k -> fill (at + k)
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         Alcotest.fail "no 100 Continue within 2 s of the head"
   in
   fill 0;
   Alcotest.(check string) "interim response" interim (Bytes.to_string got);
   write_string sock body;
   match read_responses sock 1 with
   | [ (status, _) ] -> Alcotest.(check int) "then the create" 201 status
   | _ -> Alcotest.fail "no response to the body");
  with_raw_socket svc @@ fun sock ->
  write_string sock (head 8192);
  match read_responses sock 1 with
  | [ (status, _) ] -> Alcotest.(check int) "over max_body" 413 status
  | _ -> Alcotest.fail "no response to an over-limit head"

let test_http_parser_fuzz () =
  with_sink (Some Sider_obs.Obs.null_sink) @@ fun () ->
  with_service @@ fun svc ->
  (* Warm up on a connection seen closed at both ends (the worker closes
     its end before this side reads EOF), so [before] counts no
     descriptor a worker has yet to close. *)
  (with_raw_socket svc @@ fun sock ->
   write_string sock "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
   let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
   let rec drain () =
     match Unix.read sock chunk 0 4096 with
     | 0 -> ()
     | k -> Buffer.add_subbytes buf chunk 0 k; drain ()
   in
   drain ();
   Alcotest.(check (list int)) "warm" [ 200 ] (parse_responses (Buffer.contents buf)));
  let before = open_fds () in
  let rng = Sider_rand.Rng.create 20260 in
  let answers = ref 0 in
  for _ = 1 to 4000 do
    let text =
      String.concat ""
        (List.init (1 + Sider_rand.Rng.int rng 3) (fun _ -> fuzz_request rng))
    in
    let reset = Sider_rand.Rng.int rng 6 = 0 in
    with_raw_socket svc @@ fun sock ->
    (* In up to four pieces; a reset connection stops partway. *)
    let stop =
      if reset then Sider_rand.Rng.int rng (String.length text + 1)
      else String.length text
    in
    let rec send at =
      if at < stop then begin
        let k = min (stop - at) (1 + Sider_rand.Rng.int rng (1 + (stop / 2))) in
        match Unix.write_substring sock text at k with
        | w -> send (at + w)
        | exception Unix.Unix_error _ -> ()
      end
    in
    send 0;
    if reset then Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0)
    else begin
      (try Unix.shutdown sock Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 4096 with
        | 0 -> ()
        | k -> Buffer.add_subbytes buf chunk 0 k; drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      List.iter
        (fun status ->
          incr answers;
          if status >= 500 || status < 200 then
            Alcotest.failf "status %d for %S" status text)
        (parse_responses (Buffer.contents buf))
    end
  done;
  check_true "some requests answered" (!answers > 2000);
  status_is "healthz after the fuzz" 200 (req svc "GET" "/healthz");
  (* The workers close their ends as they see each EOF or reset. *)
  let rec settle k =
    if open_fds () > before && k > 0 then begin
      Thread.delay 0.01;
      settle (k - 1)
    end
  in
  settle 200;
  Alcotest.(check int) "open file descriptors" before (open_fds ())

(* --- threads and the stop path ---------------------------------------------------- *)

let threads () = Array.length (Sys.readdir "/proc/self/task")

(* [count ()] once it has settled: two reads 20 ms apart agree, so no
   thread an earlier test joined is still on its way out. *)
let settled count =
  let rec go k last =
    Thread.delay 0.02;
    let now = count () in
    if now = last || k = 0 then now else go (k - 1) now
  in
  go 50 (count ())

(* [count ()] once it reads [want], or what it reads after two seconds:
   a joined thread can linger in /proc/self/task for a moment. *)
let settle_to want count =
  let rec go k =
    let now = count () in
    if now = want || k = 0 then now
    else (
      Thread.delay 0.01;
      go (k - 1))
  in
  go 200

let test_start_and_stop_threads () =
  Fault.reset ();
  (* The runtime starts its tick thread with the first thread created:
     have it running before the baseline. *)
  Thread.join (Thread.create ignore ());
  let threads_before = settled threads in
  let fds_before = open_fds () in
  let config =
    { Service.default_config with workers = 2; session_ttl_s = 60.0 }
  in
  let svc = Service.start ~config () in
  let added = threads () - threads_before in
  Fun.protect ~finally:(fun () -> Service.stop svc) (fun () ->
      Alcotest.(check int) "start adds the poller and 2 workers" 3 added;
      with_raw_socket svc @@ fun sock ->
      write_string sock "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
      (match read_responses sock 1 with
       | [ (200, _) ] -> ()
       | _ -> Alcotest.fail "healthz over keep-alive failed");
      (* The connection is parked (or on its way back to the poller):
         stop must close it. *)
      Service.stop svc;
      let buf = Bytes.create 16 in
      check_true "parked connection reads EOF at stop"
        (Unix.read sock buf 0 16 = 0));
  Alcotest.(check int) "threads after stop" threads_before
    (settle_to threads_before threads);
  Alcotest.(check int) "open file descriptors after stop" fds_before
    (settle_to fds_before open_fds)

(* The poller selects on the listening socket and its pipe, and
   [select] cannot watch a descriptor at or past FD_SETSIZE (1024): a
   service that would get one refuses to start, and leaks nothing,
   rather than run a poller that can never accept. *)
let test_start_refuses_unwatchable_fds () =
  let before = open_fds () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* Past 1024 dups every descriptor below 1024 is taken. *)
  let held = ref [ null ] in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close !held)
    (fun () ->
      for _ = 1 to 1100 do
        held := Unix.dup null :: !held
      done;
      match Service.start () with
      | svc ->
        Service.stop svc;
        Alcotest.fail "started on descriptors select cannot watch"
      | exception Unix.Unix_error (Unix.EINVAL, _, _) -> ());
  Alcotest.(check int) "open file descriptors" before (open_fds ())

let suite =
  [
    case "full interaction loop over http" test_lifecycle;
    case "validation and error mapping" test_error_mapping;
    case "degenerate dataset maps to client error" test_degenerate_dataset_maps_to_400;
    case "datasets smaller than 2x2 are refused" test_tiny_datasets_refused;
    case "integers beyond 2^53 are refused" test_out_of_range_integers_refused;
    case "deeply nested body is refused" test_deep_nesting_refused;
    slow_case "queue overflow sheds 429" test_queue_full_sheds_429;
    case "deadline expiry sheds 503" test_deadline_expired_sheds_503;
    case "session capacity sheds 429" test_max_sessions_sheds_429;
    case "slow client gets 408" test_slow_client_gets_408;
    case "drop and truncate injections" test_drop_and_truncate_requests;
    case "journal append failure maps to 503" test_journal_fail_append_maps_to_503;
    case "restart recovers journaled sessions" test_restart_recovers_sessions;
    slow_case "crash between journal and ack" test_crash_between_journal_and_ack;
    case "non-finite jitter and cutoff are refused"
      test_non_finite_inputs_refused;
    case "zero-sweep update answers valid json"
      test_zero_sweep_update_body_parses;
    case "corrupt journal is quarantined" test_corrupt_journal_quarantined;
    slow_case "concurrent tenants stay coherent" test_concurrent_tenants;
    case "keep-alive serves sequential requests"
      test_keepalive_sequential_requests;
    case "pipelined requests both answered" test_pipelined_requests_both_answered;
    case "idle timeout closes parked connection"
      test_idle_timeout_closes_connection;
    case "Connection: close honoured" test_connection_close_honoured;
    case "request cap rolls the connection" test_request_cap_rolls_connection;
    case "torn request leaves service healthy"
      test_torn_request_leaves_service_healthy;
    slow_case "stale connection: POST not auto-retried"
      test_stale_connection_post_not_retried;
    case "server answers 400 to a non-digit Content-Length"
      test_server_rejects_odd_content_length;
    case "client refuses a non-digit Content-Length"
      test_client_rejects_odd_content_length;
    case "server answers 400 to differing Content-Length fields"
      test_server_rejects_differing_content_lengths;
    case "client refuses differing Content-Length fields"
      test_client_rejects_differing_content_lengths;
    slow_case "parked connections bounded below FD_SETSIZE"
      test_parked_connections_bounded;
    case "recover bounds resident sessions"
      test_recover_bounds_resident_sessions;
    slow_case "ttl evicts and rehydrates" test_ttl_evicts_and_rehydrates;
    slow_case "eviction/rehydration race" test_eviction_rehydration_race;
    slow_case "acked events survive evict+crash"
      test_acked_event_survives_evict_touch_crash;
    case "capacity evicts idle before 429" test_capacity_evicts_idle_before_429;
    case "compaction through the service" test_compaction_through_service;
    case "counted arm fires n times" test_counted_arm_fires_n_times;
    case "persistent arm fires until reset" test_persistent_arm_fires_until_reset;
    case "trace id links header, access log, spans and flight dump"
      test_trace_links_all_surfaces;
    case "slo route reports burn and degrades healthz"
      test_slo_route_and_degraded_healthz;
    case "poisoned access log does not wedge requests"
      test_access_log_poisoned_channel;
    case "create decode allocates at most 5nd words"
      test_create_decode_allocation;
    case "warm projection response allocates at most 64 words"
      test_projection_response_allocation;
    case "warm keep-alive read puts nothing on the major heap"
      test_warm_read_major_heap;
    prop_projection_matches_tree;
    case "framing matches the reference for every status"
      test_framing_matches_reference;
    case "reused buffer: responses byte-exact, one by one and pipelined"
      test_reused_buffer_responses_exact;
    slow_case "concurrent projection reads get their own bytes"
      test_concurrent_projection_reads;
    slow_case "pipelined reads then a reset leave the service up"
      test_pipelined_reset_leaves_service_up;
    case "create decode refuses and accepts as the tree did"
      test_create_decode_matches_tree;
    prop_streamed_create_matches_string;
    case "streamed create puts at most nd + 2n words on the major heap"
      test_streamed_create_major_heap;
    case "Transfer-Encoding is a 411 and a close, before routing"
      test_transfer_encoding_refused;
    case "Expect: 100-continue is answered before the body"
      test_expect_continue;
    case "client refuses a malformed status line" test_client_rejects_odd_status;
    case "client bounds the response head" test_client_bounds_response_head;
    case "http parser fuzz: every answer well-formed 2xx/4xx, no fd leaked"
      test_http_parser_fuzz;
    case "start adds the poller and workers; stop returns threads and fds"
      test_start_and_stop_threads;
    case "start refuses descriptors select cannot watch"
      test_start_refuses_unwatchable_fds;
    case "client body grows with the bytes, not the declared length"
      test_client_body_follows_bytes;
    case "a changed header fails the next compaction, not a read or write"
      test_changed_header_fails_next_compaction;
    case "warm client create allocates about one copy of its body"
      test_client_create_words;
    case "/metrics carries the stage series each request implies"
      test_stage_series;
  ]

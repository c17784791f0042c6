(* The multi-tenant session service: a bounded-queue worker-pool HTTP
   server exposing the full SIDER interaction loop (create session, add
   constraint, update background, fetch projection) over JSON, with
   write-ahead journaling, journal compaction, keep-alive connections,
   TTL session eviction, overload shedding and fault-injection hooks.

   Request lifecycle:

     accept thread --[bounded queue or 429]--> worker
       worker: deadline check -> read (408/413/400) -> fault polls
               -> route -> validate -> journal append (fsync)
               -> apply to session -> crash poll -> acknowledge
               -> maybe compact journal
       then: pipelined bytes pending -> serve next request in-worker
             otherwise -> park connection with the idle watcher
     watcher: select over parked connections + a self-pipe; a readable
              connection re-enters the worker queue immediately, one
              idle past [idle_timeout_s] is closed
     janitor: sweeps the registry, evicting sessions idle past
              [session_ttl_s] (journal kept; rehydrated on next touch)

   The journal-before-apply order is the crash-recovery invariant: a
   client that received 2xx is guaranteed the event is durable, and a
   crash at any other instant loses at most the unacknowledged
   in-flight request (see Persist).  An update whose solve fails stays
   in both the journal and the session history (Session records the
   attempt either way): journal lines and history events remain 1:1,
   which compaction's skip arithmetic depends on, and a replay of the
   failed event rolls back exactly as the live one did. *)

open Sider_linalg
open Sider_data
open Sider_core
open Sider_robust
open Sider_projection
module Obs = Sider_obs.Obs

type config = {
  addr : string;
  port : int;
  data_dir : string option;
  max_sessions : int;
  queue_capacity : int;
  workers : int;
  read_timeout_s : float;
  deadline_s : float;
  max_body : int;
  keepalive_requests : int;
  idle_timeout_s : float;
  session_ttl_s : float;
  compact_events : int;
  access_log : out_channel option;
  slo_latency_target_s : float;
  slo_objective : float;
}

let default_config =
  { addr = "127.0.0.1";
    port = 0;
    data_dir = None;
    max_sessions = 256;
    queue_capacity = 64;
    workers = 4;
    read_timeout_s = 5.0;
    deadline_s = 30.0;
    max_body = 8 * 1024 * 1024;
    keepalive_requests = 1000;
    idle_timeout_s = 5.0;
    session_ttl_s = 0.0;
    compact_events = 1024;
    access_log = None;
    slo_latency_target_s = 0.5;
    slo_objective = 0.99 }

(* Service time base: [Obs.now_ns] (wall-rebased, non-decreasing), so
   durations and deadlines survive wall-clock steps.  One clock for
   queue waits, deadlines, park times and request durations. *)
let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

(* One live connection.  [c_enqueued_at] is reset every time the
   connection (re-)enters the worker queue, so each request's deadline
   covers its own queue wait, not the whole connection lifetime. *)
type conn = {
  c_fd : Unix.file_descr;
  c_reader : Http.reader;
  mutable c_served : int;
  mutable c_enqueued_at : float;
}

type t = {
  config : config;
  registry : Registry.t;
  recovery_failures : (string * Sider_error.t) list;
  slo : Slo.t;
  access_m : Mutex.t;
  sock : Unix.file_descr;
  bound_port : int;
  queue : conn Queue.t;
  q_lock : Mutex.t;
  q_nonempty : Condition.t;
  idle_lock : Mutex.t;
  mutable idle : (conn * float) list;  (* parked with park time *)
  wake_r : Unix.file_descr;  (* watcher self-pipe *)
  wake_w : Unix.file_descr;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  mutable watcher_thread : Thread.t option;
  mutable janitor_thread : Thread.t option;
}

let registry t = t.registry

let port t = t.bound_port

let recovery_failures t = t.recovery_failures

(* --- responses ------------------------------------------------------------- *)

exception Reply of int * string
(* Early exit from a route handler with a finished (status, JSON body). *)

(* The content types a route declares for its body. *)
let json = "application/json"

let plain = "text/plain; version=0.0.4"

(* A route prints its body into the worker's buffer, after the framing
   gap, and answers its status and content type: a small tree printed
   as [Json.to_string] prints it, or a short string copied in. *)
let tree w status j =
  Json.write w j;
  (status, json)

let text w status content_type body =
  Json.write_raw w body;
  (status, content_type)

let err_body label detail =
  Json.to_string
    (Json.Obj
       [ ("error", Json.String label); ("detail", Json.String detail) ])

let bad fmt = Printf.ksprintf (fun m -> raise (Reply (400, err_body "bad-request" m))) fmt

let status_of_error e =
  match e with
  | Sider_error.Degenerate_data _ -> 400
  | Sider_error.Io_failure _ -> 503
  | Sider_error.Singular_covariance _ | Sider_error.Solver_divergence _
  | Sider_error.Non_convergence _ | Sider_error.Nan_detected _ -> 422

let body_of_error e =
  err_body (Sider_error.label e) (Sider_error.context_of e).Sider_error.detail

(* --- request-body helpers -------------------------------------------------- *)

let body_json (req : Http.request) =
  if String.trim req.body = "" then Json.Obj [] else Json.of_string req.body

let opt_member j key conv default =
  match Json.member_opt key j with Some v -> conv v | None -> default

let method_of_name = function
  | "pca" -> View.Pca
  | "ica" -> View.Ica
  | other -> bad "unknown projection method %S (expected \"pca\" or \"ica\")" other

let rows_field j session =
  let rows =
    match Json.member_opt "rows" j with
    | Some v -> Json.to_ints v
    | None -> bad "missing required field \"rows\""
  in
  if Array.length rows = 0 then bad "empty row selection";
  let n, _ = Mat.dims (Session.data session) in
  Array.iter
    (fun r -> if r < 0 || r >= n then bad "row %d out of range [0, %d)" r n)
    rows;
  rows

(* --- session views --------------------------------------------------------- *)

let session_summary ?trace (entry : Registry.entry) =
  let s = Registry.session ?trace entry in
  let n, d = Mat.dims (Session.data s) in
  Json.Obj
    [ ("id", Json.String entry.id);
      ("rows", Json.Number (float_of_int n));
      ("columns", Json.Number (float_of_int d));
      ("events", Json.Number (float_of_int (List.length (Session.history s))));
      ("constraints", Json.Number (float_of_int (Session.n_constraints s)));
      ("method", Json.String (View.method_name (Session.method_ s)));
      ("degradations",
       Json.Number (float_of_int (List.length (Session.degradations s)))) ]

(* [warm_sweeps] (0) and [cold_sweeps] (= [sweeps]) stay for clients
   that parse them: every sweep is a full sweep. *)
let report_json (r : Sider_maxent.Solver.report) =
  Json.Obj
    [ ("converged", Json.Bool r.converged);
      ("sweeps", Json.Number (float_of_int r.sweeps));
      ("warm_sweeps", Json.Number 0.0);
      ("cold_sweeps", Json.Number (float_of_int r.sweeps));
      ("updates", Json.Number (float_of_int r.updates));
      ("max_dlambda", Json.Number r.max_dlambda);
      ("max_dparam", Json.Number r.max_dparam);
      ("elapsed_s", Json.Number r.elapsed);
      ("degradations",
       Json.List
         (List.map
            (fun e -> Json.String (Sider_error.to_string e))
            r.degradations)) ]

(* --- projection bodies -------------------------------------------------------- *)

type scratch = {
  mutable x : float array;
  mutable y : float array;
  mutable bx : float array;
  mutable by : float array;
}

let scratch () = { x = [||]; y = [||]; bx = [||]; by = [||] }

(* The fields [Json.to_string] would print for the tree of the view's
   method, axis labels and scores and of every point, in that order:
   the coordinates come from [Mat.mv_into], which sums each row as
   [Session.scatter]'s [Mat.row_dot] does, into the scratch, and every
   number is printed from there, so no float is boxed and no point
   record, tree or string is built. *)
let write_projection sc w session =
  let data = Session.data session
  and sample = Session.background_sample session in
  let n, _ = Mat.dims data in
  if Array.length sc.x <> n then begin
    sc.x <- Array.create_float n;
    sc.y <- Array.create_float n;
    sc.bx <- Array.create_float n;
    sc.by <- Array.create_float n
  end;
  let view = Session.current_view session in
  let a1 = view.View.axis1.View.direction
  and a2 = view.View.axis2.View.direction in
  Mat.mv_into ~dst:sc.x data a1;
  Mat.mv_into ~dst:sc.y data a2;
  Mat.mv_into ~dst:sc.bx sample a1;
  Mat.mv_into ~dst:sc.by sample a2;
  let xl, yl = Session.axis_labels session in
  let sx, sy = Session.view_scores session in
  Json.write_raw w "{\"method\":";
  Json.write_string w (View.method_name (Session.method_ session));
  Json.write_raw w ",\"axis_labels\":[";
  Json.write_string w xl;
  Json.write_char w ',';
  Json.write_string w yl;
  Json.write_raw w "],\"scores\":[";
  Json.write_number w sx;
  Json.write_char w ',';
  Json.write_number w sy;
  Json.write_raw w "],\"points\":[";
  let labels = Dataset.labels (Session.dataset session) in
  for i = 0 to n - 1 do
    Json.write_raw w (if i = 0 then "{\"i\":" else ",{\"i\":");
    Json.write_int w i;
    Json.write_raw w ",\"x\":";
    Json.write_number_at w sc.x i;
    Json.write_raw w ",\"y\":";
    Json.write_number_at w sc.y i;
    Json.write_raw w ",\"bx\":";
    Json.write_number_at w sc.bx i;
    Json.write_raw w ",\"by\":";
    Json.write_number_at w sc.by i;
    (match labels with
     | Some l ->
       Json.write_raw w ",\"label\":";
       Json.write_string w l.(i)
     | None -> ());
    Json.write_char w '}'
  done;
  Json.write_raw w "]}"

(* A worker's response buffer and projection scratch, kept for its whole
   life, so a warm response allocates neither.  Between responses it
   keeps at most [retained_bytes] of each: a larger response's buffer
   or scratch is dropped right after it, and the next one grows a fresh
   buffer from [initial_bytes].  A fixed constant, not an option: it
   only bounds what an idle worker holds (a projection body is about
   124 bytes a row, so 1 MiB keeps sessions up to about 8,000 rows
   warm), and no load changes what the service sends. *)
type out = { mutable w : Json.writer; mutable sc : scratch }

let initial_bytes = 4096

let retained_bytes = 1 lsl 20

let out () = { w = Json.writer initial_bytes; sc = scratch () }

let release out =
  if Json.capacity out.w > retained_bytes then
    out.w <- Json.writer initial_bytes;
  if 4 * 8 * Array.length out.sc.x > retained_bytes then out.sc <- scratch ()

(* --- request context -------------------------------------------------------- *)

(* Pipeline-stage histograms, labeled by stage.  Preregistered handles:
   the per-request path must never do by-name labeled lookups in a loop
   (obs-hygiene R6), and handles skip the registry probe entirely. *)
let stage_queue = Obs.labeled_hist "serve.stage_s" [ ("stage", "queue") ]
let stage_journal = Obs.labeled_hist "serve.stage_s" [ ("stage", "journal") ]
let stage_solve = Obs.labeled_hist "serve.stage_s" [ ("stage", "solve") ]
let stage_project = Obs.labeled_hist "serve.stage_s" [ ("stage", "project") ]

(* Per-request observability state, threaded from [serve_one] through
   the route handlers and back into the access-log line. *)
type req_ctx = {
  rc_trace : string;
  mutable rc_tenant : string;  (* session id touched, "-" otherwise *)
  mutable rc_journal_ns : int64;  (* journal append+fsync time *)
  mutable rc_sweeps : int;  (* sweeps of an update's solve *)
}

let make_ctx trace =
  { rc_trace = trace; rc_tenant = "-"; rc_journal_ns = 0L; rc_sweeps = 0 }

let ns_span t0 = Int64.sub (Obs.now_ns ()) t0

(* --- mutations ------------------------------------------------------------- *)

let journal_event ctx (entry : Registry.entry) event =
  match entry.journal with
  | None -> ()
  | Some j ->
    let t0 = Obs.now_ns () in
    Persist.journal_append j event;
    let dt = ns_span t0 in
    ctx.rc_journal_ns <- Int64.add ctx.rc_journal_ns dt;
    Obs.observe_into stage_journal (Int64.to_float dt /. 1e9)

(* Run [f] with the per-session lock held; 404 if the id is unknown or
   the entry lost a race with DELETE.  Touches the entry (resetting its
   idle clock) — {!Registry.session} inside [f] rehydrates an evicted
   entry under this same lock. *)
let with_entry t id f =
  match Registry.find t.registry id with
  | None -> raise (Reply (404, err_body "not-found" ("no session " ^ id)))
  | Some entry ->
    Mutex.lock entry.Registry.lock [@sider.lock "entry"];
    Fun.protect ~finally:(fun () -> Mutex.unlock entry.Registry.lock)
    @@ fun () ->
    if entry.Registry.closed then
      raise (Reply (404, err_body "not-found" ("no session " ^ id)))
    else (
      Registry.touch entry;
      f entry)

let crash_poll path =
  if Fault.should_crash_after_journal ~path then raise Fault.Crash_injected

(* The default tags Session would assign — computed here so the
   journaled event carries the exact tag the in-memory apply records. *)
let default_tag session prefix =
  Printf.sprintf "%s%d" prefix (List.length (Session.constraint_tags session) + 1)

type create = {
  dataset : Dataset.t;
  seed : int;
  standardize : bool;
  jitter : float;
  method_ : View.method_;
}

(* The body is read once, with a cursor: the dataset's rows go straight
   into one float array, the other fields, small, as trees (the first
   of a repeated key counts, as [Json.member_opt] finds it).  Nothing is
   checked until the whole body has parsed, so a syntax error anywhere
   is the 400 [malformed-json] a tree parse gives; the checks then run
   in the order they always have: the dataset, its size, then seed,
   standardize, jitter and method. *)
let decode_create body =
  if String.trim body = "" then bad "missing required field \"dataset\"";
  let c = Json.cursor body in
  let dataset = ref None in
  let seed = ref None and standardize = ref None in
  let jitter = ref None and method_ = ref None in
  let first slot =
    let v = Json.read_value c in
    if Option.is_none !slot then slot := Some v
  in
  (match Json.peek c with
   | `Obj ->
     Json.read_object c (function
       | "dataset" when Option.is_none !dataset ->
         dataset := Some (Persist.read_dataset c)
       | "seed" -> first seed
       | "standardize" -> first standardize
       | "jitter" -> first jitter
       | "method" -> first method_
       | _ -> ignore (Json.read_value c))
   | _ -> ignore (Json.read_value c));
  Json.finish c;
  let ds =
    match !dataset with
    | Some validate -> validate ()
    | None -> bad "missing required field \"dataset\""
  in
  (* Checked before anything is journaled: smaller data has no 2-D view,
     and a one-row session would be acknowledged and then fail replay. *)
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  if n < 2 || d < 2 then
    bad "dataset must have at least 2 rows and 2 columns, got %d x %d" n d;
  let field slot conv default =
    match !slot with Some v -> conv v | None -> default
  in
  let seed = field seed Json.to_int 42 in
  let standardize = field standardize Json.to_bool true in
  let jitter = field jitter Json.to_float 1e-3 in
  let method_ = method_of_name (field method_ Json.to_str "pca") in
  { dataset = ds; seed; standardize; jitter; method_ }

let handle_create t ctx w (req : Http.request) =
  let { dataset; seed; standardize; jitter; method_ } = decode_create req.body in
  let session = Session.create ~seed ~standardize ~jitter ~method_ dataset in
  match Registry.add t.registry session with
  | Error `Full ->
    Obs.count "serve.rejected_sessions_full";
    raise (Reply (429, err_body "too-many-sessions" "session capacity reached"))
  | Error (`Io e) -> raise (Reply (status_of_error e, body_of_error e))
  | Ok entry ->
    ctx.rc_tenant <- entry.Registry.id;
    crash_poll req.path;
    tree w 201 (session_summary entry)

let handle_constraint t ctx w (req : Http.request) id =
  let j = body_json req in
  let ctype = opt_member j "type" Json.to_str "cluster" in
  with_entry t id @@ fun entry ->
  let s = Registry.session ~trace:ctx.rc_trace entry in
  let event =
    match ctype with
    | "cluster" ->
      let rows = rows_field j s in
      let tag = opt_member j "tag" Json.to_str (default_tag s "cluster") in
      Session.Added_cluster { rows; tag }
    | "two_d" ->
      let rows = rows_field j s in
      let tag = opt_member j "tag" Json.to_str (default_tag s "2d") in
      Session.Added_two_d { rows; tag }
    | "margin" -> Session.Added_margin
    | "one_cluster" -> Session.Added_one_cluster
    | other -> bad "unknown constraint type %S" other
  in
  journal_event ctx entry event;
  (match event with
   | Session.Added_cluster { rows; tag } ->
     Session.add_cluster_constraint ~tag s rows
   | Session.Added_two_d { rows; tag } ->
     Session.add_two_d_constraint ~tag s rows
   | Session.Added_margin -> Session.add_margin_constraint s
   | Session.Added_one_cluster -> Session.add_one_cluster_constraint s
   | Session.Updated _ | Session.Viewed _ -> assert false);
  crash_poll req.path;
  Registry.maybe_compact t.registry entry;
  tree w 200 (session_summary entry)

let handle_update t ctx w (req : Http.request) id ~deadline_at =
  let j = body_json req in
  let remaining = deadline_at -. now_s () in
  if remaining <= 0.0 then (
    Obs.count "serve.deadline_expired";
    raise
      (Reply (503, err_body "deadline-expired" "request deadline exhausted")));
  let requested = opt_member j "time_cutoff" Json.to_float 10.0 in
  (* The cutoff is journaled, and JSON has no infinity: a non-finite one
     would be acknowledged and then fail recovery. *)
  if not (Float.is_finite requested) then
    bad "time_cutoff must be a finite number, got %g" requested;
  let time_cutoff = Float.min requested remaining in
  let max_sweeps = Option.map Json.to_int (Json.member_opt "max_sweeps" j) in
  with_entry t id @@ fun entry ->
  let s = Registry.session ~trace:ctx.rc_trace entry in
  journal_event ctx entry (Session.Updated { time_cutoff; max_sweeps });
  let t0 = Obs.now_ns () in
  let result =
    Session.update_background ~trace:ctx.rc_trace ~time_cutoff ?max_sweeps s
  in
  Obs.observe_into stage_solve (Int64.to_float (ns_span t0) /. 1e9);
  (match result with
   | Ok (r : Sider_maxent.Solver.report) -> ctx.rc_sweeps <- r.sweeps
   | Error _ -> ());
  crash_poll req.path;
  Registry.maybe_compact t.registry entry;
  match result with
  | Ok report -> tree w 200 (report_json report)
  | Error e -> text w (status_of_error e) json (body_of_error e)

let handle_view t ctx out (req : Http.request) id =
  let j = body_json req in
  let m = method_of_name (opt_member j "method" Json.to_str "pca") in
  with_entry t id @@ fun entry ->
  let s = Registry.session ~trace:ctx.rc_trace entry in
  journal_event ctx entry (Session.Viewed m);
  let t0 = Obs.now_ns () in
  ignore (Session.recompute_view ~method_:m s);
  write_projection out.sc out.w s;
  Obs.observe_into stage_project (Int64.to_float (ns_span t0) /. 1e9);
  crash_poll req.path;
  Registry.maybe_compact t.registry entry;
  (200, json)

(* --- routing --------------------------------------------------------------- *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* Route label for the metrics: a fixed, closed set of values so the
   [serve.request_s{route,status}] family stays within the cardinality
   budget no matter what paths clients probe. *)
let route_label path =
  match segments path with
  | [ "healthz" ] -> "healthz"
  | [ "metrics" ] -> "metrics"
  | [ "slo" ] -> "slo"
  | [ "sessions" ] -> "sessions"
  | [ "sessions"; _ ] -> "session"
  | [ "sessions"; _; "constraints" ] -> "constraints"
  | [ "sessions"; _; "update" ] -> "update"
  | [ "sessions"; _; "view" ] -> "view"
  | [ "sessions"; _; "projection" ] -> "projection"
  | _ -> "other"

let observability_route = function
  | "healthz" | "metrics" | "slo" -> true
  | _ -> false

let tenant_of_path path =
  match segments path with "sessions" :: id :: _ -> id | _ -> "-"

let slo_burn_gauges t =
  let snap = Slo.snapshot t.slo in
  (match snap.Slo.s_windows with
   | [ w5; w1 ] ->
     Obs.gauge "serve.slo_burn_5m" w5.Slo.w_burn;
     Obs.gauge "serve.slo_burn_1h" w1.Slo.w_burn
   | _ -> ());
  snap

(* The body goes into [out.w], whose body [serve_one] has started. *)
let route t ctx out (req : Http.request) ~deadline_at =
  let w = out.w in
  match (req.meth, segments req.path) with
  | "GET", [ "healthz" ] ->
    if Slo.degraded t.slo then
      text w 503 json
        (err_body "slo-degraded"
           "error budget burning above threshold in both windows")
    else text w 200 plain "ok\n"
  | "GET", [ "slo" ] ->
    text w 200 json (Slo.snapshot_to_json (Slo.snapshot t.slo))
  | "GET", [ "metrics" ] ->
    ignore (slo_burn_gauges t);
    text w 200 plain (Serve.exposition (Obs.metrics_snapshot ()))
  | "POST", [ "sessions" ] -> handle_create t ctx w req
  | "GET", [ "sessions" ] ->
    tree w 200
      (Json.Obj
         [ ("count", Json.Number (float_of_int (Registry.count t.registry)));
           ("resident",
            Json.Number (float_of_int (Registry.resident_count t.registry)));
           ("sessions",
            Json.List
              (List.map (fun id -> Json.String id) (Registry.ids t.registry)))
         ])
  | "GET", [ "sessions"; id ] ->
    with_entry t id (fun entry ->
        tree w 200 (session_summary ~trace:ctx.rc_trace entry))
  | "DELETE", [ "sessions"; id ] ->
    (match Registry.remove t.registry id with
     | Some _ -> (204, json)
     | None -> text w 404 json (err_body "not-found" ("no session " ^ id)))
  | "POST", [ "sessions"; id; "constraints" ] ->
    handle_constraint t ctx w req id
  | "POST", [ "sessions"; id; "update" ] ->
    handle_update t ctx w req id ~deadline_at
  | "POST", [ "sessions"; id; "view" ] -> handle_view t ctx out req id
  | "GET", [ "sessions"; id; "projection" ] ->
    with_entry t id (fun entry ->
        let s = Registry.session ~trace:ctx.rc_trace entry in
        let t0 = Obs.now_ns () in
        write_projection out.sc w s;
        Obs.observe_into stage_project (Int64.to_float (ns_span t0) /. 1e9);
        (200, json))
  | _, ("sessions" :: _ | [ "healthz" ] | [ "metrics" ] | [ "slo" ]) ->
    text w 405 json (err_body "method-not-allowed" (req.meth ^ " " ^ req.path))
  | _ -> text w 404 json (err_body "not-found" req.path)

(* A route that raised may have printed part of its body: the error's
   body starts over. *)
let dispatch t ctx out (req : Http.request) ~deadline_at =
  let error status body =
    Http.start_body out.w;
    text out.w status json body
  in
  try route t ctx out req ~deadline_at with
  | Reply (status, body) -> error status body
  | Sider_error.Error e -> error (status_of_error e) (body_of_error e)
  | Json.Parse_error m -> error 400 (err_body "malformed-json" m)
  | Not_found -> error 400 (err_body "bad-request" "missing required field")
  | Invalid_argument m -> error 400 (err_body "bad-request" m)
  | Failure m -> error 400 (err_body "bad-request" m)

(* --- connection handling --------------------------------------------------- *)

(* Frame and send the body in [w]; false when the write failed. *)
let respond_status ?(keep_alive = false) ?trace ?(flight_on_5xx = true) w fd
    (status, content_type) =
  let headers = if status = 429 || status = 503 then [ ("Retry-After", "1") ] else [] in
  let headers =
    match trace with
    | Some id -> (Http.trace_response_header, id) :: headers
    | None -> headers
  in
  if status >= 500 then begin
    let tag = match trace with Some id -> id ^ " " | None -> "" in
    Obs.flight_event ~name:"serve.error"
      ~detail:(Printf.sprintf "%s%d %s" tag status (Http.body_text w));
    if flight_on_5xx then
      Obs.flight_auto_dump ?trace
        ~reason:(Printf.sprintf "serve.5xx %d" status) ()
  end;
  Http.respond ~headers ~status ~content_type ~keep_alive fd w

(* A response whose body is a short JSON string, [err_body]'s. *)
let respond_text ?trace w fd status body =
  Http.start_body w;
  ignore (respond_status ?trace w fd (text w status json body))

(* One structured JSON line per completed response: everything needed
   to correlate a request with its span tree and any flight dump (the
   trace id), plus the latency decomposition the stage histograms only
   hold in aggregate.  Flushed per line so a crash loses nothing. *)
let access_log_line t ctx ~route ~meth ~path ~status ~dur_s ~queue_s =
  match t.config.access_log with
  | None -> ()
  | Some oc ->
    let line =
      Printf.sprintf
        "{\"ts\":%.6f,\"trace\":\"%s\",\"tenant\":\"%s\",\"route\":\"%s\",\
         \"method\":\"%s\",\"path\":\"%s\",\"status\":%d,\"dur_s\":%.6f,\
         \"queue_s\":%.6f,\"journal_fsync_ns\":%Ld,\"sweeps\":%d}\n"
        (now_s ())
        (Obs.json_escape ctx.rc_trace)
        (Obs.json_escape ctx.rc_tenant)
        (Obs.json_escape route) (Obs.json_escape meth) (Obs.json_escape path)
        status dur_s queue_s ctx.rc_journal_ns ctx.rc_sweeps
    in
    (* Fun.protect, not a bare unlock: the Sys_error handler below only
       covers channel faults — anything else (Out_of_memory, a signal
       exception) would strand access_m and wedge every later request
       that tries to log. *)
    Mutex.lock t.access_m [@sider.lock "access_m"];
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.access_m)
      (fun () ->
        try
          output_string oc line;
          flush oc
        with Sys_error _ -> ())

(* Per-response accounting: the labeled request histogram, the
   per-tenant counter, the SLO windows (session-facing routes only —
   observability probes must not burn the budget they report) and the
   access log. *)
let finish t ~t0 ~queue_s ~ctx ~route ~meth ~path ~status ~slo =
  let dur_s = now_s () -. t0 in
  Obs.observe_labeled "serve.request_s"
    [ ("route", route); ("status", string_of_int status) ]
    dur_s;
  Obs.count_labeled "serve.tenant_requests" [ ("tenant", ctx.rc_tenant) ];
  if slo then Slo.record t.slo ~status ~dur_s;
  access_log_line t ctx ~route ~meth ~path ~status ~dur_s ~queue_s

(* Serve one request from [conn], its response printed and framed in
   [out]; [`Keep] means the connection stays open for another request
   (the caller decides whether to serve it now — pipelined bytes
   pending — or park it with the watcher).  A response whose write
   failed closes the connection: the peer is gone, and answering the
   requests it pipelined would only write into a reset socket. *)
let serve_one t out conn =
  Obs.count "serve.requests";
  let t0 = now_s () in
  let queue_s = Float.max 0.0 (t0 -. conn.c_enqueued_at) in
  Obs.observe_into stage_queue queue_s;
  let deadline_at = conn.c_enqueued_at +. t.config.deadline_s in
  (* Responses emitted before a request parses still carry a (fresh)
     trace id and still produce an access-log line; the read errors are
     client-side failures and stay out of the SLO windows. *)
  let early ~route ~status body =
    let trace = Http.fresh_trace_id () in
    respond_text ~trace out.w conn.c_fd status body;
    finish t ~t0 ~queue_s ~ctx:(make_ctx trace) ~route ~meth:"-" ~path:"-"
      ~status ~slo:(status >= 500)
  in
  if t0 > deadline_at then (
    Obs.count "serve.deadline_expired";
    early ~route:"queue" ~status:503
      (err_body "deadline-expired" "queued past deadline");
    `Close)
  else (
    match
      Http.read_request_buffered ~max_body:t.config.max_body conn.c_reader
    with
    | Error Http.Timeout ->
      Obs.count "serve.read_timeouts";
      early ~route:"read" ~status:408
        (err_body "request-timeout" "client too slow");
      `Close
    | Error Http.Closed -> `Close
    | Error Http.Too_large ->
      early ~route:"read" ~status:413
        (err_body "too-large" "request exceeds limits");
      `Close
    | Error (Http.Malformed m) ->
      early ~route:"read" ~status:400 (err_body "malformed-request" m);
      `Close
    | Ok req ->
      let req =
        match Fault.request_fault ~path:req.path with
        | Some `Drop -> None
        | Some (`Delay ms) ->
          Thread.delay (float_of_int ms /. 1000.0);
          Some req
        | Some `Truncate ->
          Some
            { req with
              Http.body =
                String.sub req.Http.body 0 (String.length req.Http.body / 2)
            }
        | None -> Some req
      in
      (match req with
       | None -> `Close
       | Some req ->
         let trace =
           match Http.trace_of_request req with
           | Some id -> id
           | None -> Http.fresh_trace_id ()
         in
         let route = route_label req.Http.path in
         let ctx = make_ctx trace in
         ctx.rc_tenant <- tenant_of_path req.Http.path;
         Http.start_body out.w;
         let ((status, _) as reply) =
           Obs.with_span "serve.request"
             ~attrs:
               [ ("trace", Obs.Str trace); ("route", Obs.Str route) ]
           @@ fun () ->
           let ((status, _) as r) = dispatch t ctx out req ~deadline_at in
           Obs.span_attr "status" (Obs.Int status);
           r
         in
         conn.c_served <- conn.c_served + 1;
         let keep =
           (not (Http.wants_close req))
           && conn.c_served < t.config.keepalive_requests
           && not t.stopping
         in
         (* A degraded health check must not itself trigger a flight
            dump — probes poll it every few seconds. *)
         let sent =
           respond_status ~keep_alive:keep ~trace
             ~flight_on_5xx:(route <> "healthz") out.w conn.c_fd reply
         in
         if not sent then Obs.count "serve.write_failures";
         finish t ~t0 ~queue_s ~ctx ~route ~meth:req.Http.meth
           ~path:req.Http.path ~status
           ~slo:(not (observability_route route));
         if keep && sent then `Keep else `Close))

(* --- threads --------------------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let wake_watcher t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* The watcher multiplexes parked connections with [Unix.select], which
   fails with EINVAL once any fd reaches FD_SETSIZE (1024).  Cap the
   parked population well below that so parking itself can never push
   the watcher over the edge; past the cap the oldest parked connection
   is closed (it was idle anyway — the client reconnects). *)
let max_parked = 512

let park_idle t conn =
  let victim =
    Mutex.lock t.idle_lock [@sider.lock "idle_lock"];
    let v =
      if List.length t.idle < max_parked then None
      else (
        let oldest =
          List.fold_left
            (fun acc ((_, since) as p) ->
              match acc with
              | Some (_, s) when s <= since -> acc
              | _ -> Some p)
            None t.idle
        in
        match oldest with
        | None -> None
        | Some (c, _) ->
          t.idle <- List.filter (fun (c', _) -> c' != c) t.idle;
          Some c)
    in
    t.idle <- (conn, now_s ()) :: t.idle;
    Mutex.unlock t.idle_lock;
    v
  in
  (match victim with
   | Some c ->
     close_quietly c.c_fd;
     Obs.count "serve.parked_overflow_closed"
   | None -> ());
  wake_watcher t

let enqueue_conn t conn =
  conn.c_enqueued_at <- now_s ();
  Mutex.lock t.q_lock [@sider.lock "q_lock"];
  Queue.push conn t.queue;
  Condition.signal t.q_nonempty;
  Mutex.unlock t.q_lock

let rec worker_loop t out =
  (* Fun.protect: Queue.pop raises Empty if the queue is drained behind
     our back — impossible today (pops happen under q_lock) but a bare
     unlock would turn that logic bug into a stuck service. *)
  Mutex.lock t.q_lock [@sider.lock "q_lock"];
  let item =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.q_lock)
      (fun () ->
        while Queue.is_empty t.queue && not t.stopping do
          Condition.wait t.q_nonempty t.q_lock
        done;
        if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
  in
  match item with
  | None -> () (* stopping and fully drained *)
  | Some conn ->
    (* Keep-alive inner loop: requests already buffered (pipelined) are
       served back-to-back on this worker; once the connection has no
       bytes waiting it is parked with the watcher so the worker frees
       up for other connections instead of blocking in [read]. *)
    let rec serve () =
      let next = serve_one t out conn in
      release out;
      match next with
      | `Close -> close_quietly conn.c_fd
      | `Keep ->
        if Http.reader_has_pending conn.c_reader then (
          conn.c_enqueued_at <- now_s ();
          serve ())
        else park_idle t conn
    in
    (try serve () with
     | Fault.Crash_injected ->
       (* Simulated process death between journal and ack: the client
          gets a closed connection, never a response. *)
       Obs.count "serve.injected_crashes";
       close_quietly conn.c_fd
     | e ->
       (try
          respond_text ~trace:(Http.fresh_trace_id ()) out.w conn.c_fd 500
            (err_body "internal-error" (Printexc.to_string e))
        with _ -> ());
       release out;
       close_quietly conn.c_fd);
    worker_loop t out

(* The idle watcher multiplexes every parked keep-alive connection over
   one [select]: a readable connection re-enters the worker queue at
   once (the self-pipe keeps latency at wake-up, not poll-interval,
   scale), one silent past [idle_timeout_s] is closed.  Workers
   therefore only ever block reading a request that has started
   arriving. *)
let rec watcher_loop t =
  let parked =
    Mutex.lock t.idle_lock [@sider.lock "idle_lock"];
    let l = t.idle in
    Mutex.unlock t.idle_lock;
    l
  in
  let timeout =
    match parked with
    | [] -> -1.0 (* nothing parked: sleep until woken *)
    | _ ->
      let next =
        List.fold_left
          (fun acc (_, since) ->
            Float.min acc (since +. t.config.idle_timeout_s))
          Float.infinity parked
      in
      Float.max 0.01 (next -. now_s ())
  in
  let fds = t.wake_r :: List.map (fun (c, _) -> c.c_fd) parked in
  let readable, overflowed =
    match Unix.select fds [] [] timeout with
    | r, _, _ -> (r, false)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) ->
      ([], false)
    | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
      (* A parked fd's numeric value crossed FD_SETSIZE (possible even
         under [max_parked] when the process holds many other
         descriptors): [select] cannot watch this set at all.  Recycle
         it — close every parked connection rather than silently
         stranding them behind a dead watcher. *)
      ([], true)
  in
  if overflowed then (
    Mutex.lock t.idle_lock [@sider.lock "idle_lock"];
    let stranded = t.idle in
    t.idle <- [];
    Mutex.unlock t.idle_lock;
    List.iter (fun (c, _) -> close_quietly c.c_fd) stranded;
    (match List.length stranded with
     | 0 -> ()
     | n -> Obs.count ~by:n "serve.parked_overflow_closed"));
  if List.mem t.wake_r readable then (
    let buf = Bytes.create 64 in
    try ignore (Unix.read t.wake_r buf 0 64) with Unix.Unix_error _ -> ());
  if t.stopping then (
    Mutex.lock t.idle_lock [@sider.lock "idle_lock"];
    let rest = t.idle in
    t.idle <- [];
    Mutex.unlock t.idle_lock;
    List.iter (fun (c, _) -> close_quietly c.c_fd) rest)
  else (
    let now = now_s () in
    let ready, expired =
      Mutex.lock t.idle_lock [@sider.lock "idle_lock"];
      let ready, keep =
        List.partition (fun (c, _) -> List.mem c.c_fd readable) t.idle
      in
      let expired, keep =
        List.partition
          (fun (_, since) -> now -. since >= t.config.idle_timeout_s)
          keep
      in
      t.idle <- keep;
      Mutex.unlock t.idle_lock;
      (ready, expired)
    in
    List.iter (fun (c, _) -> enqueue_conn t c) ready;
    List.iter (fun (c, _) -> close_quietly c.c_fd) expired;
    (match List.length expired with
     | 0 -> ()
     | n -> Obs.count ~by:n "serve.idle_closed");
    watcher_loop t)

(* Evict sessions idle past the TTL.  Sweep cadence is a fraction of
   the TTL (bounded to stay responsive to [stop]). *)
let rec janitor_loop t =
  if t.stopping then ()
  else (
    let ttl = t.config.session_ttl_s in
    Thread.delay (Float.max 0.02 (Float.min 0.5 (ttl /. 4.0)));
    if not t.stopping then ignore (Registry.evict_idle t.registry ~ttl_s:ttl);
    janitor_loop t)

(* [w]: the accept thread's own response buffer, for its 429s. *)
let rec accept_loop t w =
  match Unix.accept t.sock with
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
  | exception Unix.Unix_error _ -> if t.stopping then () else accept_loop t w
  | fd, _ ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.read_timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.read_timeout_s;
    let enqueued_at = now_s () in
    let conn =
      { c_fd = fd; c_reader = Http.reader fd; c_served = 0;
        c_enqueued_at = enqueued_at }
    in
    let accepted =
      Mutex.lock t.q_lock [@sider.lock "q_lock"];
      let ok =
        (not t.stopping) && Queue.length t.queue < t.config.queue_capacity
      in
      if ok then (
        Queue.push conn t.queue;
        Condition.signal t.q_nonempty);
      Mutex.unlock t.q_lock;
      ok
    in
    if not accepted then (
      Obs.count "serve.rejected_queue_full";
      respond_text ~trace:(Http.fresh_trace_id ()) w fd 429
        (err_body "overloaded" "request queue full");
      close_quietly fd);
    if t.stopping then () else accept_loop t w

let start ?(config = default_config) () =
  (* A peer that resets its connection makes the next write to it raise
     SIGPIPE, whose default action ends the process and every session
     in it; ignored, the write fails with EPIPE instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let registry =
    Registry.create ?data_dir:config.data_dir
      ~max_sessions:config.max_sessions
      ~compact_events:config.compact_events ()
  in
  let recovery_failures = Registry.recover registry in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try
     Unix.bind sock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.addr, config.port));
     Unix.listen sock 128
   with e -> close_quietly sock; raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let wake_r, wake_w = Unix.pipe () in
  let t =
    { config;
      registry;
      recovery_failures;
      slo =
        Slo.create ~latency_target_s:config.slo_latency_target_s
          ~objective:config.slo_objective ();
      access_m = Mutex.create ();
      sock;
      bound_port;
      queue = Queue.create ();
      q_lock = Mutex.create ();
      q_nonempty = Condition.create ();
      idle_lock = Mutex.create ();
      idle = [];
      wake_r;
      wake_w;
      stopping = false;
      accept_thread = None;
      worker_threads = [];
      watcher_thread = None;
      janitor_thread = None }
  in
  t.worker_threads <-
    List.init config.workers (fun _ -> Thread.create (worker_loop t) (out ()));
  t.watcher_thread <- Some (Thread.create watcher_loop t);
  if config.session_ttl_s > 0.0 then
    t.janitor_thread <- Some (Thread.create janitor_loop t);
  t.accept_thread <-
    Some (Thread.create (accept_loop t) (Json.writer initial_bytes));
  t

let stop t =
  if not t.stopping then (
    Mutex.lock t.q_lock [@sider.lock "q_lock"];
    t.stopping <- true;
    Condition.broadcast t.q_nonempty;
    Mutex.unlock t.q_lock;
    (* [shutdown] (not just [close]) wakes the thread blocked in
       [accept]: on Linux a close alone leaves it blocked forever. *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    close_quietly t.sock;
    t.accept_thread <- None;
    (* Workers drain whatever was already queued, then exit: accepted
       requests are finished, new connections are refused and every
       response carries [Connection: close]. *)
    List.iter Thread.join t.worker_threads;
    t.worker_threads <- [];
    (* The watcher wakes, closes every parked connection and exits. *)
    wake_watcher t;
    (match t.watcher_thread with Some th -> Thread.join th | None -> ());
    t.watcher_thread <- None;
    (* A worker may have parked a connection after the watcher's final
       sweep, and the watcher may have re-enqueued one after the
       workers drained — close both leftovers. *)
    List.iter (fun (c, _) -> close_quietly c.c_fd) t.idle;
    t.idle <- [];
    Queue.iter (fun c -> close_quietly c.c_fd) t.queue;
    Queue.clear t.queue;
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    (match t.janitor_thread with Some th -> Thread.join th | None -> ());
    t.janitor_thread <- None;
    (match t.config.access_log with
     | Some oc -> (try flush oc with Sys_error _ -> ())
     | None -> ());
    Registry.close t.registry)

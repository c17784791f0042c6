(** The multi-tenant session service: the paper's interactive loop as a
    fault-tolerant JSON-over-HTTP API.

    {2 Endpoints}

    - [POST /sessions] — body [{"dataset": {...}, "seed"?, "standardize"?,
      "jitter"?, "method"?}] (dataset in the {!Sider_core.Persist}
      snapshot schema; a non-finite [jitter] is a 400).  201 with a
      session summary.
    - [GET /sessions] — id list; [GET /sessions/:id] — summary.
    - [POST /sessions/:id/constraints] — body [{"type": "cluster" |
      "two_d" | "margin" | "one_cluster", "rows"?, "tag"?}].  Rows are
      validated against the dataset before anything is journaled.
    - [POST /sessions/:id/update] — body [{"time_cutoff"?,
      "max_sweeps"?}]; re-solves the background distribution and
      returns the solver report.  Its [warm_sweeps] (always 0) and
      [cold_sweeps] (equal to [sweeps]) keys are kept for existing
      clients.  The cutoff is clamped to the request's remaining
      deadline; a cutoff that is not a finite number (say [-1e999]) is
      a 400.  A report field with no finite value (the step sizes of an
      update that ran no sweep) is [null].
    - [POST /sessions/:id/view] — body [{"method": "pca" | "ica"}];
      recomputes the most-informative projection.
    - [GET /sessions/:id/projection] — current view: axis labels,
      scores, every point with its paired background sample
      ({!write_projection}).
    - [DELETE /sessions/:id] — 204; the journal file is deleted too.
    - [GET /metrics] — as in {!Serve}, plus the labeled service
      families ([serve.request_s{route,status}], [serve.stage_s{stage}]
      for queue/journal/solve/project, [serve.tenant_requests{tenant}]
      with {!Sider_obs.Obs}'s top-K + ["other"] cardinality bound) and
      the [serve.slo_burn_5m] / [serve.slo_burn_1h] gauges.
    - [GET /healthz] — ["ok\n"], or [503 {"error":"slo-degraded"}] when
      the SLO is burning in both windows (see {!Slo}).
    - [GET /slo] — the full {!Slo.snapshot} as JSON.

    {2 Tracing}

    Every response carries an [X-Sider-Trace-Id] header — the sanitized
    client-supplied value when the request sent one, a fresh server id
    otherwise (error responses included, down to a 429 shed by the
    poller).  The id is attached to the [serve.request] span,
    the journal/solve spans beneath it, the access-log line and any
    flight-recorder dump the request triggers, so one grep connects all
    four views of a slow or failed request.  With [access_log] set, one
    JSON line per completed response records trace id, tenant, route,
    status, duration, queue wait, journal fsync time and the update's
    solver sweeps.

    {2 Failure model}

    - Full request queue → immediate [429] + [Retry-After] from the
      poller as it accepts (load shedding, never unbounded queueing).
    - Session capacity reached → [429].
    - Request older than the deadline (queue wait included) → [503].
    - Stalled client → [408] after [read_timeout_s], its body's reads
      included; oversized request → [413]; a [Transfer-Encoding] field
      → [411] and a close, before anything is routed; malformed HTTP or
      JSON, bad rows, unknown types → [400] with a structured body
      [{"error", "detail"}].
    - Structured engine errors map by variant: [Degenerate_data] → 400,
      [Io_failure] → 503, numerical failures ([Singular_covariance],
      [Solver_divergence], [Non_convergence], [Nan_detected]) → 422.
      A failed update rolls the session back (see
      {!Sider_core.Session.update_background}) — the tenant survives.
    - Unexpected exceptions → [500]; the worker thread survives.
    - A response whose write fails (the client reset the connection or
      stopped reading past [read_timeout_s]) closes the connection;
      requests the client pipelined behind it are not served.  {!start}
      sets SIGPIPE to be ignored for the whole process, so a write to a
      reset connection fails with [EPIPE] instead of ending the process
      and every session in it.

    {2 Connections}

    Each worker reads every request into one buffer of its own and
    decodes the body from there as its bytes arrive
    ({!Http.body_cursor}); a POST route reads its body before it
    changes anything, and what it leaves of the declared length is
    drained before the response (any other request's body before it is
    routed), so no string of a body is made.  A client that sent
    [Expect: 100-continue] is told to send its body once the head is
    accepted.  Each worker prints every response into one buffer of its
    own, kept for the worker's life (up to 1 MiB between responses), and
    frames it there ({!Http.respond}); the poller's 429s use a buffer of
    their own.  Parked connections hold none.

    Besides the workers the service runs one thread, the poller.  It
    owns every socket no worker is serving: one [select] over the
    listening socket, a self-pipe and the parked connections accepts
    new connections (queued, or shed with 429), hands readable parked
    ones back to the worker queue, closes parked ones idle past
    [idle_timeout_s] and, with [session_ttl_s > 0], sweeps the registry
    for idle sessions.  A worker hands a connection back to it without
    a lock.

    Connections are HTTP/1.1 keep-alive: a worker serves
    [Content-Length]-delimited requests in a loop, honouring a client's
    [Connection: close] and capping requests per connection at
    [keepalive_requests] (the final response says [Connection: close]);
    a quiet connection goes back to the poller.  Pipelined requests
    already buffered are served back-to-back; a parked connection
    re-enters the worker queue the moment bytes arrive, so workers never
    block waiting for a request that has not started.

    {2 Durability}

    With a [data_dir], every mutation is journaled {e before} it is
    applied and the append is [fsync]ed before the 2xx is written
    (write-ahead): an acknowledged event is always recovered by
    {!start}'s boot-time replay; [kill -9] loses at most the in-flight
    unacknowledged request.  A journal that outgrows [compact_events]
    lines is folded into a sibling snapshot right after the
    acknowledging append ({!Sider_core.Persist.journal_compact} —
    crash-safe at every step).  With [session_ttl_s > 0] the poller
    evicts sessions idle past the TTL (resident state dropped,
    journal kept) and the next request on the tenant rehydrates it
    transparently; at [max_sessions] resident capacity, creation evicts
    the least-recently-used idle tenant before answering 429.  The
    {!Sider_robust.Fault} service injections ([Svc_drop_request],
    [Svc_delay_request], [Svc_truncate_request],
    [Svc_crash_after_journal], [Journal_fail_append], [Compact_crash])
    exercise exactly these paths in tests. *)

open Sider_robust

type config = {
  addr : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 for ephemeral (read back with {!port}) *)
  data_dir : string option;  (** enables write-ahead journaling *)
  max_sessions : int;  (** resident-session cap (429 / evict-then-admit) *)
  queue_capacity : int;  (** accepted-but-unserved connections *)
  workers : int;  (** request worker threads *)
  read_timeout_s : float;  (** socket receive/send timeout (408) *)
  deadline_s : float;  (** per-request deadline incl. queue wait (503) *)
  max_body : int;  (** request body cap in bytes (413) *)
  keepalive_requests : int;
      (** max requests served per connection (default 1000) *)
  idle_timeout_s : float;
      (** parked keep-alive connections are closed after this (default 5) *)
  session_ttl_s : float;
      (** idle sessions evicted after this; 0 (default) disables *)
  compact_events : int;
      (** journal lines before compaction; 0 disables (default 1024) *)
  access_log : out_channel option;
      (** structured JSON access log, one line per response, flushed
          per line; the channel stays owned by the caller (default
          [None]) *)
}

val default_config : config

type t

val start : ?config:config -> unit -> t
(** Bind, recover journaled sessions from [data_dir], spawn the worker
    pool and the poller.  Sets SIGPIPE to be ignored in the whole
    process (see the failure model above).  Raises [Unix.Unix_error] if
    the bind fails, or if the listening socket or the poller's pipe
    gets a descriptor past what [select] can watch (FD_SETSIZE, 1024). *)

val port : t -> int

val registry : t -> Registry.t

val recovery_failures : t -> (string * Sider_error.t) list
(** Journals that failed boot-time replay (path, error); the service
    starts anyway with the healthy tenants. *)

val stop : t -> unit
(** Graceful drain: stop accepting, close every parked connection,
    finish every queued request, join all threads, close every journal.
    Idempotent. *)

type create = {
  dataset : Sider_data.Dataset.t;
  seed : int;
  standardize : bool;
  jitter : float;
  method_ : Sider_projection.View.method_;
}
(** The arguments of [POST /sessions]. *)

val read_create : Sider_data.Json.cursor -> create
(** Decode a [POST /sessions] body at the cursor without building its
    tree: the dataset's rows are read straight into one float array
    ({!Sider_core.Persist.read_dataset}).  The route runs it on the
    request's body as the bytes arrive ({!Http.body_cursor}), so no
    string of the body exists.  A body the route accepts gives the
    dataset {!Sider_core.Persist.dataset_of_json} gives for its
    [dataset] member, bit for bit.  A blank body (only the bytes
    [String.trim] drops) is a missing dataset.  A refused body raises
    what the route maps to its 400: [Json.Parse_error] for a syntax
    error anywhere in the body, which takes precedence over every other
    check, then the dataset's [Sider_error.Error], then the route's own
    refusals in field order. *)

val decode_create : string -> create [@@sider.allow "test-hook"]
(** {!read_create} over a string's cursor: the same decode, error for
    error. *)

(** {2 Projection bodies} *)

val write_projection : Sider_data.Json.writer -> Sider_core.Session.t -> unit
(** Print the body of [POST /sessions/:id/view] and [GET
    /sessions/:id/projection] into the writer: the current view's
    method, axis labels and scores, then every point with its index,
    coordinates, paired background sample and label (when the dataset
    has labels).  The numbers are read from
    {!Sider_core.Session.coordinates}, which the view computed once, so
    the text is byte for byte what [Json.to_string] prints for the tree
    of {!Sider_core.Session.scatter}'s fields, and a read projects
    nothing.  No tree, point array or string of the body is built: with
    a warm writer it allocates a few words and none per point (15 at
    n=1024). *)

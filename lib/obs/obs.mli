(** Observability: spans, counters, gauges, histograms, a flight
    recorder and pluggable sinks.

    Zero external dependencies (only [unix] for the clock and
    [threads.posix] for per-thread span stacks).  The layer is
    *off by default*: with neither a sink installed nor the flight
    recorder enabled, every entry point reduces to a single [ref] read,
    no clock is consulted and no allocation beyond argument evaluation
    happens, so instrumented code paths are numerically and behaviourally
    identical to uninstrumented ones (the determinism test in
    [test/test_obs.ml] asserts this for the solver).
    The [sider] CLI turns the flight recorder on for every subcommand,
    so in the CLI and the session service the layer is on: what it
    records is paid for on every request.  Per-iteration records of a
    computation (the solver's sweeps) are not telemetry: they go through
    the computation's own callback ([Solver.solve ~trace]).

    Spans form a per-thread stack: [with_span] pushes a frame,
    runs the body and emits a completed {!span} to the sink on exit
    (normal or exceptional).  Metrics accumulate in a global registry and
    are emitted as a {!metric} snapshot by {!flush}.

    The clock is wall-time ([Unix.gettimeofday]) mapped to nanoseconds
    since module load and clamped (atomically, across domains) to be
    non-decreasing, so span durations are never negative even across
    system clock steps.

    {2 Threads and domains}

    Every entry point is safe from any thread on any domain.  The
    metrics registry is protected by a mutex; the clock
    clamp and the flight recorder are lock-free.  Each thread keeps its
    own span stack, so the spans of requests that systhreads of one
    domain serve concurrently nest only under their own thread's open
    spans.  The sink's callbacks only ever run on the {e controller}
    domain (the one that called {!set_sink}): a span completed on any
    other domain goes to the flight recorder only.  The library itself
    runs on one domain; the guarantees hold for a program that spawns
    more. *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Attribute values attached to spans. *)

type span = {
  name : string;
  depth : int;          (** 0 for a root span. *)
  start_ns : int64;     (** Nanoseconds since the clock epoch. *)
  dur_ns : int64;       (** Non-negative duration. *)
  attrs : (string * value) list;  (** Insertion order. *)
}

type metric =
  | Counter of { name : string; total : int }
  | Gauge of { name : string; value : float }
  | Histogram of {
      name : string;
      count : int;      (** Every observation ever recorded. *)
      sum : float;      (** Running total, in insertion order. *)
      p50 : float;      (** Type-7 (linear interpolation) quantiles of the
                            newest 1024 observations. *)
      p95 : float;
      p99 : float;
      max : float;      (** Largest observation ever recorded. *)
    }
(** A histogram holds a fixed window of its newest 1024 samples plus
    running totals, so its memory stays bounded in a long-lived process.
    Up to 1024 observations, the quantiles cover every sample. *)

type sink = {
  on_span : span -> unit;       (** Called when a span completes. *)
  on_metrics : metric list -> unit;  (** Called by {!flush}. *)
}

(** {1 Built-in sinks} *)

val null_sink : sink
(** Swallows everything (instrumentation overhead without output; used to
    measure the cost of the layer itself, and by long-running services
    that only need the metrics registry live for [/metrics] scrapes). *)

val stderr_sink : unit -> sink
(** Pretty-printer to [stderr]: completed spans as an indented tree
    (children close before their parent, so the tree reads
    innermost-first), metrics as aligned tables.  Every line is
    flushed. *)

val json_sink : (string -> unit) -> sink
(** [json_sink emit] calls [emit] with one self-contained JSON object per
    span / metric (JSON-lines; no trailing newline).  The output parses
    with [Sider_data.Json.of_string]; non-finite floats are emitted as
    [null]. *)

type recording = {
  rec_sink : sink;
  spans : unit -> span list;      (** Completion order. *)
  metrics : unit -> metric list;  (** Snapshots from every {!flush}, concatenated. *)
}

val recording_sink : unit -> recording
(** In-memory sink for tests. *)

(** {1 Installing a sink} *)

val set_sink : sink option -> unit
(** [set_sink None] uninstalls the sink (with the flight recorder also
    off, this disables the layer — the default).  Clears every thread's
    span stack.  The calling domain becomes the controller: the only
    domain on which the sink's callbacks run. *)

val enabled : unit -> bool
(** True when a sink is installed {e or} the flight recorder is on —
    i.e. when instrumentation records anything at all. *)

val sink_installed : unit -> bool

val install_from_env : unit -> unit
(** Honour the [SIDER_TRACE] environment variable: [stderr] installs
    {!stderr_sink}, [null] installs {!null_sink}, anything else (or
    unset) is a no-op.  Called by the CLI and the test runner so `make
    verify` can replay the suite with a live sink. *)

(** {1 Spans} *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Runs the body inside a named span.  Disabled: exactly [f ()].  Safe
    from any thread or domain; off the controller domain the completed
    span goes to the flight recorder only. *)

val span_attr : string -> value -> unit
(** Attach an attribute to the calling thread's innermost open span
    (no-op when disabled or outside any span). *)

val current_depth : unit -> int [@@sider.allow "test-hook"]
(** Number of open spans on the calling thread (0 when disabled). *)

(** {1 Metrics} *)

val count : ?by:int -> ?labels:(string * string) list -> string -> unit
(** Increment a counter (default [by:1]); with [labels], the labeled
    series of that counter (below). *)

val counter_value : string -> int [@@sider.allow "test-hook"]
(** Current total of a counter (0 when absent — e.g. layer disabled). *)

val gauge : string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : ?labels:(string * string) list -> string -> float -> unit
(** Record one observation into a histogram (with [labels], its labeled
    series): it joins the window of the newest 1024 samples (overwriting
    the oldest once the window is full) and the running [count], [sum]
    and [max].

    Every write, {!count}'s too, takes the registry mutex and looks its
    series up by name; a labeled write first composes the series name
    (60–75 words).  That is fine once per sweep or request and too
    heavy per row: the [obs-hygiene] lint rule flags a write inside a
    loop. *)

(** {2 Labeled metrics}

    A labeled series is an ordinary registry instrument whose name
    carries a canonical label suffix: [base{k="v",...}] with keys
    sorted and values escaped exactly as the Prometheus exposition
    format escapes label values (backslash, double quote, newline).
    {!split_labeled} is the exact inverse of {!labeled_name}; the
    exposition layer uses the pair to render proper labeled families,
    and everything else (snapshots, sinks) works unchanged.

    Cardinality is bounded {e per family}: the first
    [max_label_sets] (default 32) distinct label sets observed for a
    base name each get their own series, and every later one collapses
    into an overflow series whose label values are all ["other"] — so
    a per-tenant counter under an unbounded tenant population holds the
    first-seen top-K tenants plus one [other] bucket. *)

val labeled_name : string -> (string * string) list -> string
  [@@sider.allow "test-hook"]
(** Canonical composed name ([labels = []] returns the base name
    unchanged). *)

val split_labeled : string -> string * (string * string) list
(** Inverse of {!labeled_name}: base name and decoded labels (a name
    without a label suffix yields an empty list). *)

val label_escape : string -> string
(** Prometheus label-value escaping: backslash, double quote and
    newline each get a backslash escape; every other byte passes
    through. *)

val json_escape : string -> string
(** JSON string-content escaping as used by the JSON sink and flight
    dumps (backslash, double quote, control characters).  Exposed for
    the service's structured access log. *)

val set_max_label_sets : int -> unit [@@sider.allow "test-hook"]
(** Per-family cardinality budget (clamped to at least 1). *)

val timed : ?attrs:(string * value) list -> hist:string -> string ->
  (unit -> 'a) -> 'a
(** [timed ~hist name f]: {!with_span} [name] around [f], additionally
    recording the span's own duration (seconds) into histogram [hist] —
    the two share a single pair of clock reads. *)

val metrics_snapshot : unit -> metric list
(** Current registry contents, sorted by name.  A histogram's
    [count]/[sum]/[max] cover every observation, its p50/p95/p99 the
    newest 1024. *)

val quantile_type7 : float array -> float -> float
(** [quantile_type7 values p]: the type-7 (linear interpolation) quantile
    of the (unsorted) sample, the statistic {!metrics_snapshot} reports
    as p50/p95/p99 over a histogram's window.  Edge cases: an empty
    sample yields [0.0] (never NaN); a single observation is its own
    quantile at every [p]. *)

val flush : unit -> unit
(** Emit {!metrics_snapshot} to the sink (the registry keeps
    accumulating). *)

val reset : unit -> unit
(** Clear the metrics registry and every thread's span stack (tests).
    The flight recorder is cleared separately by {!flight_reset}. *)

(** {1 Flight recorder}

    A fixed-size lock-free ring buffer of the last N completed spans and
    discrete events, cheap enough (one atomic fetch-and-add plus one slot
    store per record) to leave on in production.  The CLI enables it for
    every subcommand; dumps happen automatically when the session layer
    records a degradation or a failed update (incrementally — each
    automatic dump emits only the entries recorded since the previous
    one), and on demand via [sider doctor --flight-recorder]. *)

type flight_stats = {
  fr_enabled : bool;
  fr_capacity : int;
  fr_written : int;   (** Entries ever recorded. *)
  fr_dropped : int;   (** Entries overwritten by wraparound. *)
}

val set_flight_recorder : ?capacity:int -> bool -> unit
(** Enable/disable the recorder.  Changing [capacity] (default 256)
    clears the ring. *)

val flight_recorder_enabled : unit -> bool [@@sider.allow "test-hook"]

val flight_event : name:string -> detail:string -> unit
(** Record a discrete event (no-op unless the recorder is on). *)

val flight_stats : unit -> flight_stats

val flight_entries : unit -> string list [@@sider.allow "test-hook"]
(** Entries currently held in the ring, oldest first, one JSON line per
    entry (spans as in {!json_sink}; events as
    [{"type":"event","at_ns":...,"name":...,"detail":...}]). *)

val dump_flight_recorder : ?out:out_channel -> reason:string -> unit -> int
(** Write a one-line JSON header (with [reason] and the drop count)
    followed by {!flight_entries} to [out] (default [stderr]); returns
    the number of entries dumped. *)

val set_flight_auto_dump : out_channel option -> unit
(** Destination for automatic dumps ([None], the default, disables
    them). *)

val flight_auto_dump : ?trace:string -> reason:string -> unit -> unit
(** Incremental dump to the configured destination: only entries
    recorded since the last automatic dump.  Called by the session layer
    on degradations and failed updates, and by the service on 5xx
    responses.  [trace] (the request's trace id) is embedded in the
    dump's JSON header so `sider doctor --trace` can correlate the dump
    with the access-log line and span tree of the request that
    triggered it. *)

val flight_reset : unit -> unit
(** Clear the ring (tests). *)

(** {1 Clock} *)

val now_ns : unit -> int64
(** Non-decreasing nanosecond clock, safe from any domain (see module
    comment). *)

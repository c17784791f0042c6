(** Saving and replaying analysis sessions: atomic snapshots and a
    crash-safe write-ahead journal.

    A session snapshot records the dataset and the complete interaction
    log (the events of {!Session.history}).  Because every part of the
    engine is deterministic given the session seed — jitter, background
    samples, FastICA initialisation, the simulated analyst — replaying
    the log on load reproduces the exact state: same constraints, same
    background distribution, same current view.

    The format is self-contained JSON (see {!Sider_data.Json}); floats
    are serialized with full precision.  Documents carry a [format]
    tag, a [version] number and (since version 2) an FNV-1a 64-bit
    [checksum] of the rest of the document, verified on load.  Version 1
    files (no checksum) still load.  A document is printed once, from
    the session's matrix into one buffer with no tree built: the
    checksum is taken over the bytes either side of a gap after
    [version] and written into that gap.  Loading parses the document
    into a {!Sider_data.Json.t}, whose re-printed text the checksum is
    verified against, and decodes the dataset with {!dataset_of_json};
    the create route reads a dataset at a cursor ({!read_dataset}).

    {b Error discipline:} malformed input is reported as a structured
    {!Sider_robust.Sider_error.t} — [Degenerate_data] for bad content
    (parse errors, wrong format, checksum mismatch, unknown events),
    [Io_failure] for filesystem-level faults — never a raw [Failure] or
    [Json.Parse_error].

    {2 Write-ahead journal}

    The session service persists each tenant as an append-only journal:
    a header line (creation arguments + dataset, checksummed) followed
    by one JSON line per interaction event.  {!journal_append} writes
    the whole line — terminating newline included — in a single [write]
    and [fsync]s before returning, so the service only acknowledges a
    mutation that is durable.  {!journal_load} replays the file on
    boot; an {e unterminated} final line is the append a crash
    interrupted and is dropped (that request was never acknowledged),
    while an unparseable {e terminated} line is reported as corruption.
    Together with engine determinism this gives the crash-recovery
    invariant: after [kill -9] at any instant, restart restores every
    acknowledged event bit-identically and loses at most the single
    in-flight request.

    {2 Compaction}

    A journal grows one fsynced line per event forever;
    {!journal_compact} bounds that by atomically folding the history
    into a sibling v2 snapshot ({!snapshot_path}) plus a fresh journal
    whose header records how many events the snapshot stands for (its
    {!journal_base}).  Both files are replaced tmp → fsync → rename,
    snapshot first, so a crash at any instant leaves a store
    {!journal_reopen} recovers to the exact pre-crash acknowledged
    state: recovery loads the sibling snapshot when present and skips
    the leading journal lines the snapshot already covers. *)

open Sider_data
open Sider_robust

val dataset_to_json : Dataset.t -> Json.t
(** The dataset in the snapshot schema: [name], [columns], [labels]
    ([null] without labels), [rows], [cols] and [data], one list of
    numbers per row.  Journal headers and snapshots print these bytes
    straight from the matrix, without building the tree. *)

val dataset_of_json : Json.t -> Dataset.t
(** Raises [Sider_error.Error] on malformed input.  The first of a
    repeated key counts; [rows] and [cols] are not read. *)

val read_dataset : Json.cursor -> unit -> Dataset.t
(** [read_dataset c] reads the dataset value at the cursor, its data
    rows straight into one float array, and returns its validation.
    Calling that gives the dataset {!dataset_of_json} gives for the same
    value's tree, or raises the same error, since both share one
    validation.  A syntax error raises [Json.Parse_error] from the read;
    nothing is checked until the call, so a caller can read the rest of
    its document first and let a later syntax error take precedence. *)

val save : string -> Session.t -> unit
(** Write a session snapshot atomically: the document is written to
    [path ^ ".tmp"], [fsync]ed and renamed over [path], so a crash
    mid-save leaves either the previous snapshot or the new one intact,
    never a torn file.  Raises [Sider_error.Error] ([Io_failure]) on
    filesystem faults. *)

val load : string -> Session.t
(** Read and replay a snapshot.  Raises [Sider_error.Error]. *)

val load_result : string -> (Session.t, Sider_error.t) result
(** {!load} as a [result]. *)

(** {2 Journal} *)

type journal
(** An open append handle.  Single-writer: the session service guards
    each journal with its session's lock. *)

val journal_start : string -> Session.t -> journal
(** Create (or truncate) a journal at [path]: header line plus one line
    per event already in the session's history, fsynced.  Raises
    [Sider_error.Error] on IO failure. *)

val journal_append : journal -> Session.event -> unit
(** Append one event line and [fsync].  Returns only once the record is
    durable — callers acknowledge after this.  Raises
    [Sider_error.Error] ([Io_failure]) on failure (including the
    {!Sider_robust.Fault.Journal_fail_append} injection), in which case
    nothing was written. *)

val journal_close : journal -> unit
(** Flush and close.  Idempotent. *)

val journal_events : journal -> int
(** Intact event lines in the journal file behind this handle: appends
    since the last {!journal_compact} plus any recovered lines.  The
    compaction trigger's growth measure. *)

val journal_base : journal -> int [@@sider.allow "test-hook"]
(** Events the sibling snapshot holds on this journal's behalf; [0] for
    an uncompacted journal. *)

val snapshot_path : string -> string
(** The sibling snapshot for a journal path: [x.journal] ↦
    [x.snapshot], otherwise the path with [".snapshot"] appended. *)

val journal_compact : journal -> Session.t -> unit
(** Atomically fold the journal into {!snapshot_path} + a fresh journal
    whose header base marks the snapshot's events as already applied:
    snapshot tmp → fsync → rename, then journal tmp → fsync → rename.
    A crash (including an armed {!Sider_robust.Fault.Compact_crash})
    at any point leaves a store {!journal_reopen} restores exactly;
    after the snapshot rename the old journal's lines are all covered
    by the snapshot and recovery skips them.  On failure after the
    journal rename the handle is left closed (appends raise rather
    than write to an unlinked file).  [session] must be the state the
    journal reflects; callers hold the per-session lock.  Raises
    [Sider_error.Error] ([Io_failure]) on filesystem faults. *)

val journal_load : string -> (Session.t * int, Sider_error.t) result
(** Replay a journal: rebuild the base state (from the sibling snapshot
    when one exists, else the header), apply every intact event line
    not already covered by the snapshot; returns the session and the
    total number of events restored.  A truncated (unterminated) final
    line is dropped; any other defect — missing or corrupt header,
    checksum mismatch, unparseable interior line, unknown event, a
    base with no sibling snapshot — is a structured error.  Never
    raises. *)

val journal_reopen : string -> (Session.t * journal, Sider_error.t) result
(** {!journal_load}, then reopen the file for appending (truncating a
    dropped in-flight tail first so the next append starts on a clean
    record boundary).  The recovery path of the session service. *)

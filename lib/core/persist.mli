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
    files (no checksum) still load.  A document is streamed once, from
    the session's matrix to its file through one buffer small enough for
    the minor heap, with no tree built and nothing on the major heap: the
    checksum is accumulated over the bytes as they leave, skipping a gap
    after [version] that holds placeholder digits, and once the last
    byte is written its 16 digits are written back into the gap, before
    the file is fsynced.  A crash in between leaves a document whose
    checksum does not match, refused on load as a torn one is.  Loading
    parses the document
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
    repeated key counts; [rows] and [cols] are not read.  Equal labels
    share one string. *)

val read_dataset : Json.cursor -> unit -> Dataset.t
(** [read_dataset c] reads the dataset value at the cursor, its cells
    into blocks small enough for the minor heap, and returns its
    validation, which copies them into one matrix of exactly n·d cells
    (the [rows] and [cols] fields are not read, so they size nothing)
    and shares one string among equal labels.
    Calling that gives the dataset {!dataset_of_json} gives for the same
    value's tree, or raises the same error, since both share one
    validation.  A syntax error raises [Json.Parse_error] from the read;
    nothing is checked until the call, so a caller can read the rest of
    its document first and let a later syntax error take precedence. *)

val save : string -> Session.t -> unit
(** Write a session snapshot atomically: the document is written to
    [path ^ ".tmp"], [fsync]ed and renamed over [path], so a crash
    mid-save leaves either the previous snapshot or the new one intact,
    never a torn file.  The session's dataset is read once, first
    ({!Session.dataset}: for a journaled session, back from its journal's
    header).  Raises [Sider_error.Error]: [Io_failure] on filesystem
    faults, and what the read-back raises when the header no longer
    reads back. *)

val load : string -> Session.t
(** Read and replay a snapshot.  Raises [Sider_error.Error]. *)

val load_result : string -> (Session.t, Sider_error.t) result
  [@@sider.allow "test-hook"]
(** {!load} as a [result]. *)

(** {2 Journal} *)

type journal
(** An open append handle.  Single-writer: the session service guards
    each journal with its session's lock. *)

val journal_start : string -> Session.t -> journal
(** Create (or truncate) a journal at [path]: the header line, streamed
    and its checksum written back, then one line per event already in
    the session's history, each fsynced.  The session's dataset is read
    before the file is opened.  Once all of it is durable the session
    releases its dataset ({!Session.release_dataset}): from then on
    {!Session.dataset} reads it back from the header of the journal at
    [path], parsed and checked as {!journal_load} checks it, and raises
    [Sider_error.Error] if that header no longer reads back.  Raises
    [Sider_error.Error] on IO failure, leaving no descriptor open and
    the dataset kept.  An armed {!Sider_robust.Fault.Checksum_crash}
    raises {!Sider_robust.Fault.Crash_injected} between the header's
    last byte and its checksum. *)

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
    journal reflects; callers hold the per-session lock.  The session's
    dataset is read once, before any file is opened, and both documents
    print from it; when that read fails (a released session whose
    header no longer reads back) nothing is written and the handle is
    left closed, so the next append fails rather than extend a journal
    recovery would refuse.  Raises [Sider_error.Error]: [Io_failure] on
    filesystem faults, and what the read-back raises. *)

val journal_load : string -> (Session.t * int, Sider_error.t) result
  [@@sider.allow "test-hook"]
(** Replay a journal: rebuild the base state (from the sibling snapshot
    when one exists, else the header), apply every intact event line
    not already covered by the snapshot; returns the session and the
    total number of events restored.  A truncated (unterminated) final
    line is dropped; any other defect — missing or corrupt header,
    checksum mismatch, unparseable interior line, unknown event, a
    base with no sibling snapshot — is a structured error.  Never
    raises.  The session keeps its dataset: nothing holds the file's
    header for it. *)

val journal_reopen : string -> (Session.t * journal, Sider_error.t) result
(** {!journal_load}, then reopen the file for appending (truncating a
    dropped in-flight tail first so the next append starts on a clean
    record boundary), and release the session's dataset as
    {!journal_start} does: its header holds it.  The recovery path of
    the session service. *)

(** {2 Inspection} *)

type recovered = {
  session : Session.t;
  version : int;  (** The format version. *)
  restored : int;  (** Events restored, a sibling snapshot's included. *)
  dropped : int;  (** Bytes after the last intact record: a torn append. *)
  sibling : (string * int) option;  (** A sibling snapshot, its length. *)
}

type store = {
  kind : [ `Journal | `Snapshot ];  (** By the first line's [format]. *)
  bytes : int;  (** The file's length. *)
  recovery : (recovered, Sider_error.t) result;
}

val inspect : string -> (store, Sider_error.t) result
(** The store read once and judged by the scan {!journal_load} (a
    journal) or {!load_result} (a snapshot) runs: [recovery] is [Ok]
    exactly when that returns [Ok].  [sider doctor --snapshot] renders
    this and no other judgement.  [Error] when the file cannot be
    opened.  Never raises. *)

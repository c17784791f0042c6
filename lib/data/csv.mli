(** Minimal CSV reader/writer for numeric datasets.

    Supports comma-separated, quoted fields and an optional label
    column — enough to round-trip every dataset this repository produces
    and to load user data through the CLI.

    Degenerate inputs are rejected with structured
    {!Sider_robust.Sider_error.t} errors ([Degenerate_data]) rather than
    crashing downstream: empty input, duplicate header names, and
    missing/non-numeric cells (reported with line number and column name)
    all raise [Sider_robust.Sider_error.Error].  Structural problems that
    indicate a caller bug (unknown label column, ragged rows) still raise
    [Failure]. *)

val read_file : ?label_column:string -> string -> Dataset.t
(** [read_file path] loads a CSV with a header row.  All columns must be
    numeric except the optional label column named by [label_column].
    Empty lines are skipped and a CR before a line's LF is dropped.
    Double-quoted fields may hold commas and escaped quotes ([""]). *)

val write_file : string -> Dataset.t -> unit
(** Writes header + rows; labels (if any) become a final [class] column. *)

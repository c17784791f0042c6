(** Prometheus text exposition (format version 0.0.4) of the
    {!Sider_obs.Obs} metrics registry: the renderer behind {!Service}'s
    [GET /metrics], and the sample-line parser `sider top` scrapes
    with.

    {2 Exposition mapping}

    Instrument names are mangled to Prometheus conventions: every
    character outside [[A-Za-z0-9_]] (in practice the [.] separators)
    becomes [_], and everything is prefixed with [sider_].

    - [Counter {name; total}] → counter [sider_<name>_total].
    - [Gauge {name; value}] → gauge [sider_<name>].
    - [Histogram {name; count; sum; p50; p95; p99; max}] → summary
      [sider_<name>] with [quantile="0.5"], [quantile="0.95"] and
      [quantile="0.99"] sample lines plus [sider_<name>_sum] /
      [sider_<name>_count], and a companion gauge [sider_<name>_max]
      (the exposition format has no native max for summaries). *)

val exposition : Sider_obs.Obs.metric list -> string
(** Pure rendering of a metrics snapshot as Prometheus text exposition
    format 0.0.4, one [# TYPE] comment per family, families in
    first-appearance order with all their series grouped.  Instruments
    whose names carry an {!Sider_obs.Obs.labeled_name} suffix render as
    labeled series of one family: label keys sanitized to the
    exposition charset, values escaped per the format.  Ends with a
    newline; empty string for an empty snapshot. *)

val parse_sample :
  string -> (string * (string * string) list * float) option
(** Inverse of one [exposition] sample line:
    [(mangled_name, labels, value)] with label values unescaped.
    Comments, blank lines and malformed input yield [None].  Used by
    `sider top` and the scrape tests. *)

(** Analyst personas for the load generator.

    A persona is a deterministic policy for driving one tenant session
    through the API's interaction loop — which constraints to add,
    which update budgets to request, which views to fetch — modelled on
    the analyst behaviours the paper's use cases perform by hand:

    - [Basic]: one cluster constraint over half the rows, one update,
      one projection fetch (the original `sider load` workload).
    - [Outlier_hunter]: fetches the view, marks the points farthest
      from the view centroid as a 2-D constraint, re-solves and
      switches to ICA.
    - [Cluster_splitter]: fetches the view and reproduces
      {!Sider_core.Auto_explore.mark_clusters} client-side — k-means
      over the 2-D coordinates (k by silhouette), each sizeable
      cluster marked as a cluster constraint.
    - [Adversarial]: pathological row sets
      ({!Sider_robust.Fault.adversarial_rowsets}), margin + 1-cluster
      spam and a starved solver cutoff.
    - [Mixed]: one of the above, chosen by the per-analyst Rng.

    Transport is abstracted behind {!api}: the persona decides {e what}
    to send, the caller (the CLI's load loop) owns the keep-alive
    client, retry policy and latency measurement. *)

open Sider_rand

type kind = Basic | Outlier_hunter | Cluster_splitter | Adversarial | Mixed

val all : (string * kind) list
(** Name-to-kind table (the CLI's [--persona] vocabulary). *)

val to_string : kind -> string

type api = { call : ?body:string -> meth:string -> string -> (int * string) option }
(** One request, retries included; [None] when the caller's retry
    budget was exhausted, [Some (status, body)] otherwise. *)

type outcome = { steps_ok : int; steps_failed : int }
(** Logical steps (not HTTP requests — retries are invisible here)
    that returned the expected status vs. not. *)

val drive : rng:Rng.t -> rows:int -> kind -> api -> id:string -> outcome
(** Drive one already-created session [id] (dataset of [rows] rows)
    through the persona's interaction mix.  Deterministic from [rng];
    [Mixed] consumes one draw to pick the concrete persona. *)

(** Pairplots (scatter-plot matrices) as SVG — Figs. 3 and 6 of the paper,
    and the lower-right panel of the SIDER UI (attributes most different
    for the current selection). *)

open Sider_linalg

val render : ?max_points:int -> ?columns:string array ->
  ?colors:string array -> Mat.t -> string
(** [render m] draws the full scatter matrix of the columns of [m] in
    150-px cells (diagonal cells show the column name and the column's
    histogram).  [colors] gives a per-row
    CSS color (e.g. by class); [max_points] (default 500) subsamples rows
    deterministically for legibility, exactly as the paper's Fig. 3 plots
    a 250-point sample. *)

val class_colors : string array -> string array
(** Map class labels to a stable categorical palette (for coloring
    pairplots by ground truth, as in Fig. 3). *)

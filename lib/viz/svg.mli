(** Self-contained SVG scatter plots reproducing the look of the paper's
    figures: data as filled circles, background sample as gray circles
    with gray displacement lines to the paired data points, selections in
    red, confidence ellipses in blue (solid = selection, dashed =
    background). *)

val session_figure : ?selection:int array -> ?ellipses:bool ->
  Sider_core.Session.t -> string
(** The full SIDER main-scatter figure for the session's current view, a
    complete 640×480 SVG document (axes, ticks, axis labels, layers). *)

val write_file : string -> string -> unit
(** [write_file path svg] (creates parent directory if missing). *)

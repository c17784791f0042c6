(** Terminal scatter plots.

    The SIDER prototype renders in a browser; in this reproduction the
    interactive surface is the terminal, so the same scatter (data in
    black glyphs, background sample in gray dots, selection highlighted)
    is drawn with characters. *)

type series = {
  points : (float * float) array;
  glyph : char;
  name : string;
}

val render : ?width:int -> ?height:int -> ?title:string ->
  ?xlabel:string -> ?ylabel:string -> series list -> string
(** Render the series into a framed character canvas (default 72×24 plot
    area).  Later series overdraw earlier ones; axis ranges cover all
    series.  Returns the complete multi-line string. *)

val render_session : ?width:int -> ?height:int -> ?selection:int array ->
  Sider_core.Session.t -> string
(** The standard SIDER scatter: background sample as ['.'], data as ['o'],
    selection (if any) as ['#'], with the paper-style axis labels. *)

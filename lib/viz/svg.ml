open Sider_core
type style = {
  fill : string;
  stroke : string;
  radius : float;
  opacity : float;
}

let data_style =
  { fill = "#000000"; stroke = "none"; radius = 2.5; opacity = 0.85 }

let background_style =
  { fill = "none"; stroke = "#9b9b9b"; radius = 2.5; opacity = 0.7 }

let selection_style =
  { fill = "#d62728"; stroke = "none"; radius = 3.0; opacity = 0.9 }

type layer =
  | Points of style * (float * float) array
  | Segments of string * ((float * float) * (float * float)) array
  | Ellipse_outline of string * bool * Sider_stats.Ellipse.t

let layer_points = function
  | Points (_, pts) -> Array.to_list pts
  | Segments (_, segs) ->
    Array.to_list segs |> List.concat_map (fun (a, b) -> [ a; b ])
  | Ellipse_outline (_, _, e) ->
    Array.to_list (Sider_stats.Ellipse.polyline e)

let width = 640

let height = 480

let render ~xlabel ~ylabel layers =
  let all = List.concat_map layer_points layers in
  let finite =
    List.filter (fun (x, y) -> Float.is_finite x && Float.is_finite y) all
  in
  let xs = List.map fst finite and ys = List.map snd finite in
  let bound f init l = List.fold_left f init l in
  let x0 = bound Float.min infinity xs and x1 = bound Float.max neg_infinity xs in
  let y0 = bound Float.min infinity ys and y1 = bound Float.max neg_infinity ys in
  let fix lo hi =
    if lo > hi then (-1.0, 1.0)
    else if lo = hi then (lo -. 1.0, hi +. 1.0)
    else begin
      let m = 0.06 *. (hi -. lo) in
      (lo -. m, hi +. m)
    end
  in
  let x0, x1 = fix x0 x1 and y0, y1 = fix y0 y1 in
  let ml = 55.0 and mr = 15.0 and mt = 30.0 and mb = 45.0 in
  let pw = float_of_int width -. ml -. mr in
  let ph = float_of_int height -. mt -. mb in
  let sx x = ml +. ((x -. x0) /. (x1 -. x0) *. pw) in
  let sy y = mt +. ph -. ((y -. y0) /. (y1 -. y0) *. ph) in
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
      viewBox=\"0 0 %d %d\">\n" width height width height;
  pf "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" width height;
  (* Frame. *)
  pf "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
      fill=\"none\" stroke=\"#444\" stroke-width=\"1\"/>\n" ml mt pw ph;
  (* Ticks: 5 per axis. *)
  for i = 0 to 4 do
    let fx = x0 +. ((x1 -. x0) *. float_of_int i /. 4.0) in
    let fy = y0 +. ((y1 -. y0) *. float_of_int i /. 4.0) in
    pf "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
        stroke=\"#444\"/>\n" (sx fx) (mt +. ph) (sx fx) (mt +. ph +. 4.0);
    pf "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"middle\" \
        font-family=\"sans-serif\">%.3g</text>\n"
      (sx fx) (mt +. ph +. 16.0) fx;
    pf "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
        stroke=\"#444\"/>\n" (ml -. 4.0) (sy fy) ml (sy fy);
    pf "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"end\" \
        font-family=\"sans-serif\">%.3g</text>\n"
      (ml -. 7.0) (sy fy +. 3.0) fy
  done;
  pf "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"middle\" \
      font-family=\"sans-serif\">%s</text>\n"
    (ml +. (pw /. 2.0)) (mt +. ph +. 34.0) xlabel;
  pf "<text x=\"14\" y=\"%.1f\" font-size=\"10\" text-anchor=\"middle\" \
      font-family=\"sans-serif\" transform=\"rotate(-90 14 %.1f)\">%s\
      </text>\n"
    (mt +. (ph /. 2.0)) (mt +. (ph /. 2.0)) ylabel;
  let draw = function
    | Segments (color, segs) ->
      Array.iter
        (fun ((ax, ay), (bx, by)) ->
          pf "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" \
              stroke=\"%s\" stroke-width=\"0.6\" opacity=\"0.5\"/>\n"
            (sx ax) (sy ay) (sx bx) (sy by) color)
        segs
    | Points (st, pts) ->
      Array.iter
        (fun (x, y) ->
          pf "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"%.1f\" fill=\"%s\" \
              stroke=\"%s\" opacity=\"%.2f\"/>\n"
            (sx x) (sy y) st.radius st.fill st.stroke st.opacity)
        pts
    | Ellipse_outline (color, dashed, e) ->
      let pts = Sider_stats.Ellipse.polyline e in
      let path =
        pts
        |> Array.to_list
        |> List.mapi (fun i (x, y) ->
            Printf.sprintf "%s%.2f %.2f" (if i = 0 then "M" else "L")
              (sx x) (sy y))
        |> String.concat " "
      in
      pf "<path d=\"%s Z\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"%s/>\n"
        path color
        (if dashed then " stroke-dasharray=\"5,4\"" else "")
  in
  List.iter draw layers;
  pf "</svg>\n";
  Buffer.contents buf

let session_figure ?selection ?(ellipses = true) session =
  let pts = Session.scatter session in
  let data = Array.map (fun p -> (p.Session.x, p.Session.y)) pts in
  let bg = Session.background_points session in
  let links =
    Array.mapi (fun i p -> ((p.Session.x, p.Session.y), bg.(i))) pts
  in
  let base =
    [ Segments ("#bbbbbb", links);
      Points (background_style, bg);
      Points (data_style, data) ]
  in
  let layers =
    match selection with
    | None | Some [||] -> base
    | Some sel ->
      let chosen =
        Array.map (fun i -> (pts.(i).Session.x, pts.(i).Session.y)) sel
      in
      let sel_layers = [ Points (selection_style, chosen) ] in
      let ell_layers =
        if ellipses && Array.length sel >= 3 then begin
          let e_sel, e_bg = Session.confidence_ellipses session sel in
          [ Ellipse_outline ("#1f77b4", false, e_sel);
            Ellipse_outline ("#1f77b4", true, e_bg) ]
        end
        else []
      in
      base @ sel_layers @ ell_layers
  in
  let a1, a2 = Session.axis_labels ~top:5 session in
  render ~xlabel:a1 ~ylabel:a2 layers

let write_file path svg =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc svg)

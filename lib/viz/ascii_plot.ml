open Sider_core
type series = {
  points : (float * float) array;
  glyph : char;
  name : string;
}

let ranges series =
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  List.iter
    (fun s ->
      Array.iter
        (fun (x, y) ->
          if Float.is_finite x && Float.is_finite y then begin
            xmin := Float.min !xmin x;
            xmax := Float.max !xmax x;
            ymin := Float.min !ymin y;
            ymax := Float.max !ymax y
          end)
        s.points)
    series;
  let pad lo hi =
    if !lo > !hi then (-1.0, 1.0)
    else if !lo = !hi then (!lo -. 1.0, !hi +. 1.0)
    else begin
      let margin = 0.05 *. (!hi -. !lo) in
      (!lo -. margin, !hi +. margin)
    end
  in
  let x0, x1 = pad xmin xmax in
  let y0, y1 = pad ymin ymax in
  (x0, x1, y0, y1)

let render ?(width = 72) ?(height = 24) ?title ?xlabel ?ylabel series =
  let x0, x1, y0, y1 = ranges series in
  let canvas = Array.make_matrix height width ' ' in
  List.iter
    (fun s ->
      Array.iter
        (fun (x, y) ->
          if Float.is_finite x && Float.is_finite y then begin
            let cx =
              int_of_float ((x -. x0) /. (x1 -. x0) *. float_of_int (width - 1))
            in
            let cy =
              int_of_float ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1))
            in
            if cx >= 0 && cx < width && cy >= 0 && cy < height then
              canvas.(height - 1 - cy).(cx) <- s.glyph
          end)
        s.points)
    series;
  let buf = Buffer.create ((width + 8) * (height + 6)) in
  (match title with
   | Some t ->
     Buffer.add_string buf t;
     Buffer.add_char buf '\n'
   | None -> ());
  (match ylabel with
   | Some l ->
     Buffer.add_string buf ("y: " ^ l);
     Buffer.add_char buf '\n'
   | None -> ());
  Buffer.add_string buf ("+" ^ String.make width '-' ^ "+\n");
  Array.iter
    (fun row ->
      Buffer.add_char buf '|';
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_string buf "|\n")
    canvas;
  Buffer.add_string buf ("+" ^ String.make width '-' ^ "+\n");
  Buffer.add_string buf
    (Printf.sprintf "x: [%.3g, %.3g]  y: [%.3g, %.3g]\n" x0 x1 y0 y1);
  (match xlabel with
   | Some l ->
     Buffer.add_string buf ("x: " ^ l);
     Buffer.add_char buf '\n'
   | None -> ());
  let legend =
    series
    |> List.map (fun s -> Printf.sprintf "%c=%s" s.glyph s.name)
    |> String.concat "  "
  in
  if legend <> "" then Buffer.add_string buf (legend ^ "\n");
  Buffer.contents buf

let render_session ?width ?height ?selection session =
  let pts = Session.scatter session in
  let bg =
    {
      points = Session.background_points session;
      glyph = '.';
      name = "background sample";
    }
  in
  let data =
    {
      points = Array.map (fun p -> (p.Session.x, p.Session.y)) pts;
      glyph = 'o';
      name = "data";
    }
  in
  let series =
    match selection with
    | None | Some [||] -> [ bg; data ]
    | Some sel ->
      let chosen =
        Array.map (fun i -> (pts.(i).Session.x, pts.(i).Session.y)) sel
      in
      [ bg; data; { points = chosen; glyph = '#'; name = "selection" } ]
  in
  let a1, a2 = Session.axis_labels ~top:4 session in
  render ?width ?height ~xlabel:a1 ~ylabel:a2 series

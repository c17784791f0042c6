open Sider_linalg

let default_palette =
  [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b";
     "#e377c2" |]

(* Cells of 150 px. *)
let cell = 150

let render ?(max_points = 500) ?columns ?colors m =
  let n, d = Mat.dims m in
  let columns =
    match columns with
    | Some c -> c
    | None -> Array.init d (fun j -> Printf.sprintf "X%d" (j + 1))
  in
  if Array.length columns <> d then
    invalid_arg "Pairplot.render: column name mismatch";
  (* Deterministic stride subsample. *)
  let idx =
    if n <= max_points then Array.init n Fun.id
    else begin
      let stride = float_of_int n /. float_of_int max_points in
      Array.init max_points (fun i -> int_of_float (float_of_int i *. stride))
    end
  in
  let color i =
    match colors with
    | Some c -> c.(i)
    | None -> "#000000"
  in
  let mins = Array.init d (fun j -> Vec.min (Mat.col m j)) in
  let maxs = Array.init d (fun j -> Vec.max (Mat.col m j)) in
  let span j =
    let s = maxs.(j) -. mins.(j) in
    if s = 0.0 then 1.0 else s
  in
  let size = cell * d in
  let buf = Buffer.create (1 lsl 18) in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
      viewBox=\"0 0 %d %d\">\n" size size size size;
  pf "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" size size;
  for row = 0 to d - 1 do
    for col = 0 to d - 1 do
      let ox = float_of_int (col * cell) and oy = float_of_int (row * cell) in
      let c = float_of_int cell in
      pf "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
          fill=\"none\" stroke=\"#999\" stroke-width=\"0.7\"/>\n" ox oy c c;
      if row = col then begin
        (* Histogram of the column behind the name. *)
        let bins = 16 in
        let counts = Array.make bins 0 in
        Array.iter
          (fun i ->
            let x = Mat.get m i col in
            let b =
              int_of_float
                ((x -. mins.(col)) /. span col *. float_of_int bins)
            in
            let b = Stdlib.max 0 (Stdlib.min (bins - 1) b) in
            counts.(b) <- counts.(b) + 1)
          idx;
        let peak = float_of_int (Array.fold_left Stdlib.max 1 counts) in
        let bw = c /. float_of_int bins in
        Array.iteri
          (fun b cnt ->
            if cnt > 0 then begin
              let h = 0.82 *. c *. float_of_int cnt /. peak in
              pf "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" \
                  height=\"%.1f\" fill=\"#cfcfcf\"/>\n"
                (ox +. (float_of_int b *. bw))
                (oy +. c -. h) (bw *. 0.9) h
            end)
          counts;
        pf "<text x=\"%.1f\" y=\"%.1f\" font-size=\"%d\" \
            text-anchor=\"middle\" font-family=\"sans-serif\">%s</text>\n"
          (ox +. (c /. 2.0)) (oy +. (c /. 2.0))
          (Stdlib.max 9 (cell / 9)) columns.(row)
      end
      else begin
        let pad = 0.06 *. c in
        Array.iter
          (fun i ->
            let x = Mat.get m i col and y = Mat.get m i row in
            let px = ox +. pad +. ((x -. mins.(col)) /. span col *. (c -. (2.0 *. pad))) in
            let py = oy +. c -. pad -. ((y -. mins.(row)) /. span row *. (c -. (2.0 *. pad))) in
            pf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"1.4\" fill=\"%s\" \
                opacity=\"0.7\"/>\n" px py (color i))
          idx
      end
    done
  done;
  pf "</svg>\n";
  Buffer.contents buf

let class_colors labels =
  let seen = ref [] in
  let index_of l =
    match List.assoc_opt l !seen with
    | Some i -> i
    | None ->
      let i = List.length !seen in
      seen := (l, i) :: !seen;
      i
  in
  Array.map
    (fun l ->
      default_palette.(index_of l mod Array.length default_palette))
    labels

open Sider_linalg
open Sider_rand

let three_d ?(seed = 1) () =
  let rng = Rng.create seed in
  let centers =
    [| ("A", [| 1.0; 0.0; 0.0 |], 50);
       ("B", [| 0.0; 1.0; 0.0 |], 50);
       ("C", [| 0.0; 0.0; 0.55 |], 25);
       ("D", [| 0.0; 0.0; -0.55 |], 25) |]
  in
  let n = Array.fold_left (fun acc (_, _, s) -> acc + s) 0 centers in
  let m = Mat.create n 3 in
  let labels = Array.make n "" in
  let r = ref 0 in
  Array.iter
    (fun (lbl, center, size) ->
      for _ = 1 to size do
        let pt =
          Array.init 3 (fun j -> center.(j) +. (0.13 *. Sampler.normal rng))
        in
        Mat.set_row m !r pt;
        labels.(!r) <- lbl;
        incr r
      done)
    centers;
  Dataset.create ~name:"three_d" ~labels
    ~columns:[| "X1"; "X2"; "X3" |] m

type x5 = {
  data : Dataset.t;
  group13 : string array;
  group45 : string array;
}

let x5 ?(seed = 1) ?(n = 1000) () =
  let rng = Rng.create seed in
  let delta = 2.0 and sd = 0.25 in
  (* Dims 1-3: A at the origin, B, C, D on the coordinate axes; in any
     axis-pair projection the axis orthogonal to the plane collapses and A
     coincides with exactly one of B, C, D. *)
  let centers13 =
    [ ("A", [| 0.0; 0.0; 0.0 |]);
      ("B", [| delta; 0.0; 0.0 |]);
      ("C", [| 0.0; delta; 0.0 |]);
      ("D", [| 0.0; 0.0; delta |]) ]
  in
  (* Dims 4-5 separate a little less sharply than dims 1-3 so the first
     ICA view shows the four-cluster structure and the second view the
     three-cluster structure, as in the paper's Fig. 4. *)
  let centers45 =
    [ ("E", [| 1.5; 0.0 |]); ("F", [| 0.0; 1.5 |]); ("G", [| -1.1; -1.1 |]) ]
  in
  let sd45 = 0.4 in
  let m = Mat.create n 5 in
  let group13 = Array.make n "" in
  let group45 = Array.make n "" in
  for i = 0 to n - 1 do
    let g13, c13 = List.nth centers13 (Rng.int rng 4) in
    let g45 =
      if String.equal g13 "A" then "G"
      else if Rng.float rng < 0.75 then (if Rng.bool rng then "E" else "F")
      else "G"
    in
    let c45 = List.assoc g45 centers45 in
    let pt =
      Array.init 5 (fun j ->
          if j < 3 then c13.(j) +. (sd *. Sampler.normal rng)
          else c45.(j - 3) +. (sd45 *. Sampler.normal rng))
    in
    Mat.set_row m i pt;
    group13.(i) <- g13;
    group45.(i) <- g45
  done;
  let data =
    Dataset.create ~name:"x5" ~labels:group13
      ~columns:[| "X1"; "X2"; "X3"; "X4"; "X5" |] m
  in
  { data; group13; group45 }

let clustered ?(seed = 1) ~n ~d ~k () =
  if k <= 0 || n <= 0 || d <= 0 then invalid_arg "Synth.clustered";
  let rng = Rng.create seed in
  (* Paper Sec. IV-A: random centroids, points allocated around each. *)
  let centers = Mat.init k d (fun _ _ -> 3.0 *. Sampler.normal rng) in
  let m = Mat.create n d in
  let labels = Array.make n "" in
  for i = 0 to n - 1 do
    let c = i mod k in
    let center = Mat.row centers c in
    let pt =
      Array.init d (fun j -> center.(j) +. (0.5 *. Sampler.normal rng))
    in
    Mat.set_row m i pt;
    labels.(i) <- Printf.sprintf "c%d" c
  done;
  Dataset.create ~name:(Printf.sprintf "clustered_n%d_d%d_k%d" n d k)
    ~labels
    ~columns:(Array.init d (fun j -> Printf.sprintf "X%d" (j + 1)))
    m

let adversarial () =
  Dataset.create ~name:"adversarial"
    ~columns:[| "x1"; "x2" |]
    (Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |])

let gaussian ?(seed = 1) ~n ~d () =
  let rng = Rng.create seed in
  Dataset.create ~name:"gaussian"
    ~columns:(Array.init d (fun j -> Printf.sprintf "X%d" (j + 1)))
    (Sampler.normal_mat rng n d)

open Sider_linalg
open Sider_rand

let classes =
  [| "brickface"; "sky"; "foliage"; "cement"; "window"; "path"; "grass" |]

let attribute_names =
  [| "region-centroid-col"; "region-centroid-row"; "region-pixel-count";
     "short-line-density-5"; "short-line-density-2"; "vedge-mean";
     "vedge-sd"; "hedge-mean"; "hedge-sd"; "intensity-mean";
     "rawred-mean"; "rawblue-mean"; "rawgreen-mean"; "exred-mean";
     "exblue-mean"; "exgreen-mean"; "value-mean"; "saturation-mean";
     "hue-mean" |]

let n_latent = 6

(* Latent class centres.  Axes (informally): brightness, blue-excess,
   green-excess, texture, edge strength, geometry.  'sky' and 'grass'
   sit far out along dedicated directions; the five man-made/indoor
   classes crowd the centre. *)
let latent_centers =
  [| (* brickface *) [| 0.3; -0.2; -0.3; 0.6; 0.4; 0.0 |];
     (* sky *) [| 5.0; 6.0; -1.0; -2.0; -2.0; -3.0 |];
     (* foliage *) [| -0.8; -0.4; 0.8; 0.9; 0.3; 0.3 |];
     (* cement *) [| 0.7; 0.1; -0.5; 0.2; 0.6; -0.2 |];
     (* window *) [| -0.4; 0.3; -0.2; -0.4; -0.5; 0.2 |];
     (* path *) [| 0.9; -0.3; -0.6; -0.1; 0.9; 0.6 |];
     (* grass *) [| -1.0; -4.0; 6.5; 3.0; 1.0; 4.0 |] |]

(* Fixed 19×6 loading matrix: attributes are (approximately known) linear
   functions of the latent factors, mimicking the collinearity of the UCI
   colour statistics.  Chosen once, hard-coded for reproducibility. *)
let loadings =
  [| (* centroid-col *) [| 0.1; 0.0; 0.1; 0.0; 0.0; 1.2 |];
     (* centroid-row *) [| -0.6; -0.5; 0.4; 0.0; 0.1; 0.8 |];
     (* pixel-count (constant in UCI: 9) *) [| 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |];
     (* short-line-density-5 *) [| 0.0; 0.0; 0.1; 0.5; 0.3; 0.0 |];
     (* short-line-density-2 *) [| 0.0; 0.0; 0.0; 0.3; 0.2; 0.1 |];
     (* vedge-mean *) [| 0.1; -0.1; 0.1; 0.9; 0.8; 0.0 |];
     (* vedge-sd *) [| 0.0; 0.0; 0.1; 0.8; 0.9; 0.0 |];
     (* hedge-mean *) [| 0.1; -0.1; 0.1; 1.0; 0.7; 0.1 |];
     (* hedge-sd *) [| 0.0; 0.0; 0.0; 0.9; 0.8; 0.0 |];
     (* intensity-mean *) [| 1.5; 0.4; 0.3; -0.1; 0.0; 0.0 |];
     (* rawred-mean *) [| 1.4; 0.2; 0.1; -0.1; 0.0; 0.0 |];
     (* rawblue-mean *) [| 1.5; 0.9; -0.1; -0.1; 0.0; 0.0 |];
     (* rawgreen-mean *) [| 1.4; 0.1; 0.7; -0.1; 0.0; 0.0 |];
     (* exred-mean *) [| -0.1; -0.6; -0.5; 0.0; 0.0; 0.0 |];
     (* exblue-mean *) [| 0.2; 1.4; -0.7; 0.0; 0.0; 0.0 |];
     (* exgreen-mean *) [| -0.1; -0.8; 1.3; 0.0; 0.0; 0.0 |];
     (* value-mean *) [| 1.5; 0.5; 0.2; -0.1; 0.0; 0.0 |];
     (* saturation-mean *) [| -0.5; 0.5; 0.6; 0.1; 0.0; 0.1 |];
     (* hue-mean *) [| -0.2; 0.9; 1.1; 0.0; 0.0; 0.0 |] |]

(* The share of rows drawn as outliers. *)
let outlier_fraction = 0.02

let generate ?(seed = 7) () =
  let rng = Rng.create seed in
  let per_class = 330 in
  let n = per_class * Array.length classes in
  let d = Array.length attribute_names in
  let m = Mat.create n d in
  let labels = Array.make n "" in
  let w = Mat.of_arrays loadings in
  let r = ref 0 in
  Array.iteri
    (fun c cls ->
      let center = latent_centers.(c) in
      for _ = 1 to per_class do
        let outlier = Rng.float rng < outlier_fraction in
        let spread = if outlier then 6.0 else 0.45 in
        let z =
          Array.init n_latent (fun j ->
              center.(j) +. (spread *. Sampler.normal rng))
        in
        let x = Mat.mv w z in
        (* Small independent measurement noise keeps the covariance
           non-singular without destroying the low-rank structure. *)
        let x =
          Array.mapi (fun _ v -> v +. (0.03 *. Sampler.normal rng)) x
        in
        (* Raw UCI attributes live on wildly different scales; apply fixed
           affine maps so the generated file "looks like" segmentation
           data (intensities 0..140, densities 0..0.3, etc.). *)
        let x =
          Array.mapi
            (fun j v ->
              match j with
              | 0 | 1 -> 125.0 +. (40.0 *. v)          (* centroids *)
              | 2 -> 9.0                                (* pixel count *)
              | 3 | 4 -> Float.max 0.0 (0.1 +. (0.05 *. v))
              | 9 | 10 | 11 | 12 | 16 -> Float.max 0.0 (45.0 +. (15.0 *. v))
              | 13 | 14 | 15 -> 10.0 *. v
              | 17 -> Float.max 0.0 (0.4 +. (0.12 *. v))
              | 18 -> -2.0 +. (0.8 *. v)
              | _ -> Float.max 0.0 (2.0 +. (1.2 *. v)))
            x
        in
        Mat.set_row m !r x;
        labels.(!r) <- cls;
        incr r
      done)
    classes;
  Dataset.create ~name:"segmentation_synth" ~labels
    ~columns:attribute_names m

open Sider_linalg
open Sider_rand

type result = {
  assignment : int array;
  centroids : Mat.t;
  inertia : float;
  iterations : int;
}

let row_dist2 data i centroid =
  let _, d = Mat.dims data in
  let acc = ref 0.0 in
  for j = 0 to d - 1 do
    let diff = Mat.get data i j -. centroid.(j) in
    acc := !acc +. (diff *. diff)
  done;
  !acc

(* k-means++ seeding: each next centroid drawn with probability
   proportional to squared distance to the closest existing one. *)
let seed_plus_plus rng ~k data =
  let n, d = Mat.dims data in
  let centroids = Mat.create k d in
  let first = Rng.int rng n in
  Mat.set_row centroids 0 (Mat.row data first);
  let dist2 = Array.init n (fun i -> row_dist2 data i (Mat.row centroids 0)) in
  for c = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0.0 dist2 in
    let next =
      if total <= 0.0 then Rng.int rng n else Sampler.categorical rng dist2
    in
    Mat.set_row centroids c (Mat.row data next);
    let cen = Mat.row centroids c in
    for i = 0 to n - 1 do
      dist2.(i) <- Float.min dist2.(i) (row_dist2 data i cen)
    done
  done;
  centroids

(* At most 100 Lloyd iterations for each of 4 k-means++ starts. *)
let max_iter = 100

let restarts = 4

let lloyd rng ~k data =
  let n, d = Mat.dims data in
  let centroids = seed_plus_plus rng ~k data in
  let assignment = Array.make n (-1) in
  let changed = ref true in
  let iter = ref 0 in
  while !changed && !iter < max_iter do
    changed := false;
    incr iter;
    (* Assignment step. *)
    for i = 0 to n - 1 do
      let best = ref 0 and best_d = ref infinity in
      for c = 0 to k - 1 do
        let dist = row_dist2 data i (Mat.row centroids c) in
        if dist < !best_d then begin
          best_d := dist;
          best := c
        end
      done;
      if assignment.(i) <> !best then begin
        assignment.(i) <- !best;
        changed := true
      end
    done;
    (* Update step; empty clusters are re-seeded on a random row. *)
    let sums = Mat.create k d and counts = Array.make k 0 in
    for i = 0 to n - 1 do
      let c = assignment.(i) in
      counts.(c) <- counts.(c) + 1;
      for j = 0 to d - 1 do
        Mat.set sums c j (Mat.get sums c j +. Mat.get data i j)
      done
    done;
    for c = 0 to k - 1 do
      if counts.(c) = 0 then Mat.set_row centroids c (Mat.row data (Rng.int rng n))
      else
        for j = 0 to d - 1 do
          Mat.set centroids c j (Mat.get sums c j /. float_of_int counts.(c))
        done
    done
  done;
  let inertia = ref 0.0 in
  for i = 0 to n - 1 do
    inertia := !inertia +. row_dist2 data i (Mat.row centroids assignment.(i))
  done;
  { assignment; centroids; inertia = !inertia; iterations = !iter }

let fit rng ~k data =
  let n, _ = Mat.dims data in
  if k <= 0 || k > n then invalid_arg "Kmeans.fit: invalid k" [@sider.allow "error-discipline"];
  let best = ref None in
  for _ = 1 to restarts do
    let r = lloyd rng ~k data in
    match !best with
    | Some b when b.inertia <= r.inertia -> ()
    | _ -> best := Some r
  done;
  Option.get !best

let silhouette data assignment =
  let n, _ = Mat.dims data in
  if n = 0 then 0.0
  else begin
    let clusters = Array.fold_left Stdlib.max 0 assignment + 1 in
    if clusters < 2 then 0.0
    else begin
      let dist i j =
        let a = Mat.row data i and b = Mat.row data j in
        Vec.dist2 a b
      in
      let total = ref 0.0 and counted = ref 0 in
      for i = 0 to n - 1 do
        let sums = Array.make clusters 0.0 and counts = Array.make clusters 0 in
        for j = 0 to n - 1 do
          if j <> i then begin
            sums.(assignment.(j)) <- sums.(assignment.(j)) +. dist i j;
            counts.(assignment.(j)) <- counts.(assignment.(j)) + 1
          end
        done;
        let own = assignment.(i) in
        if counts.(own) > 0 then begin
          let a = sums.(own) /. float_of_int counts.(own) in
          let b = ref infinity in
          for c = 0 to clusters - 1 do
            if c <> own && counts.(c) > 0 then
              b := Float.min !b (sums.(c) /. float_of_int counts.(c))
          done;
          if Float.is_finite !b then begin
            let s =
              if Float.equal (Float.max a !b) 0.0 then 0.0
              else (!b -. a) /. Float.max a !b
            in
            total := !total +. s;
            incr counted
          end
        end
      done;
      if !counted = 0 then 0.0 else !total /. float_of_int !counted
    end
  end

let choose_k ?(k_max = 6) rng data =
  let n, _ = Mat.dims data in
  let k_max = Stdlib.min k_max n in
  if k_max < 2 then fit rng ~k:1 data
  else begin
    let best = ref None and best_s = ref neg_infinity in
    for k = 2 to k_max do
      let r = fit rng ~k data in
      let s = silhouette data r.assignment in
      if s > !best_s then begin
        best_s := s;
        best := Some r
      end
    done;
    Option.get !best
  end

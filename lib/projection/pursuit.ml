open Sider_linalg
open Sider_rand

type index = Mat.t -> Vec.t -> float

let abs_log_cosh m w = Float.abs (Scores.direction_log_cosh m w)

let golden = (sqrt 5.0 -. 1.0) /. 2.0

(* Golden-section maximization of f over [lo, hi]. *)
let golden_max f lo hi iterations =
  let a = ref lo and b = ref hi in
  let x1 = ref (!b -. (golden *. (!b -. !a))) in
  let x2 = ref (!a +. (golden *. (!b -. !a))) in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  for _ = 1 to iterations do
    if !f1 > !f2 then begin
      b := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !b -. (golden *. (!b -. !a));
      f1 := f !x1
    end
    else begin
      a := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !a +. (golden *. (!b -. !a));
      f2 := f !x2
    end
  done;
  if !f1 > !f2 then (!x1, !f1) else (!x2, !f2)

let orthogonal_to w u =
  let v = Vec.sub u (Vec.scale (Vec.dot u w) w) in
  Vec.normalize v

(* Up to 20 line-search passes from [start], until a pass improves the
   index by less than 1e-6; the direction reached and its index. *)
let sweeps = 20

let tol = 1e-6

let search_from rng index m start =
  let _, d = Mat.dims m in
  let w = ref (Vec.normalize start) in
  let best = ref (index m !w) in
  let improved = ref true in
  let sweep = ref 0 in
  while !improved && !sweep < sweeps do
    incr sweep;
    improved := false;
    (* Line-search along d random great circles per sweep. *)
    for _ = 1 to d do
      let u = orthogonal_to !w (Sampler.normal_vec rng d) in
      if Vec.norm2 u > 0.5 then begin
        let f theta =
          index m
            (Vec.add (Vec.scale (cos theta) !w) (Vec.scale (sin theta) u))
        in
        let theta, value =
          golden_max f (-.Float.pi /. 2.0) (Float.pi /. 2.0) 24
        in
        if value > !best +. tol then begin
          w :=
            Vec.normalize
              (Vec.add (Vec.scale (cos theta) !w) (Vec.scale (sin theta) u));
          best := value;
          improved := true
        end
      end
    done
  done;
  (!w, !best)

(* The best of [restarts] searches, the first from the first axis. *)
let maximize ?(restarts = 5) rng index m =
  let _, d = Mat.dims m in
  if d < 1 then invalid_arg "Pursuit.maximize: empty matrix" [@sider.allow "error-discipline"];
  let best = ref None in
  for r = 0 to Stdlib.max 0 (restarts - 1) do
    let start =
      if r = 0 then Vec.basis d 0 else Sampler.normal_vec rng d
    in
    let ((_, value) as candidate) = search_from rng index m start in
    match !best with
    | Some (_, b) when b >= value -> ()
    | _ -> best := Some candidate
  done;
  fst (Option.get !best)

let top2 ?restarts rng index m =
  let w1 = maximize ?restarts rng index m in
  (* Deflate: search the data projected onto the complement of w1. *)
  let n, d = Mat.dims m in
  let deflated =
    Mat.init n d (fun i j ->
        let r = Mat.row m i in
        let along = Vec.dot r w1 in
        Mat.get m i j -. (along *. w1.(j)))
  in
  let w2 = maximize ?restarts rng index deflated in
  (w1, orthogonal_to w1 w2)

open Sider_linalg

let normal rng =
  let z = Array.create_float 1 in
  Rng.fill_normal rng z ~pos:0 ~len:1;
  z.(0)

let normal_vec rng n =
  let v = Array.create_float n in
  Rng.fill_normal rng v ~pos:0 ~len:n;
  v

let normal_mat rng r c =
  let m = Mat.create r c in
  Rng.fill_normal rng m.Mat.a ~pos:0 ~len:(r * c);
  m

let poisson rng ~lambda =
  if lambda < 0.0 then invalid_arg "Sampler.poisson: negative lambda";
  if lambda > 720.0 then
    (* Normal approximation: valid far before exp(-lambda) underflows. *)
    Stdlib.max 0 (int_of_float (Float.round (lambda +. (sqrt lambda *. normal rng))))
  else begin
    let limit = exp (-.lambda) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      p := !p *. Rng.float rng;
      if !p <= limit then continue := false else incr k
    done;
    !k
  end

let categorical rng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Sampler.categorical: weights sum <= 0";
  let u = Rng.float rng *. total in
  let acc = ref 0.0 and choice = ref (Array.length weights - 1) in
  (try
     Array.iteri
       (fun i w ->
         acc := !acc +. w;
         if u < !acc then begin
           choice := i;
           raise Exit
         end)
       weights
   with Exit -> ());
  !choice

(* A Gamma(shape, 1) variate (Marsaglia-Tsang). *)
let rec gamma rng shape =
  if shape <= 0.0 then invalid_arg "Sampler.dirichlet: weights must be > 0";
  if shape < 1.0 then begin
    (* Boost to shape+1 and correct (Marsaglia-Tsang trick). *)
    let g = gamma rng (shape +. 1.0) in
    g *. (Rng.float rng ** (1.0 /. shape))
  end
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec draw () =
      let x = normal rng in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then draw ()
      else begin
        let v3 = v *. v *. v in
        let u = Rng.float rng in
        if u < 1.0 -. (0.0331 *. x *. x *. x *. x) then d *. v3
        else if log u < (0.5 *. x *. x) +. (d *. (1.0 -. v3 +. log v3))
        then d *. v3
        else draw ()
      end
    in
    draw ()
  end

let dirichlet rng alpha =
  let draws = Array.map (gamma rng) alpha in
  let total = Array.fold_left ( +. ) 0.0 draws in
  Array.map (fun g -> g /. total) draws

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement rng k n =
  if k < 0 || k > n then
    invalid_arg "Sampler.sample_without_replacement: need 0 <= k <= n";
  let pool = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k

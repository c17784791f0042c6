open Sider_linalg

type kind = Linear | Quadratic

type t = {
  kind : kind;
  rows : int array;
  w : Vec.t;
  target : float;
  shift : float;
  tag : string;
}

let normalize_rows rows =
  (* Fast path: row sets arriving already sorted and duplicate-free (the
     common case — class index arrays, [Array.init n Fun.id]) skip the
     sort and the intermediate list entirely. *)
  let n = Array.length rows in
  let sorted_unique = ref true in
  for i = 1 to n - 1 do
    if rows.(i - 1) >= rows.(i) then sorted_unique := false
  done;
  if !sorted_unique then Array.copy rows
  else begin
    let sorted = Array.copy rows in
    Array.sort compare sorted;
    let dedup = ref [] in
    Array.iteri
      (fun i r ->
        if i = 0 || sorted.(i - 1) <> r then dedup := r :: !dedup)
      sorted;
    Array.of_list (List.rev !dedup)
  end

let check_rows data rows =
  let n, _ = Mat.dims data in
  if Array.length rows = 0 then invalid_arg "Constr: empty row set" [@sider.allow "error-discipline"];
  Array.iter
    (fun r ->
      if r < 0 || r >= n then invalid_arg "Constr: row index out of range" [@sider.allow "error-discipline"])
    rows

(* A checked, sorted, duplicate-free copy the constraints may share:
   [rows] is never written after construction. *)
let owned_rows data rows =
  check_rows data rows;
  normalize_rows rows

(* [m̂_I]: per column, a sum over [rows] in order from 0.0, read from the
   flat array (a cross-module [Mat.get] boxes every cell), then scaled
   by [1/|I|] as [Vec.scale] scales. *)
let mean_over data rows =
  let _, d = Mat.dims data in
  let a = data.Mat.a in
  let m = Vec.create d in
  Array.iter
    (fun r ->
      let off = r * d in
      for j = 0 to d - 1 do
        Array.unsafe_set m j (Array.unsafe_get m j +. Array.unsafe_get a (off + j))
      done)
    rows;
  Vec.scale (1.0 /. float_of_int (Array.length rows)) m

(* Target sums stay a strict left fold: a tree reduction would shift the
   targets by rounding ulps, and the ICA golden fixture is sensitive to
   that through the solver trajectory.  {!Mat.row_dot} still avoids
   materializing one row copy per term. *)
let target_sum rows term =
  let acc = ref 0.0 in
  for i = 0 to Array.length rows - 1 do
    acc := !acc +. term rows.(i)
  done;
  !acc

(* The builders below take [rows] from [owned_rows] and a [w] the
   constraint may keep. *)
let linear_of ~tag ~data ~rows ~w =
  let target = target_sum rows (fun r -> Mat.row_dot data r w) in
  { kind = Linear; rows; w; target; shift = 0.0; tag }

let quadratic_of ~tag ~data ~rows ~m_hat ~w =
  let shift = Vec.dot m_hat w in
  let target =
    target_sum rows (fun r ->
        let p = Mat.row_dot data r w -. shift in
        p *. p)
  in
  { kind = Quadratic; rows; w; target; shift; tag }

let linear ?(tag = "lin") ~data ~rows ~w () =
  linear_of ~tag ~data ~rows:(owned_rows data rows) ~w:(Vec.copy w)

let quadratic ?(tag = "quad") ~data ~rows ~w () =
  let rows = owned_rows data rows in
  quadratic_of ~tag ~data ~rows ~m_hat:(mean_over data rows) ~w:(Vec.copy w)

(* The linear and the quadratic constraint along [w], sharing [rows],
   [m_hat] and [w] itself: what [linear] and [quadratic] build, bit for
   bit, without a copy of either array per constraint. *)
let pair ~tag ~data ~rows ~m_hat w =
  [ linear_of ~tag ~data ~rows ~w; quadratic_of ~tag ~data ~rows ~m_hat ~w ]

let margin ?(tag = "margin") data =
  let n, d = Mat.dims data in
  if n = 0 && d > 0 then
    invalid_arg "Constr: empty row set" [@sider.allow "error-discipline"];
  (* Column sums, then centred sums of squares, each in one row-major
     pass.  Per column these are the folds [linear] and [quadratic] make
     along [e_j], term for term in the same row order from 0.0:
     [Mat.row_dot] against [e_j] returns x_rj up to the sign of a zero,
     which neither a sum started at +0.0 nor a square can see.  So
     targets and shifts are bit-identical to the per-column builders. *)
  let a = data.Mat.a in
  let sums = Vec.create d in
  for r = 0 to n - 1 do
    let off = r * d in
    for j = 0 to d - 1 do
      sums.(j) <- sums.(j) +. Array.unsafe_get a (off + j)
    done
  done;
  let shifts = Vec.scale (1.0 /. float_of_int n) sums in
  let squares = Vec.create d in
  for r = 0 to n - 1 do
    let off = r * d in
    for j = 0 to d - 1 do
      let p = Array.unsafe_get a (off + j) -. shifts.(j) in
      squares.(j) <- squares.(j) +. (p *. p)
    done
  done;
  (* One all-rows array serves every constraint: [rows] is never
     written after construction. *)
  let rows = Array.init n Fun.id in
  List.concat
    (List.init d (fun j ->
         let w = Vec.basis d j in
         let tag = Printf.sprintf "%s:col%d" tag j in
         [ { kind = Linear; rows; w; target = sums.(j); shift = 0.0; tag };
           { kind = Quadratic; rows; w; target = squares.(j);
             shift = shifts.(j); tag } ]))

let cluster ?(tag = "cluster") ~data ~rows () =
  let rows = owned_rows data rows in
  let directions, _ = Svd.principal_directions ~rows data in
  let m_hat = mean_over data rows in
  let _, d = Mat.dims data in
  List.concat
    (List.init d (fun k ->
         pair ~tag:(Printf.sprintf "%s:pc%d" tag k) ~data ~rows ~m_hat
           (Mat.col directions k)))

let one_cluster ?(tag = "1-cluster") data =
  let n, _ = Mat.dims data in
  cluster ~tag ~data ~rows:(Array.init n Fun.id) ()

let two_d ?(tag = "2d") ~data ~rows ~w1 ~w2 () =
  let rows = owned_rows data rows in
  let m_hat = mean_over data rows in
  pair ~tag:(tag ^ ":ax1") ~data ~rows ~m_hat (Vec.copy w1)
  @ pair ~tag:(tag ^ ":ax2") ~data ~rows ~m_hat (Vec.copy w2)

let eval t data =
  match t.kind with
  | Linear ->
    Array.fold_left
      (fun acc r -> acc +. Mat.row_dot data r t.w)
      0.0 t.rows
  | Quadratic ->
    (* [m̂_I] is a constant of the constraint (Eq. 4), not recomputed from
       the argument matrix. *)
    Array.fold_left
      (fun acc r ->
        let p = Mat.row_dot data r t.w -. t.shift in
        acc +. (p *. p))
      0.0 t.rows

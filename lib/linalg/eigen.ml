(* Linter escape, audited file-wide: raises are [Invalid_argument]
   precondition failures with test-locked messages; lib/robust depends
   on linalg, so [Sider_error] would be a cycle. *)
[@@@sider.allow "error-discipline"]

type decomposition = { values : Vec.t; vectors : Mat.t }

(* EISPACK's tred2 (Householder reduction to tridiagonal form) and tql2
   (implicit QL with Wilkinson shifts), in the order of operations JAMA
   transcribed them.  They share one n×n work array [z] that starts as
   the symmetric input and ends holding the eigenvectors, plus the
   diagonal [d] and sub-diagonal [e].

   [z] is the textbook's V stored transposed: V(r, c) lives at
   z.(c*n + r).  Every inner loop of both routines walks a column of V,
   so here they all walk contiguous memory, and eigenvector k ends as
   row k of [z].  This runs inside FastICA's symmetric decorrelation on
   every fixed-point iteration, hence the raw array access, typed
   [float array] so that no read or write boxes its float. *)

let[@inline] vget (z : float array) n r c = Array.unsafe_get z ((c * n) + r)
let[@inline] vset (z : float array) n r c x = Array.unsafe_set z ((c * n) + r) x

let tred2 ~n (z : float array) (d : float array) (e : float array) =
  for j = 0 to n - 1 do
    d.(j) <- vget z n (n - 1) j
  done;
  for i = n - 1 downto 1 do
    let scale = ref 0.0 in
    for k = 0 to i - 1 do
      scale := !scale +. Float.abs d.(k)
    done;
    let h = ref 0.0 in
    if Float.equal !scale 0.0 then begin
      e.(i) <- d.(i - 1);
      for j = 0 to i - 1 do
        d.(j) <- vget z n (i - 1) j;
        vset z n i j 0.0;
        vset z n j i 0.0
      done
    end
    else begin
      (* Householder vector, scaled against under/overflow. *)
      for k = 0 to i - 1 do
        d.(k) <- d.(k) /. !scale;
        h := !h +. (d.(k) *. d.(k))
      done;
      let f = d.(i - 1) in
      let g = if f > 0.0 then -.sqrt !h else sqrt !h in
      e.(i) <- !scale *. g;
      h := !h -. (f *. g);
      d.(i - 1) <- f -. g;
      for j = 0 to i - 1 do
        e.(j) <- 0.0
      done;
      (* Similarity transformation of the remaining columns. *)
      for j = 0 to i - 1 do
        let f = d.(j) in
        vset z n j i f;
        let oj = j * n in
        let g = ref (e.(j) +. (Array.unsafe_get z (oj + j) *. f)) in
        for k = j + 1 to i - 1 do
          let vkj = Array.unsafe_get z (oj + k) in
          g := !g +. (vkj *. Array.unsafe_get d k);
          Array.unsafe_set e k (Array.unsafe_get e k +. (vkj *. f))
        done;
        e.(j) <- !g
      done;
      let f = ref 0.0 in
      for j = 0 to i - 1 do
        e.(j) <- e.(j) /. !h;
        f := !f +. (e.(j) *. d.(j))
      done;
      let hh = !f /. (!h +. !h) in
      for j = 0 to i - 1 do
        e.(j) <- e.(j) -. (hh *. d.(j))
      done;
      for j = 0 to i - 1 do
        let f = d.(j) and g = e.(j) in
        let oj = j * n in
        for k = j to i - 1 do
          Array.unsafe_set z (oj + k)
            (Array.unsafe_get z (oj + k)
             -. ((f *. Array.unsafe_get e k) +. (g *. Array.unsafe_get d k)))
        done;
        d.(j) <- vget z n (i - 1) j;
        vset z n i j 0.0
      done
    end;
    d.(i) <- !h
  done;
  (* Accumulate the transformations into V. *)
  for i = 0 to n - 2 do
    vset z n (n - 1) i (vget z n i i);
    vset z n i i 1.0;
    let h = d.(i + 1) in
    let oi1 = (i + 1) * n in
    if not (Float.equal h 0.0) then begin
      for k = 0 to i do
        d.(k) <- Array.unsafe_get z (oi1 + k) /. h
      done;
      for j = 0 to i do
        let oj = j * n in
        let g = ref 0.0 in
        for k = 0 to i do
          g := !g +. (Array.unsafe_get z (oi1 + k) *. Array.unsafe_get z (oj + k))
        done;
        let g = !g in
        for k = 0 to i do
          Array.unsafe_set z (oj + k)
            (Array.unsafe_get z (oj + k) -. (g *. Array.unsafe_get d k))
        done
      done
    end;
    Array.fill z oi1 (i + 1) 0.0
  done;
  for j = 0 to n - 1 do
    d.(j) <- vget z n (n - 1) j;
    vset z n (n - 1) j 0.0
  done;
  vset z n (n - 1) (n - 1) 1.0;
  e.(0) <- 0.0

(* EISPACK's per-eigenvalue iteration limit.  Finite input converges in
   one to three iterations per eigenvalue; the cap only bounds the loop
   on input no shift can settle. *)
let max_ql_iterations = 30

let tql2 ~n (z : float array) (d : float array) (e : float array) =
  for i = 1 to n - 1 do
    e.(i - 1) <- e.(i)
  done;
  e.(n - 1) <- 0.0;
  let eps = epsilon_float in
  let f = ref 0.0 and tst1 = ref 0.0 in
  for l = 0 to n - 1 do
    tst1 := Float.max !tst1 (Float.abs d.(l) +. Float.abs e.(l));
    (* Find a negligible sub-diagonal element.  e.(n-1) = 0 stops the
       scan on finite input; the bound stops it on NaN. *)
    let m = ref l in
    while !m < n - 1 && not (Float.abs e.(!m) <= eps *. !tst1) do
      incr m
    done;
    let m = !m in
    if m > l then begin
      let iter = ref 0 in
      let go = ref true in
      while !go do
        incr iter;
        (* Implicit shift. *)
        let g = d.(l) in
        let p = (d.(l + 1) -. g) /. (2.0 *. e.(l)) in
        let r = Float.hypot p 1.0 in
        let r = if p < 0.0 then -.r else r in
        d.(l) <- e.(l) /. (p +. r);
        d.(l + 1) <- e.(l) *. (p +. r);
        let dl1 = d.(l + 1) in
        let h = g -. d.(l) in
        for i = l + 2 to n - 1 do
          d.(i) <- d.(i) -. h
        done;
        f := !f +. h;
        (* Implicit QL transformation. *)
        let p = ref d.(m) in
        let c = ref 1.0 and c2 = ref 1.0 and c3 = ref 1.0 in
        let el1 = e.(l + 1) in
        let s = ref 0.0 and s2 = ref 0.0 in
        for i = m - 1 downto l do
          c3 := !c2;
          c2 := !c;
          s2 := !s;
          let g = !c *. e.(i) in
          let h = !c *. !p in
          let r = Float.hypot !p e.(i) in
          e.(i + 1) <- !s *. r;
          s := e.(i) /. r;
          c := !p /. r;
          p := (!c *. d.(i)) -. (!s *. g);
          d.(i + 1) <- h +. (!s *. ((!c *. g) +. (!s *. d.(i))));
          (* Rotate eigenvector columns i and i+1 of V: rows of [z]. *)
          let c = !c and s = !s in
          let oi = i * n and oi1 = (i + 1) * n in
          for k = 0 to n - 1 do
            let h = Array.unsafe_get z (oi1 + k) in
            let vi = Array.unsafe_get z (oi + k) in
            Array.unsafe_set z (oi1 + k) ((s *. vi) +. (c *. h));
            Array.unsafe_set z (oi + k) ((c *. vi) -. (s *. h))
          done
        done;
        let p = -. !s *. !s2 *. !c3 *. el1 *. e.(l) /. dl1 in
        e.(l) <- !s *. p;
        d.(l) <- !c *. p;
        go := Float.abs e.(l) > eps *. !tst1 && !iter < max_ql_iterations
      done
    end;
    d.(l) <- d.(l) +. !f;
    e.(l) <- 0.0
  done

(* The sign that makes row [k] of [z] have a positive largest-magnitude
   entry, the lowest index winning ties. *)
let sign_of_row ~n (z : float array) k =
  let off = k * n in
  let lead = ref 0 in
  for j = 1 to n - 1 do
    if Float.abs z.(off + j) > Float.abs z.(off + !lead) then lead := j
  done;
  if z.(off + !lead) < 0.0 then -1.0 else 1.0

let symmetric m =
  let n, c = Mat.dims m in
  if n <> c then invalid_arg "Eigen.symmetric: not square";
  if not (Mat.is_symmetric ~eps:1e-6 m) then
    invalid_arg "Eigen.symmetric: matrix is not symmetric";
  if n = 0 then { values = [||]; vectors = Mat.create 0 0 }
  else begin
    (* [symmetrize] returns a fresh matrix: its storage is the work array. *)
    let z = (Mat.symmetrize m).Mat.a in
    let d = Array.make n 0.0 and e = Array.make n 0.0 in
    tred2 ~n z d e;
    tql2 ~n z d e;
    (* Decreasing eigenvalues; QL's order breaks ties. *)
    let order = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Float.compare d.(j) d.(i)) order;
    let values = Array.map (fun k -> d.(k)) order in
    let vectors = Mat.create n n in
    let ua = vectors.Mat.a in
    for col = 0 to n - 1 do
      let k = order.(col) in
      let sign = sign_of_row ~n z k in
      let off = k * n in
      for r = 0 to n - 1 do
        Array.unsafe_set ua ((r * n) + col) (sign *. Array.unsafe_get z (off + r))
      done
    done;
    { values; vectors }
  end

(* Σ_k w_k u_k u_kᵀ accumulated column-by-column straight out of the
   eigenvector storage; the per-entry order and the zero-skip match
   [Mat.rank1_update] on an extracted column exactly, without the n
   column copies. *)
let weighted_outer_sum ~n (va : float array) weight =
  let out = Mat.create n n in
  let oa = out.Mat.a in
  for k = 0 to n - 1 do
    let w = weight k in
    for i = 0 to n - 1 do
      let avi = w *. Array.unsafe_get va ((i * n) + k) in
      if (avi <> 0.0) [@sider.allow "float-equality"] then begin
        let off = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set oa (off + j)
            (Array.unsafe_get oa (off + j)
             +. (avi *. Array.unsafe_get va ((j * n) + k)))
        done
      end
    done
  done;
  out

let power ?(clamp = 1e-12) { values; vectors } p =
  let n = Array.length values in
  weighted_outer_sum ~n vectors.Mat.a (fun k ->
      Float.max values.(k) clamp ** p)

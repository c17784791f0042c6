(* [alloc-in-hot-loop] positive fixture: allocating Mat operations inside
   loops — every iteration mallocs a fresh matrix the GC must chase,
   where an [_into] sibling with a preallocated destination exists. *)

open Sider_linalg

let power_chain (ms : Mat.t array) (x : Mat.t) =
  let acc = ref x in
  for i = 0 to Array.length ms - 1 do
    acc := Mat.matmul ms.(i) !acc
  done;
  !acc

let scaled_sum (ms : Mat.t list) (z : Mat.t) =
  List.fold_left (fun acc m -> Mat.sub acc (Mat.matmul_nt m m)) z ms

let squash_iterated (m : Mat.t) steps =
  let cur = ref m in
  let i = ref 0 in
  while !i < steps do
    cur := Mat.map Float.tanh !cur;
    incr i
  done;
  !cur

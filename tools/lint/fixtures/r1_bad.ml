(* [determinism] positive fixture: every definition below reads ambient
   nondeterministic state and must be flagged. *)

let wall_clock () = Unix.gettimeofday ()

let cpu_clock () = Sys.time ()

let seed_from_entropy () = Random.self_init ()

let ambient_roll () = Random.int 6

let hash_order_sum (h : (string, int) Hashtbl.t) =
  Hashtbl.fold (fun _ v acc -> v :: acc) h []

let hash_order_visit (h : (string, int) Hashtbl.t) f = Hashtbl.iter f h

let ambient_knob () = Sys.getenv_opt "SIDER_KNOB"

(* [@sider.allow] escape fixture: every violation below is annotated at
   one of the three supported granularities (file, binding, expression),
   so the linter must stay silent on this file. *)

(* File-level escape: the whole file may use bare raises. *)
[@@@sider.allow "error-discipline"]

let legacy_precondition n = if n < 0 then invalid_arg "negative"

(* Binding-level escape. *)
let[@sider.allow "determinism"] stamp () = Unix.gettimeofday ()

(* Expression-level escapes. *)
let tolerant_equal (a : float) (b : float) = (a = b) [@sider.allow "float-equality"]

let squares (ms : Sider_linalg.Mat.t array) =
  Array.map
    (fun m -> (Sider_linalg.Mat.matmul m m) [@sider.allow "alloc-in-hot-loop"])
    ms

let observe_slow (xs : float array) =
  Array.iter
    (fun x -> (Sider_obs.Obs.observe "fixture.slow" x) [@sider.allow "obs-hygiene"])
    xs

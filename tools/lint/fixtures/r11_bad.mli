(* [dead-export] positive fixture: an exported value that no other
   compilation unit references. *)

val unused : int -> int

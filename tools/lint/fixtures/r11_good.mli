(* [dead-export] negative fixture: one export another unit calls
   (R11_bad), and one deliberate test hook no unit calls — must stay
   silent. *)

val used : int -> int

val hook : unit -> unit [@@sider.allow "test-hook"]

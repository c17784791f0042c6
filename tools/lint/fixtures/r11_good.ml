let used x = 2 * x

let hook () = ()

type t = unit -> bool

exception Cancelled

let never : t = fun () -> false
let check (c : t) = if c () then raise Cancelled

(* [pending] is the unclaimed suffix of the list, walked in lock-step
   until the first lookup that does not match its head; from then on
   [index] holds the unclaimed bindings of that suffix, and a claim
   removes its name from the table. *)
type 'a cursor = {
  mutable pending : (string * 'a) list;
  mutable index : (string, 'a) Hashtbl.t option;
}

let cursor l = { pending = l; index = None }

let claim tbl name =
  let v = Hashtbl.find_opt tbl name in
  if Option.is_some v then Hashtbl.remove tbl name;
  v

let take c name =
  match c.index with
  | Some tbl -> claim tbl name
  | None -> (
      match c.pending with
      | [] -> None
      | (n, v) :: tl when String.equal n name ->
          c.pending <- tl;
          Some v
      | pending ->
          let tbl = Hashtbl.create (List.length pending) in
          List.iter (fun (n, v) -> Hashtbl.replace tbl n v) pending;
          c.index <- Some tbl;
          claim tbl name)

(* the bindings not yet claimed, in list order *)
let rest c =
  match c.index with
  | None -> c.pending
  | Some tbl -> List.filter (fun (n, _) -> Hashtbl.mem tbl n) c.pending

let join ~both ~one l r =
  let right = cursor r in
  let joined =
    List.map
      (fun (n, a) ->
        match take right n with Some b -> (n, both a b) | None -> (n, one a))
      l
  in
  joined @ List.map (fun (n, b) -> (n, one b)) (rest right)

(* Doubly-linked intrusive LRU list + hashtable index, one mutex. *)

module Tbl = Hashtbl.Make (String)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable expires_at : int64;  (* monotonic ns deadline; Int64.max_int = never *)
  mutable prev : 'a node option;  (* towards MRU *)
  mutable next : 'a node option;  (* towards LRU *)
}

type 'a t = {
  cap : int;
  tbl : 'a node Tbl.t;
  mutable head : 'a node option;  (* MRU *)
  mutable tail : 'a node option;  (* LRU *)
  lock : Mutex.t;
}

let create ~capacity =
  {
    cap = capacity;
    tbl = Tbl.create (max 16 capacity);
    head = None;
    tail = None;
    lock = Mutex.create ();
  }

let length t = Mutex.protect t.lock (fun () -> Tbl.length t.tbl)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let expired n = n.expires_at <> Int64.max_int && Fsdata_obs.Clock.now_ns () >= n.expires_at

let find t key =
  if t.cap <= 0 then None
  else
    Mutex.protect t.lock (fun () ->
        match Tbl.find_opt t.tbl key with
        | None -> None
        | Some n when expired n ->
            unlink t n;
            Tbl.remove t.tbl key;
            None
        | Some n ->
            unlink t n;
            push_front t n;
            Some n.value)

let add t ?ttl_ns key value =
  if t.cap <= 0 then 0
  else
    let expires_at =
      match ttl_ns with
      | None -> Int64.max_int
      | Some ttl -> Int64.add (Fsdata_obs.Clock.now_ns ()) ttl
    in
    Mutex.protect t.lock (fun () ->
        (match Tbl.find_opt t.tbl key with
        | Some n ->
            n.value <- value;
            n.expires_at <- expires_at;
            unlink t n;
            push_front t n
        | None ->
            let n = { key; value; expires_at; prev = None; next = None } in
            Tbl.replace t.tbl key n;
            push_front t n);
        if Tbl.length t.tbl > t.cap then (
          match t.tail with
          | Some lru ->
              unlink t lru;
              Tbl.remove t.tbl lru.key;
              1
          | None -> 0)
        else 0)

let remove t key =
  if t.cap <= 0 then false
  else
    Mutex.protect t.lock (fun () ->
        match Tbl.find_opt t.tbl key with
        | None -> false
        | Some n ->
            unlink t n;
            Tbl.remove t.tbl key;
            true)

let remove_where t pred =
  if t.cap <= 0 then 0
  else
    Mutex.protect t.lock (fun () ->
        let doomed =
          Tbl.fold (fun k n acc -> if pred k then n :: acc else acc) t.tbl []
        in
        List.iter
          (fun n ->
            unlink t n;
            Tbl.remove t.tbl n.key)
          doomed;
        List.length doomed)

let clear t =
  Mutex.protect t.lock (fun () ->
      let n = Tbl.length t.tbl in
      Tbl.reset t.tbl;
      t.head <- None;
      t.tail <- None;
      n)

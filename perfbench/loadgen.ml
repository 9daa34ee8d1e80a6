(* The open-loop load generator: one single-threaded process driving
   keep-alive connections to the server under test.

   Operation i is due at [t0 + i / rate], whether or not earlier answers
   have arrived. A due operation waits in the generator until a
   connection is free: on its pinned connection, or on any connection if
   it is not pinned. Latency runs from when the operation was due, so a
   stall is charged to every request queued behind it, and the time it
   waited before being sent is reported as the generator's lateness. *)

type op = {
  req : Util.request;
  route : string;
  conn : int option;  (** pinned connection, to keep per-stream order *)
}

type outcome = {
  mutable sent_ns : int;
  mutable done_ns : int;  (** 0 while unanswered *)
  mutable status : int;
  mutable digest : string;
}

type run = {
  due_ns : int array;
  outcomes : outcome array;
  max_backlog : int;
}

let connect ~port ~conns = Array.init conns (fun _ -> Util.reader (Util.connect port))

(* Run one segment of the schedule on open connections and wait for every
   answer (or [timeout_s] past the last due time). *)
let run ~readers ~rate ~timeout_s (ops : op array) =
  let n = Array.length ops in
  let conns = Array.length readers in
  let in_flight = Array.make conns (-1) in
  let pinned = Array.init conns (fun _ -> Queue.create ()) in
  let shared = Queue.create () in
  let outcomes =
    Array.init n (fun _ -> { sent_ns = 0; done_ns = 0; status = 0; digest = "" })
  in
  let period = int_of_float (1e9 /. rate) in
  let t0 = Util.now_ns () + 1_000_000 in
  let due_ns = Array.init n (fun i -> t0 + (i * period)) in
  let next = ref 0 and completed = ref 0 and queued = ref 0 in
  let max_backlog = ref 0 in
  let hard_stop = due_ns.(n - 1) + int_of_float (timeout_s *. 1e9) in
  let send c i =
    in_flight.(c) <- i;
    outcomes.(i).sent_ns <- Util.now_ns ();
    Util.write_all readers.(c).Util.fd (Util.serialize ops.(i).req) 0
  in
  let dispatch () =
    for c = 0 to conns - 1 do
      if in_flight.(c) < 0 then
        let q = if not (Queue.is_empty pinned.(c)) then Some pinned.(c)
          else if not (Queue.is_empty shared) then Some shared else None in
        match q with
        | Some q ->
            decr queued;
            send c (Queue.pop q)
        | None -> ()
    done
  in
  let finished = ref false in
  while not !finished do
    let now = Util.now_ns () in
    while !next < n && due_ns.(!next) <= now do
      (match ops.(!next).conn with
      | Some c -> Queue.push !next pinned.(c)
      | None -> Queue.push !next shared);
      incr queued;
      incr next
    done;
    if !queued > !max_backlog then max_backlog := !queued;
    dispatch ();
    if !completed = n || now > hard_stop then finished := true
    else begin
      let busy = ref [] in
      Array.iteri (fun c i -> if i >= 0 then busy := readers.(c).Util.fd :: !busy) in_flight;
      let wait_ns = if !next < n then max 0 (due_ns.(!next) - now) else 50_000_000 in
      let ready =
        match Unix.select !busy [] [] (float_of_int wait_ns /. 1e9) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          let c = ref 0 in
          Array.iteri (fun k rd -> if rd.Util.fd == fd then c := k) readers;
          let c = !c in
          if not (Util.fill readers.(c)) then failwith "server closed a connection";
          match Util.parse readers.(c) with
          | Some resp ->
              let o = outcomes.(in_flight.(c)) in
              o.done_ns <- Util.now_ns ();
              o.status <- resp.Util.status;
              o.digest <- Gen.digest resp.Util.rbody;
              in_flight.(c) <- -1;
              incr completed
          | None -> ())
        ready
    end
  done;
  { due_ns; outcomes; max_backlog = !max_backlog }

let lateness_ms r =
  Array.to_list
    (Array.mapi (fun i o -> if o.sent_ns = 0 then nan else Util.ms_of_ns (o.sent_ns - r.due_ns.(i)))
       r.outcomes)
  |> List.filter (fun x -> not (Float.is_nan x))

(* The backlog grew when the operations due in the last tenth of each
   segment were, at the median, sent more than [late_limit_ms] after they
   fell due: a transient stall delays a few sends, a growing queue delays
   all the late ones. *)
let late_limit_ms = 50.

let backlog_grew (segments : run list) =
  let late =
    List.concat_map
      (fun r ->
        let n = Array.length r.outcomes in
        List.init (max 1 (n / 10)) (fun k ->
            let i = n - 1 - k in
            let o = r.outcomes.(i) in
            if o.sent_ns = 0 then infinity else Util.ms_of_ns (o.sent_ns - r.due_ns.(i))))
      segments
  in
  Util.median late > late_limit_ms

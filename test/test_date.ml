(* Date recognition tests (Section 6.2). *)

module Date = Fsdata_data.Date

let check = Alcotest.check
let tc = Alcotest.test_case

let accepts s () =
  match Date.of_string s with
  | Some _ -> ()
  | None -> Alcotest.failf "%S should parse as a date" s

let rejects s () =
  match Date.of_string s with
  | None -> ()
  | Some d -> Alcotest.failf "%S should not parse as a date (got %s)" s (Date.to_iso8601 d)

let parses s expected () =
  match Date.of_string s with
  | Some d -> check Alcotest.string s expected (Date.to_iso8601 d)
  | None -> Alcotest.failf "%S should parse" s

let test_make_validation () =
  check Alcotest.bool "valid" true (Date.make 2012 5 1 <> None);
  check Alcotest.bool "month 13" true (Date.make 2012 13 1 = None);
  check Alcotest.bool "day 32" true (Date.make 2012 1 32 = None);
  check Alcotest.bool "Feb 30" true (Date.make 2012 2 30 = None);
  check Alcotest.bool "Feb 29 leap" true (Date.make 2012 2 29 <> None);
  check Alcotest.bool "Feb 29 non-leap" true (Date.make 2013 2 29 = None);
  check Alcotest.bool "Feb 29 century" true (Date.make 1900 2 29 = None);
  check Alcotest.bool "Feb 29 400-year" true (Date.make 2000 2 29 <> None);
  check Alcotest.bool "hour 24" true (Date.make ~hour:24 2012 1 1 = None)

let test_compare () =
  let d1 = Option.get (Date.make 2012 5 1) in
  let d2 = Option.get (Date.make 2012 5 2) in
  check Alcotest.bool "ordering" true (Date.compare d1 d2 < 0);
  check Alcotest.bool "equal" true (Date.equal d1 d1)

(* The printer writes its digits directly; its bytes are the [Printf]
   form's, for every date [make] admits, with and without a time. *)
let printf_iso8601 (t : Date.t) =
  if t.hour = 0 && t.minute = 0 && t.second = 0 then
    Printf.sprintf "%04d-%02d-%02d" t.year t.month t.day
  else
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" t.year t.month t.day t.hour
      t.minute t.second

let gen_date =
  let open QCheck2.Gen in
  let* year = oneof [ int_range 1 9999; oneofl [ 1; 9; 10; 99; 100; 999; 1000; 9999 ] ] in
  let* month = int_range 1 12 in
  let* day = int_range 1 31 in
  let* time =
    oneof
      [ return (0, 0, 0);
        triple (int_range 0 23) (int_range 0 59) (int_range 0 59);
        oneofl [ (0, 0, 1); (0, 1, 0); (1, 0, 0); (23, 59, 59) ] ]
  in
  let hour, minute, second = time in
  let make day = Date.make ~hour ~minute ~second year month day in
  return (match make day with Some d -> d | None -> Option.get (make 28))

let prop_iso8601_is_printf =
  QCheck2.Test.make ~count:1000 ~name:"to_iso8601 prints what Printf printed"
    ~print:printf_iso8601 gen_date (fun d ->
      String.equal (Date.to_iso8601 d) (printf_iso8601 d))

let suite =
  [
    tc "ISO date" `Quick (parses "2012-05-01" "2012-05-01");
    tc "ISO with T time" `Quick (parses "2012-05-01T13:45:30" "2012-05-01T13:45:30");
    tc "ISO with space time" `Quick (parses "2012-05-01 13:45" "2012-05-01T13:45:00");
    tc "ISO with Z" `Quick (parses "2012-05-01T13:45:30Z" "2012-05-01T13:45:30");
    tc "ISO with offset" `Quick (parses "2012-05-01T13:45:30+02:00" "2012-05-01T13:45:30");
    tc "ISO fractional seconds" `Quick (parses "2012-05-01T13:45:30.123" "2012-05-01T13:45:30");
    tc "slashed ymd" `Quick (parses "2012/05/01" "2012-05-01");
    tc "slashed mdy" `Quick (parses "05/01/2012" "2012-05-01");
    tc "slashed dmy fallback" `Quick (parses "13/01/2012" "2012-01-13");
    tc "month name: May 3" `Quick (accepts "May 3");
    tc "month name: May 3, 2012" `Quick (parses "May 3, 2012" "2012-05-03");
    tc "month name: 3 May 2012" `Quick (parses "3 May 2012" "2012-05-03");
    tc "month name: 3 January" `Quick (accepts "3 January");
    tc "abbreviated month" `Quick (parses "Dec 25, 2015" "2015-12-25");
    tc "case-insensitive month" `Quick (accepts "may 3");
    tc "rejects: 3 kveten (Czech, Section 6.2)" `Quick (rejects "3 kveten");
    tc "rejects: bare number" `Quick (rejects "2012");
    tc "rejects: number pair" `Quick (rejects "5-1");
    tc "rejects: impossible date" `Quick (rejects "2012-13-45");
    tc "rejects: Feb 30" `Quick (rejects "2012-02-30");
    tc "rejects: random text" `Quick (rejects "scattered clouds");
    tc "rejects: empty" `Quick (rejects "");
    tc "rejects: bad time" `Quick (rejects "2012-05-01T25:99");
    tc "make validation" `Quick test_make_validation;
    tc "compare/equal" `Quick test_compare;
    QCheck_alcotest.to_alcotest prop_iso8601_is_printf;
  ]

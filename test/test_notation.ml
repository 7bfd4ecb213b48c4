(* Parsing and printing the paper's <op,x,a> notation. *)

open Core
open Helpers

let parse s =
  match Notation.event_of_string s with
  | Ok e -> e
  | Error m -> Alcotest.fail (Fmt.str "parse %S: %s" s m)

let event = Alcotest.testable Event.pp Event.equal

let test_event_forms () =
  Alcotest.check event "invocation with argument"
    (Event.invoke a x (Intset.insert 3))
    (parse "<insert(3),x,a>");
  Alcotest.check event "invocation without argument"
    (Event.invoke c x (Fifo_queue.dequeue))
    (parse "<dequeue,x,c>");
  Alcotest.check event "boolean result"
    (Event.respond a x (Value.Bool true))
    (parse "<true,x,a>");
  Alcotest.check event "symbolic result"
    (Event.respond b x Value.ok)
    (parse "<ok,x,b>");
  Alcotest.check event "integer result"
    (Event.respond c x (Value.Int 2))
    (parse "<2,x,c>");
  Alcotest.check event "commit" (Event.commit a x) (parse "<commit,x,a>");
  Alcotest.check event "timestamped commit"
    (Event.commit_ts a x (ts 2))
    (parse "<commit(2),x,a>");
  Alcotest.check event "abort" (Event.abort c x) (parse "<abort,x,c>");
  Alcotest.check event "initiation"
    (Event.initiate r x (ts 1))
    (parse "<initiate(1),x,r>");
  Alcotest.check event "multi-argument operation"
    (Event.invoke a x (Kv_map.put 1 10))
    (parse "<put(1,10),x,a>")

let test_read_only_convention () =
  check_bool "r is read-only" true
    (Activity.is_read_only (Event.activity (parse "<commit,x,r>")));
  check_bool "a is an update" false
    (Activity.is_read_only (Event.activity (parse "<commit,x,a>")))

let test_whitespace () =
  Alcotest.check event "spaces tolerated"
    (Event.invoke a x (Intset.insert 3))
    (parse "  < insert(3) , x , a >  ");
  Alcotest.check event "spaces around argument commas"
    (Event.invoke a x (Kv_map.put 1 10))
    (parse "<put( 1 ,\t10 ) ,x, a>");
  Alcotest.check event "spaces inside a timestamp"
    (Event.commit_ts a x (ts 7))
    (parse "<commit( 7 ),x,a>")

let test_errors () =
  let bad s =
    match Notation.event_of_string s with
    | Ok _ -> Alcotest.fail (Fmt.str "expected failure on %S" s)
    | Error _ -> ()
  in
  bad "";
  bad "insert(3),x,a";
  bad "<>";
  bad "<,x,a>";
  bad "<insert(3,x,a>";
  bad "<commit(x),x,a>";
  bad "<initiate,x,a>";
  bad "< initiate ,x,a>";
  bad "<abort(1),x,a>";
  (* whitespace around commas *)
  bad "< , x , a >";
  bad "<commit , , a>";
  bad "<insert(3 , ),x,a>";
  bad "<insert(3) , x ,  >";
  (* negative timestamps *)
  bad "<commit(-1),x,a>";
  bad "<initiate( -2 ),x,r>";
  match Notation.event_of_string "<commit(-1),x,a>" with
  | Error m ->
    Alcotest.(check string) "negative commit timestamp" m
      "commit timestamp must be a natural number"
  | Ok _ -> Alcotest.fail "negative commit timestamp accepted"

let test_negative_and_multiarg_values () =
  Alcotest.check event "negative result"
    (Event.respond a x (Value.Int (-3)))
    (parse "<-3,x,a>");
  Alcotest.check event "unit result"
    (Event.respond a x Value.Unit)
    (parse "<(),x,a>")

let test_history_round_trip () =
  List.iter
    (fun h ->
      let text = Notation.history_to_string h in
      match Notation.history_of_string text with
      | Ok h' -> Alcotest.check history "round trip" h h'
      | Error e -> Alcotest.fail (Fmt.str "%a" Notation.pp_error e))
    [
      sec3_atomic; sec41_dynamic; sec42_static; sec43_well_formed;
      sec51_withdrawals; sec51_queue;
    ]

let test_history_comments_and_errors () =
  let src = "# the paper's Section 3 example\n\n<member(3),x,a>\n<commit,x,a>\n" in
  (match Notation.history_of_string src with
  | Ok h -> check_int "two events" 2 (History.length h)
  | Error e -> Alcotest.fail (Fmt.str "%a" Notation.pp_error e));
  match Notation.history_of_string "<commit,x,a>\nnot an event\n" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check_int "error on line 2" 2 e.Notation.line

(* --- the codec ------------------------------------------------------ *)

(* The notation as the Fmt printers rendered it before the buffer
   writers replaced them: the reference the writers must match byte for
   byte. *)
let rec ref_value ppf = function
  | Value.Unit -> Fmt.string ppf "()"
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Int i -> Fmt.int ppf i
  | Value.Sym s -> Fmt.string ppf s
  | Value.List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") ref_value) vs
  | Value.Pair (a, b) -> Fmt.pf ppf "(%a, %a)" ref_value a ref_value b

let ref_op ppf op =
  match Operation.args op with
  | [] -> Fmt.string ppf (Operation.name op)
  | args ->
    Fmt.pf ppf "@[<h>%s(%a)@]" (Operation.name op)
      Fmt.(list ~sep:comma ref_value)
      args

let ref_event ppf = function
  | Event.Invoke (a, x, op) ->
    Fmt.pf ppf "@[<h><%a,%a,%a>@]" ref_op op Object_id.pp x Activity.pp a
  | Event.Respond (a, x, v) ->
    Fmt.pf ppf "<%a,%a,%a>" ref_value v Object_id.pp x Activity.pp a
  | Event.Commit (a, x, None) ->
    Fmt.pf ppf "<commit,%a,%a>" Object_id.pp x Activity.pp a
  | Event.Commit (a, x, Some t) ->
    Fmt.pf ppf "<commit(%a),%a,%a>" Timestamp.pp t Object_id.pp x Activity.pp a
  | Event.Abort (a, x) -> Fmt.pf ppf "<abort,%a,%a>" Object_id.pp x Activity.pp a
  | Event.Initiate (a, x, t) ->
    Fmt.pf ppf "<initiate(%a),%a,%a>" Timestamp.pp t Object_id.pp x
      Activity.pp a

(* Events of all five kinds.  [~flat:true] keeps to what the parser
   reads back: no list or pair values, symbolic results drawn from the
   registered ones, and operation names that are no value or keyword.
   Activity kinds follow the naming convention the parser applies. *)
let event_gen ~flat =
  let open QCheck2.Gen in
  let sym = oneofl [ "k"; "acct_1"; "Z9" ] in
  let scalar =
    oneof
      [
        pure Value.Unit;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 100000);
        map (fun s -> Value.Sym s) sym;
      ]
  in
  let value =
    if flat then scalar
    else
      sized_size (int_bound 2)
      @@ fix (fun self n ->
             if n = 0 then scalar
             else
               frequency
                 [
                   (3, scalar);
                   (1, map (fun vs -> Value.List vs) (list_size (int_bound 3) (self (n - 1))));
                   (1, map2 (fun u v -> Value.Pair (u, v)) (self (n - 1)) (self (n - 1)));
                 ])
  in
  let activity =
    oneof
      [
        map Activity.update (oneofl [ "a"; "b2"; "u_x" ]);
        map Activity.read_only (oneofl [ "r"; "s1"; "t" ]);
      ]
  in
  let obj = map Object_id.v (oneofl [ "x"; "y"; "acct_3" ]) in
  let op =
    map2 Operation.make
      (oneofl [ "put"; "deposit"; "member"; "deq" ])
      (list_size (int_bound 3) value)
  in
  let result =
    if flat then
      oneof [ scalar |> map (function Value.Sym _ -> Value.ok | v -> v);
              map (fun s -> Value.Sym s)
                (oneofl [ "ok"; "insufficient_funds"; "empty"; "none" ]) ]
    else value
  in
  let stamp = map Timestamp.v (int_bound 100000) in
  let* a = activity and* x = obj in
  oneof
    [
      map (fun op -> Event.invoke a x op) op;
      map (fun v -> Event.respond a x v) result;
      pure (Event.commit a x);
      map (fun t -> Event.commit_ts a x t) stamp;
      pure (Event.abort a x);
      map (fun t -> Event.initiate a x t) stamp;
    ]

let print_event = Event.to_string

let writer_matches_reference =
  QCheck2.Test.make ~name:"buffer writer prints what the Fmt reference printed"
    ~count:2000 ~print:print_event (event_gen ~flat:false) (fun e ->
      String.equal (Event.to_string e) (Fmt.str "%a" ref_event e)
      && String.equal (Fmt.str "%a" Event.pp e) (Event.to_string e)
      &&
      match e with
      | Event.Invoke (_, _, op) ->
        String.equal (Operation.to_string op) (Fmt.str "%a" ref_op op)
      | Event.Respond (_, _, v) ->
        String.equal (Value.to_string v) (Fmt.str "%a" ref_value v)
      | _ -> true)

let parse_after_print =
  QCheck2.Test.make ~name:"parsing a printed event gives it back" ~count:2000
    ~print:print_event (event_gen ~flat:true) (fun e ->
      match Notation.event_of_string (Event.to_string e) with
      | Ok e' ->
        Event.equal e e'
        && Activity.is_read_only (Event.activity e)
           = Activity.is_read_only (Event.activity e')
      | Error _ -> false)

(* A fixed record stream with every event kind and every control
   record, and its encodings as the Fmt-based codec wrote them.  Files
   written before the buffer codec must keep their digests. *)
let golden_records =
  let s = Activity.read_only "s" in
  Wal.
    [
      Event (Event.initiate r x (ts 1));
      Event (Event.invoke a x (Operation.make "put" [ Value.Int 1; Value.Int (-10) ]));
      Event (Event.respond a x Value.ok);
      Event (Event.invoke r x (Operation.make "balance" []));
      Event (Event.respond r x (Value.Int 990));
      Event (Event.commit_ts a x (ts 4));
      Event (Event.invoke b y (Operation.make "deposit" [ Value.Int 5 ]));
      Event (Event.respond b y Value.Unit);
      Control (Prepared { gid = 7; activity = b });
      Event (Event.invoke c y (Operation.make "withdraw" [ Value.Int 3 ]));
      Event (Event.respond c y Value.insufficient_funds);
      Event (Event.abort c y);
      Event (Event.commit r x);
      Control (Decided { gid = 7; verdict = `Commit (Some (ts 9)) });
      Event (Event.commit_ts b y (ts 9));
      Control (Decided { gid = 8; verdict = `Abort });
      Control (Decided { gid = 10; verdict = `Commit None });
      Control (Prepared { gid = 11; activity = s });
      Event (Event.initiate s y (ts 5));
      Event
        (Event.invoke s y
           (Operation.make "member" [ Value.Bool true; Value.Sym "k" ]));
      Control (Checkpointed { seq = 3; digest = 0xdeadbeef });
    ]

let golden_wal =
  "weihl-wal 1 shard-0 @12\n\
   bdb15de6 12 <initiate(1),x,r>\n\
   df9389e3 13 <put(1, -10),x,a>\n\
   8a4fb2c9 14 <ok,x,a>\n\
   a93fef32 15 <balance,x,r>\n\
   5758511a 16 <990,x,r>\n\
   78e889c0 17 <commit(4),x,a>\n\
   a6e20c85 18 <deposit(5),y,b>\n\
   2f1ced4f 19 <(),y,b>\n\
   a7d244cc 20 !prepared 7 u b\n\
   85efd49f 21 <withdraw(3),y,c>\n\
   d9a44f3b 22 <insufficient_funds,y,c>\n\
   192e37ea 23 <abort,y,c>\n\
   65d521e9 24 <commit,x,r>\n\
   58d73327 25 !decided 7 commit 9\n\
   e78eca87 26 <commit(9),y,b>\n\
   d736a05d 27 !decided 8 abort\n\
   8f377699 28 !decided 10 commit -\n\
   ab05fedf 29 !prepared 11 r s\n\
   56235fac 30 <initiate(5),y,s>\n\
   352f9486 31 <member(true, k),y,s>\n\
   ab20aa38 32 !checkpointed 3 deadbeef\n"

let golden_ckpt_commit_order =
  "weihl-ckpt 1 @17 shard-0\n\
   weihl-wal 1\n\
   36459dc0 0 <put(1, -10),x,a>\n\
   0d8f34cb 1 <ok,x,a>\n\
   be050975 2 <commit(4),x,a>\n\
   20d34f34 3 <initiate(1),x,r>\n\
   74dca81a 4 <balance,x,r>\n\
   51643af3 5 <990,x,r>\n\
   e6f28f24 6 <commit,x,r>\n\
   0faa6389 7 <deposit(5),y,b>\n\
   a137cb37 8 <(),y,b>\n\
   f9c94809 9 <commit(9),y,b>\n\
   f050609b 10 !prepared 11 r s\n"

let golden_ckpt_ts_order =
  "weihl-ckpt 1 @6\n\
   weihl-wal 1\n\
   36459dc0 0 <put(1, -10),x,a>\n\
   0d8f34cb 1 <ok,x,a>\n\
   be050975 2 <commit(4),x,a>\n\
   20d34f34 3 <initiate(1),x,r>\n\
   74dca81a 4 <balance,x,r>\n\
   51643af3 5 <990,x,r>\n\
   e6f28f24 6 <commit,x,r>\n\
   4e49a19b 7 !prepared 11 r s\n"

let record_equal r r' =
  match (r, r') with
  | Wal.Event e, Wal.Event e' -> Event.equal e e'
  | Wal.Control c, Wal.Control c' -> c = c'
  | _ -> false

let test_golden_wal () =
  Alcotest.(check string)
    "WAL text" golden_wal
    (Wal.encode_records ~label:"shard-0" ~base:12 golden_records);
  (match Wal.decode_records golden_wal with
  | Ok (rs, Wal.Intact) ->
    check_bool "decodes to the records" true
      (List.equal record_equal golden_records rs)
  | Ok (_, Wal.Torn _) -> Alcotest.fail "golden WAL decoded torn"
  | Error e -> Alcotest.fail (Fmt.str "%a" Wal.pp_error e));
  (* The group-commit writer frames lines with the same function. *)
  let w = Wal.Writer.create ~label:"shard-0" () in
  let half = List.filteri (fun i _ -> i < 9) golden_records
  and rest = List.filteri (fun i _ -> i >= 9) golden_records in
  Wal.Writer.append_list w half;
  ignore (Wal.Writer.sync w);
  Wal.Writer.append_list w rest;
  let whole = Wal.encode_records ~label:"shard-0" golden_records in
  Alcotest.(check string) "writer text = encode_records" whole (Wal.Writer.text w);
  ignore (Wal.Writer.sync w);
  Alcotest.(check string) "synced text = encode_records" whole
    (Wal.Writer.synced_text w)

let test_golden_checkpoint () =
  let file ~ts_ordered ?label () =
    Checkpoint.encode (Checkpoint.capture ~ts_ordered ?label golden_records)
  in
  Alcotest.(check string)
    "commit-order checkpoint file" golden_ckpt_commit_order
    (file ~ts_ordered:false ~label:"shard-0" ());
  Alcotest.(check string)
    "timestamp-order checkpoint file" golden_ckpt_ts_order
    (file ~ts_ordered:true ());
  match Checkpoint.decode golden_ckpt_commit_order with
  | Error m -> Alcotest.fail m
  | Ok c ->
    check_int "covered" 17 (Checkpoint.covered c);
    Alcotest.(check (list string))
      "captured, in serialization order" [ "a"; "r"; "b" ]
      (Checkpoint.activity_names c);
    check_int "txn count" 3 (Checkpoint.txn_count c);
    check_int "in doubt" 1 (List.length (Checkpoint.in_doubt c))

let suite =
  [
    Alcotest.test_case "event forms" `Quick test_event_forms;
    Alcotest.test_case "read-only naming convention" `Quick
      test_read_only_convention;
    Alcotest.test_case "whitespace" `Quick test_whitespace;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "negative and unit values" `Quick
      test_negative_and_multiarg_values;
    Alcotest.test_case "history round trip" `Quick test_history_round_trip;
    Alcotest.test_case "comments and line numbers" `Quick
      test_history_comments_and_errors;
    QCheck_alcotest.to_alcotest writer_matches_reference;
    QCheck_alcotest.to_alcotest parse_after_print;
    Alcotest.test_case "golden WAL text" `Quick test_golden_wal;
    Alcotest.test_case "golden checkpoint files" `Quick test_golden_checkpoint;
  ]

open Weihl_event

let magic = "weihl-ckpt 1"

type t = {
  covered : int;
  label : string option;
  records : Wal.record list;
      (* captured transactions' events in serialization order, then one
         Prepared control per in-doubt transaction at the snapshot *)
  names : string list;
      (* the captured (committed) activities, in serialization order *)
}

let covered t = t.covered
let label t = t.label
let records t = t.records

let in_doubt t =
  List.filter_map
    (function
      | Wal.Control (Wal.Prepared { gid; activity }) -> Some (gid, activity)
      | _ -> None)
    t.records

let txn_count t = List.length t.names
let activity_names t = t.names

(* The activities with a commit event among [records], in order of
   their first commit. *)
let committed_names records =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc r ->
      match r with
      | Wal.Event (Event.Commit (a, _, _))
        when not (Hashtbl.mem seen (Activity.name a)) ->
        Hashtbl.add seen (Activity.name a) ();
        Activity.name a :: acc
      | _ -> acc)
    [] records
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Capture *)

(* What capture needs to know of one activity, gathered in one pass
   over the record stream. *)
type txn = {
  mutable ts : Timestamp.t option;  (* the first timestamp its events carry *)
  mutable commit_pos : int;  (* event index of its first commit; -1: none *)
  mutable aborted : bool;
  mutable events : Event.t list;  (* newest first *)
}

let capture ~ts_ordered ?label records =
  let txns = Hashtbl.create 64 in
  let txn a =
    let name = Activity.name a in
    match Hashtbl.find_opt txns name with
    | Some x -> x
    | None ->
      let x = { ts = None; commit_pos = -1; aborted = false; events = [] } in
      Hashtbl.add txns name x;
      x
  in
  (* Attribute control records to transactions: Prepared carries the
     activity, Decided only the gid. *)
  let prep_act = Hashtbl.create 8 and decided = Hashtbl.create 8 in
  let n_events = ref 0 in
  List.iter
    (function
      | Wal.Event e ->
        let x = txn (Event.activity e) in
        x.events <- e :: x.events;
        (if x.ts = None then x.ts <- Event.timestamp e);
        (match e with
        | Event.Commit _ when x.commit_pos < 0 -> x.commit_pos <- !n_events
        | Event.Abort _ -> x.aborted <- true
        | _ -> ());
        incr n_events
      | Wal.Control (Wal.Prepared { gid; activity }) ->
        if not (Hashtbl.mem prep_act gid) then Hashtbl.add prep_act gid activity
      | Wal.Control (Wal.Decided { gid; _ }) -> Hashtbl.replace decided gid ()
      | Wal.Control (Wal.Checkpointed _) -> ())
    records;
  let committed x = x.commit_pos >= 0 in
  (* The timestamp frontier: the smallest timestamp a live (active or
     prepared) transaction has already drawn.  Committed transactions
     below it precede every live and every future transaction in
     timestamp order — all timestamps come from one monotone clock, so
     anything stamped later exceeds every timestamp drawn so far. *)
  let frontier =
    if not ts_ordered then None
    else
      Hashtbl.fold
        (fun _ x acc ->
          match x.ts with
          | Some ts when (not (committed x)) && not x.aborted -> (
            match acc with
            | Some m when Timestamp.compare m ts <= 0 -> acc
            | _ -> Some ts)
          | _ -> acc)
        txns None
  in
  let eligible x =
    committed x
    && ((not ts_ordered)
       ||
       match x.ts with
       | None -> false (* unstamped: committed_in_order would drop it *)
       | Some ts -> (
         match frontier with
         | None -> true
         | Some f -> Timestamp.compare ts f < 0))
  in
  let lookup a = Hashtbl.find_opt txns (Activity.name a) in
  (* The redo point: everything recovery still needs lives at
     [>= covered].  Aborted transactions are discarded by replay, so
     their records do not hold the point back; old Checkpointed markers
     belong to no transaction. *)
  let holds_back a =
    match lookup a with
    | Some x -> (not (eligible x)) && not x.aborted
    | None -> true
  in
  let rec redo_point seq = function
    | [] -> seq
    | r :: rest -> (
      let owner =
        match r with
        | Wal.Event e -> Some (Event.activity e)
        | Wal.Control (Wal.Prepared { activity; _ }) -> Some activity
        | Wal.Control (Wal.Decided { gid; _ }) -> Hashtbl.find_opt prep_act gid
        | Wal.Control (Wal.Checkpointed _) -> None
      in
      match owner with
      | Some a when holds_back a -> seq
      | _ -> redo_point (seq + 1) rest)
  in
  (* Captured transactions in serialization order.  Commit position
     orders them correctly for both recovery orders: it is the
     serialization order under commit-order recovery, and replay
     re-sorts by the embedded timestamps under timestamp order. *)
  let captured =
    Hashtbl.fold
      (fun name x acc -> if eligible x then (x.commit_pos, name, x) :: acc else acc)
      txns []
    |> List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j)
  in
  let blocks =
    List.concat_map
      (fun (_, _, x) -> List.rev_map (fun e -> Wal.Event e) x.events)
      captured
  in
  let in_doubt =
    Hashtbl.fold
      (fun gid a acc ->
        let resolved =
          match lookup a with
          | Some x -> committed x || x.aborted
          | None -> false
        in
        if Hashtbl.mem decided gid || resolved then acc else (gid, a) :: acc)
      prep_act []
    |> List.sort (fun (g, _) (g', _) -> Int.compare g g')
    |> List.map (fun (gid, activity) ->
           Wal.Control (Wal.Prepared { gid; activity }))
  in
  {
    covered = redo_point 0 records;
    label;
    records = blocks @ in_doubt;
    names = List.map (fun (_, name, _) -> name) captured;
  }

(* ------------------------------------------------------------------ *)
(* The durable file *)

let digest = Wal.crc32

let encode t =
  let header =
    match t.label with
    | None -> Printf.sprintf "%s @%d" magic t.covered
    | Some l ->
      if String.contains l '\n' then
        invalid_arg "Checkpoint.encode: label contains a newline";
      Printf.sprintf "%s @%d %s" magic t.covered l
  in
  header ^ "\n" ^ Wal.encode_records t.records

let decode text =
  match String.index_opt text '\n' with
  | None -> Error "cut short: no header line"
  | Some nl -> (
    let header = String.sub text 0 nl in
    let body = String.sub text (nl + 1) (String.length text - nl - 1) in
    match String.split_on_char ' ' header with
    | "weihl-ckpt" :: "1" :: at :: label_toks
      when String.length at > 1 && at.[0] = '@' -> (
      match int_of_string_opt (String.sub at 1 (String.length at - 1)) with
      | Some covered when covered >= 0 -> (
        let label =
          match label_toks with
          | [] -> None
          | ts -> Some (String.concat " " ts)
        in
        match Wal.decode_records body with
        | Error e -> Error (Fmt.str "damaged payload: %a" Wal.pp_error e)
        | Ok (_, Wal.Torn n) ->
          Error (Fmt.str "torn payload: %d record(s) missing" n)
        | Ok (records, Wal.Intact) ->
          Ok { covered; label; records; names = committed_names records })
      | _ -> Error "bad covered sequence number")
    | _ -> Error "bad or missing header")

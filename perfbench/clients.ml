(* The closed-loop client scheduler of the two single-domain workloads.

   [clients] logical clients share one thread.  They take turns in a
   fixed order; on its turn a client performs exactly one call — begin,
   one operation, or commit — so scripts interleave and contend for
   locks the way concurrent clients would.  A client starts its next
   script only after the previous one committed (closed loop).  A
   blocked operation is retried on the client's next turn; a cycle in
   the merged waits-for graph aborts its youngest transaction, whose
   client restarts the script.  A script's latency runs from its first
   [begin_txn] to the acknowledged commit, restarts included. *)

open Weihl_event
open Common
module Tier = Weihl_replica.Tier

type client = {
  cid : int;
  mutable script : script option;
  mutable sid : int;  (** 1-based script number: the spans' txn id *)
  mutable pos : int;  (** next step of the script *)
  mutable gtxn : Gtxn.t option;
  mutable values : (Object_id.t * Operation.t * Value.t) list;  (** audit answers, newest first *)
  mutable start : float;
  mutable root : int;
  mutable blocked : int;
}

type env = {
  group : Group.t;
  accts : Object_id.t array;
  scripts : script array;
  tally : tally;
  tier : Tier.t option;  (** audits go through [Tier.read] when present *)
  after_commit : Gtxn.t -> unit;
  mutable next : int;  (** next script to hand out *)
  mutable reads : (string * int * (Object_id.t * Operation.t * Value.t) list) list;
      (** every audit answer with its timestamp, for the as-of gate *)
  mutable read_waits : int;  (** [Tier.read] pump rounds spent waiting *)
  mutable read_lag : int list;  (** replica lag sampled before each read *)
}

let max_blocked = 100_000

let finish env c ~read =
  let lat = Clock.now () -. c.start in
  let t = env.tally in
  if read then t.read_lat <- lat :: t.read_lat else t.commit_lat <- lat :: t.commit_lat;
  Span.close_root ~txn:c.sid ~tid:c.cid ~id:c.root "client.script" c.start;
  c.script <- None;
  c.gtxn <- None

let drop_txn c =
  c.gtxn <- None;
  c.pos <- 0;
  c.values <- [];
  c.blocked <- 0

let give_up env c g =
  if Gtxn.is_active g then Group.abort ~reason:"gave up" env.group g;
  drop_txn c;
  env.tally.failed <- env.tally.failed + 1;
  Span.close_root ~txn:c.sid ~tid:c.cid ~id:c.root "client.script" c.start;
  c.script <- None

let call c name f = Span.call ~parent:c.root ~txn:c.sid ~tid:c.cid name f

let break_deadlock env c =
  match call c "group.find_deadlock" (fun () -> Group.find_deadlock env.group) with
  | None -> ()
  | Some cycle ->
    let v = Group.victim cycle in
    call c "group.abort" (fun () -> Group.abort ~reason:"deadlock" env.group v);
    env.tally.victims <- env.tally.victims + 1

let commit env c g ~read =
  let outcome =
    Span.call_named ~parent:c.root ~txn:c.sid ~tid:c.cid
      (function
        | Group.Fast -> "group.commit_fast" | Group.Distributed _ -> "group.commit_2pc")
      (fun () -> Group.commit env.group g)
  in
  match Gtxn.status g with
  | Gtxn.Committed ->
    let t = env.tally in
    t.commits <- t.commits + 1;
    if not read then t.update_commits <- t.update_commits + 1;
    (match outcome with
    | Group.Distributed _ -> t.tpc_commits <- t.tpc_commits + 1
    | Group.Fast -> ());
    if read then begin
      let ts = match Gtxn.init_ts g with Some ts -> Timestamp.to_int ts | None -> -1 in
      env.reads <- ("primary audit", ts, List.rev c.values) :: env.reads
    end;
    finish env c ~read;
    env.after_commit g
  | _ ->
    env.tally.restarts <- env.tally.restarts + 1;
    drop_txn c

let tier_read env c tier =
  let t = env.tally in
  Clock.outside (fun () ->
      let r = Tier.replica_count tier in
      let lag = ref 0 in
      for i = 0 to r - 1 do
        lag := !lag + Tier.lag_records tier ~replica:i
      done;
      env.read_lag <- (!lag / r) :: env.read_lag);
  t.attempts <- t.attempts + 1;
  match call c "tier.read" (fun () -> Tier.read tier (audit_steps env.accts)) with
  | Ok o ->
    t.commits <- t.commits + 1;
    env.read_waits <- env.read_waits + o.Tier.waited;
    let what =
      match o.Tier.serve with
      | Tier.Served_replica i -> Printf.sprintf "replica %d read" i
      | Tier.Served_primary -> "primary read"
    in
    env.reads <- (what, o.Tier.read_ts, o.Tier.values) :: env.reads;
    finish env c ~read:true
  | Error msg ->
    error t ("tier read: " ^ msg);
    t.failed <- t.failed + 1;
    Span.close_root ~txn:c.sid ~tid:c.cid ~id:c.root "client.script" c.start;
    c.script <- None

(* One turn of client [c]. *)
let step env c =
  match c.script with
  | None ->
    if env.next < Array.length env.scripts then begin
      c.script <- Some env.scripts.(env.next);
      env.next <- env.next + 1;
      c.sid <- env.next;
      env.tally.submitted <- env.tally.submitted + 1;
      c.start <- Clock.now ();
      c.root <- Span.open_root ();
      drop_txn c
    end
  | Some script -> (
    (* a crash or a deadlock abort took the transaction away *)
    (match c.gtxn with
    | Some g when not (Gtxn.is_active g) ->
      env.tally.restarts <- env.tally.restarts + 1;
      drop_txn c
    | _ -> ());
    match (script, env.tier) with
    | Audit, Some tier -> tier_read env c tier
    | _ -> (
      let read = script = Audit in
      match c.gtxn with
      | None ->
        (* the WAL notation reads an activity's kind from its initial *)
        let name = Printf.sprintf "%c%d_%d" (if read then 'r' else 'u') c.sid env.tally.attempts in
        let a = if read then Activity.read_only name else Activity.update name in
        let g = call c "group.begin_txn" (fun () -> Group.begin_txn env.group a) in
        env.tally.attempts <- env.tally.attempts + 1;
        c.gtxn <- Some g
      | Some g -> (
        let op =
          match script with
          | Transfer { src; amount; _ } when c.pos = 0 -> Some (src, Bank.withdraw amount)
          | Transfer { dst; amount; _ } when c.pos = 1 -> Some (dst, Bank.deposit amount)
          | Transfer _ -> None
          | Audit when c.pos < Array.length env.accts ->
            Some (env.accts.(c.pos), Bank.balance)
          | Audit -> None
        in
        match op with
        | None -> commit env c g ~read
        | Some (x, op) -> (
          let name = if read then "group.invoke_readonly" else "group.invoke_update" in
          match call c name (fun () -> Group.invoke env.group g x op) with
          | Group.Granted v ->
            c.blocked <- 0;
            if read then c.values <- (x, op, v) :: c.values;
            (* a refused withdrawal ends the transfer without a deposit *)
            c.pos <-
              (if (not read) && c.pos = 0 && not (Value.equal v Value.ok) then 2
               else c.pos + 1)
          | Group.Wait _ ->
            env.tally.waits <- env.tally.waits + 1;
            c.blocked <- c.blocked + 1;
            if c.blocked > max_blocked then begin
              error env.tally "a client stayed blocked past the retry budget";
              give_up env c g
            end
            else break_deadlock env c
          | Group.Refused why ->
            error env.tally ("operation refused: " ^ why);
            give_up env c g))))

(* Run every script to completion with [clients] logical clients. *)
let run env ~clients =
  let cs =
    Array.init clients (fun cid ->
        {
          cid;
          script = None;
          sid = 0;
          pos = 0;
          gtxn = None;
          values = [];
          start = 0.;
          root = 0;
          blocked = 0;
        })
  in
  let busy () =
    env.next < Array.length env.scripts || Array.exists (fun c -> c.script <> None) cs
  in
  while busy () do
    Array.iter (step env) cs
  done

(* escrow-batch: eight shards of escrow accounts (data-dependent
   dynamic atomicity, commit-order policy), driven through the batched
   API by an in-flight window of transactions on two worker domains,
   with group commit and no simulated sync latency.  The per-operation
   concurrency-control work is small and flat, so the domain pool
   ([Exec]/[Mailbox]), batched 2PC and the group-commit WAL path carry
   the cost.  Write-only: every script is a transfer.

   Each loop round gathers the next operation of every running
   transaction into one [invoke_batch], breaks any cross-shard
   deadlock, then commits every finished transaction with one
   [commit_batch].  A transaction's latency runs from its [begin_txn]
   to the end of the [commit_batch] that acknowledged it. *)

open Weihl_event
open Common
module Sm = Weihl_obs.Shard_metrics

let shards = 8
let domains = 2
let n_accounts = 256
let window = 64
let scripts_per_round = 8000
let opening_balance = 1_000_000
let max_waits = 10_000

type job = {
  sid : int;
  src : Object_id.t;
  dst : Object_id.t;
  amount : int;
  mutable txn : Gtxn.t;
  mutable pos : int;  (** 0 withdraw, 1 deposit, 2 ready to commit *)
  mutable waits : int;
  start : float;
  root : int;
}

let setup ~seed =
  let accts = accounts n_accounts in
  let proto = protocol "escrow" accts in
  let metrics = Sm.create ~shards () in
  let group =
    Group.create ~policy:`None_ ~metrics ~seed ~domains ~group_commit:true
      ~sync_cost:ignore ~shards ()
  in
  Array.iter (fun x -> Group.add_object group x proto.Fh.make_object) accts;
  let seed_txn = Group.begin_txn group (Activity.update "useed") in
  ignore
    (Group.invoke_batch group
       (Array.to_list
          (Array.map (fun x -> (seed_txn, x, Bank.deposit opening_balance)) accts)));
  Group.commit_batch group [ seed_txn ];
  let scripts =
    generate ~seed ~n:scripts_per_round ~audit_share:0. ~pair:(uniform_pair accts)
  in
  let t = tally () in
  if Gtxn.status seed_txn <> Gtxn.Committed then error t "seeding did not commit";
  let by_gid : (int, job) Hashtbl.t = Hashtbl.create 128 in
  let begin_txn sid root =
    let a = Activity.update (Printf.sprintf "u%d_%d" sid t.attempts) in
    t.attempts <- t.attempts + 1;
    Span.call ~parent:root ~txn:sid "group.begin_txn" (fun () -> Group.begin_txn group a)
  in
  let restart j =
    Hashtbl.remove by_gid (Gtxn.gid j.txn);
    t.restarts <- t.restarts + 1;
    j.txn <- begin_txn j.sid j.root;
    j.pos <- 0;
    j.waits <- 0;
    Hashtbl.replace by_gid (Gtxn.gid j.txn) j
  in
  let run ~detail =
    let next = ref 0 and live = ref [] and waves = ref 0 in
    let alloc0 = gc_words () and majors0 = gc_majors () in
    let tpc0 = Group.tpc_rounds group in
    let t0 = Clock.now () in
    while !next < Array.length scripts || !live <> [] do
      (* refill the window in script order *)
      let fresh = ref [] in
      while List.length !live + List.length !fresh < window && !next < Array.length scripts do
        (match scripts.(!next) with
        | Transfer { src; dst; amount } ->
          let sid = !next + 1 and start = Clock.now () and root = Span.open_root () in
          let j =
            { sid; src; dst; amount; txn = begin_txn sid root; pos = 0; waits = 0; start; root }
          in
          t.submitted <- t.submitted + 1;
          Hashtbl.replace by_gid (Gtxn.gid j.txn) j;
          fresh := j :: !fresh
        | Audit -> ());
        incr next
      done;
      live := !live @ List.rev !fresh;
      let entries =
        List.filter_map
          (fun j ->
            match j.pos with
            | 0 -> Some (j, (j.txn, j.src, Bank.withdraw j.amount))
            | 1 -> Some (j, (j.txn, j.dst, Bank.deposit j.amount))
            | _ -> None)
          !live
      in
      let blocked = ref false in
      if entries <> [] then begin
        incr waves;
        let results =
          Span.call "group.invoke_batch" (fun () ->
              Group.invoke_batch group (List.map snd entries))
        in
        List.iter2
          (fun (j, _) r ->
            match r with
            | Group.Granted v ->
              j.pos <- (if j.pos = 0 && not (Value.equal v Value.ok) then 2 else j.pos + 1)
            | Group.Wait _ ->
              blocked := true;
              t.waits <- t.waits + 1;
              j.waits <- j.waits + 1;
              if j.waits > max_waits then begin
                error t "a transaction stayed blocked past the retry budget";
                Group.abort ~reason:"starved" group j.txn;
                restart j
              end
            | Group.Refused why ->
              error t ("operation refused: " ^ why);
              if Gtxn.is_active j.txn then Group.abort ~reason:"refused" group j.txn;
              restart j)
          entries results
      end;
      if !blocked then begin
        let rec break () =
          match Span.call "group.find_deadlock" (fun () -> Group.find_deadlock group) with
          | None -> ()
          | Some cycle ->
            let v = Group.victim cycle in
            Span.call "group.abort" (fun () -> Group.abort ~reason:"deadlock" group v);
            t.victims <- t.victims + 1;
            (match Hashtbl.find_opt by_gid (Gtxn.gid v) with Some j -> restart j | None -> ());
            break ()
        in
        break ()
      end;
      let ready = List.filter (fun j -> j.pos = 2) !live in
      if ready <> [] then begin
        let multi = List.exists (fun j -> Gtxn.fanout j.txn >= 2) ready in
        waves := !waves + if multi then 2 else 1;
        let fanouts = List.map (fun j -> Gtxn.fanout j.txn) ready in
        Span.call "group.commit_batch" (fun () ->
            Group.commit_batch group (List.map (fun j -> j.txn) ready));
        let now = Clock.now () in
        List.iter2
          (fun j fanout ->
            match Gtxn.status j.txn with
            | Gtxn.Committed ->
              t.commits <- t.commits + 1;
              t.update_commits <- t.update_commits + 1;
              if fanout >= 2 then t.tpc_commits <- t.tpc_commits + 1;
              t.commit_lat <- (now -. j.start) :: t.commit_lat;
              Hashtbl.remove by_gid (Gtxn.gid j.txn);
              Span.close_root ~txn:j.sid ~id:j.root "client.script" j.start;
              j.pos <- 3
            | _ -> restart j)
          ready fanouts
      end;
      live := List.filter (fun j -> j.pos <> 3) !live
    done;
    let timed_s = (Clock.now () -. t0) *. 1e-6 in
    Clock.end_phase ();
    let alloc = gc_words () -. alloc0 and majors = gc_majors () - majors0 in
    let layer, counts = common_layer ~detail ~tpc0 group metrics t ~alloc ~majors in
    (* Correctness gates, outside the timed phase: total balance is
       conserved, then the global-atomicity checks. *)
    let audit = Group.begin_txn group (Activity.update "uaudit") in
    let values =
      List.map2
        (fun (x, op) r ->
          match r with
          | Group.Granted v -> (x, op, v)
          | _ -> (x, op, Value.Int min_int))
        (audit_steps accts)
        (Group.invoke_batch group
           (List.map (fun (x, op) -> (audit, x, op)) (audit_steps accts)))
    in
    Group.commit_batch group [ audit ];
    check_total t ~what:"final audit" ~total:(n_accounts * opening_balance) values;
    run_checks t proto group;
    let mailbox =
      List.fold_left (fun a s -> max a (Group.mailbox_max_depth group s)) 0
        (List.init shards Fun.id)
    in
    {
      timed_s;
      tally = t;
      recovery_ms = [];
      counts = counts @ [ ("waves", !waves) ];
      layer =
        layer
        @ [
            ("exec.waves_per_commit", Stats.ratio !waves t.commits);
            ("exec.mailbox_max_depth", float_of_int mailbox);
          ];
    }
  in
  (* idle worker domains would keep the process alive: join them even
     when a round raises *)
  let teardown () = Group.shutdown group in
  { run = (fun ~detail -> Fun.protect ~finally:teardown (fun () -> run ~detail)); teardown }

(* The read-replica tier: WAL shipping over a lossy channel, snapshot
   reads behind the high-water mark, stale-read detection, failover,
   and the replica/primary equivalence property. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

let proto name = Option.get (Fault_harness.find_protocol name)

let build (p : Fault_harness.protocol) ~shards ~seed =
  let group = Shard_group.create ~policy:p.Fault_harness.policy ~seed ~shards () in
  let w = p.Fault_harness.workload () in
  List.iter
    (fun id -> Shard_group.add_object group id p.Fault_harness.make_object)
    w.Workload.objects;
  (group, w)

let tier_of ?faults ?stale ?seed (p : Fault_harness.protocol) ~replicas group =
  Replica_tier.create ?faults ?stale ?seed ~replicas
    ~make_object:p.Fault_harness.make_object group

let drive ?(clients = 4) ?(duration = 200) ?(base = 0) ?(seed = 5) group w =
  let config =
    {
      Sharded_driver.default_config with
      clients;
      duration;
      activity_base = base;
      seed;
    }
  in
  ignore (Sharded_driver.run ~config group w)

let updates_only =
  List.filter (fun (t : Replica_projection.txn) ->
      not (Activity.is_read_only t.Replica_projection.activity))

let shard_committed group s =
  Replica_projection.committed Recovery.Timestamp_order
    (History.to_list (System.history (Shard_group.system group s)))
  |> updates_only

let replica_committed tier ~replica ~shard =
  Replica_projection.committed Recovery.Timestamp_order
    (Replica_tier.replica_events tier ~replica ~shard)
  |> updates_only

let check_equiv tier group ~replicas ~shards =
  for i = 0 to replicas - 1 do
    for s = 0 to shards - 1 do
      match
        Replica_projection.diff
          (replica_committed tier ~replica:i ~shard:s)
          (shard_committed group s)
      with
      | None -> ()
      | Some msg -> Alcotest.failf "replica %d shard %d: %s" i s msg
    done
  done

(* --- shipping ------------------------------------------------------- *)

let test_ship_and_apply () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:3 ~seed:2 in
  let tier = tier_of p ~replicas:2 group in
  drive group w;
  Replica_tier.sync tier;
  for i = 0 to 1 do
    for s = 0 to 2 do
      check_int "applied = feed"
        (Replica_tier.feed_pos tier ~shard:s)
        (Replica_tier.applied_pos tier ~replica:i ~shard:s)
    done;
    check_int "no lag" 0 (Replica_tier.lag_records tier ~replica:i)
  done;
  check_equiv tier group ~replicas:2 ~shards:3;
  check_bool "segments flowed" true (Replica_tier.segments_shipped tier > 0)

let test_lossy_channel_heals () =
  let p = proto "multiversion" in
  let group, w = build p ~shards:2 ~seed:3 in
  let faults = { Msim.drop = 0.3; duplicate = 0.3; reorder = 0.4 } in
  let tier = tier_of ~faults ~seed:9 p ~replicas:3 group in
  drive group w;
  Replica_tier.sync tier;
  check_equiv tier group ~replicas:3 ~shards:2;
  check_bool "channel actually dropped" true
    (Replica_tier.channel_dropped tier > 0)

let test_damaged_segment_resyncs () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:4 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  Replica_tier.damage_next_segments tier 3;
  Replica_tier.sync tier;
  check_bool "damage detected" true (Replica_tier.damaged_segments tier >= 1);
  check_bool "resynced" true (Replica_tier.resyncs tier >= 1);
  (* The refused segments were never applied, even in part. *)
  check_equiv tier group ~replicas:2 ~shards:2

let test_lag_schedule_catches_up () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:6 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  Replica_tier.set_lag tier ~replica:1 5;
  Replica_tier.pump tier;
  check_bool "lagged replica behind" true
    (Replica_tier.lag_records tier ~replica:1
    > Replica_tier.lag_records tier ~replica:0);
  Replica_tier.sync tier;
  check_equiv tier group ~replicas:2 ~shards:2

(* --- snapshot reads ------------------------------------------------- *)

let read_all_accounts (w : Workload.t) =
  List.map (fun x -> (x, Bank_account.balance)) w.Workload.objects

(* Satellite: the stale-read regression.  A read below the replica's
   mark must bounce to the primary (or wait), never return the
   replica's early state.  This test fails if the tier ever serves the
   pre-deposit balance. *)
let test_stale_read_bounces () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:1 ~seed:7 in
  let acct = List.hd w.Workload.objects in
  let deposit n =
    let g = Shard_group.begin_txn group (Activity.update (Fmt.str "dep%d" n)) in
    (match Shard_group.invoke group g acct (Bank_account.deposit n) with
    | Shard_group.Granted _ -> ()
    | _ -> Alcotest.fail "deposit refused");
    ignore (Shard_group.commit group g)
  in
  let tier = tier_of ~stale:`Bounce p ~replicas:1 group in
  deposit 100;
  (* Nothing shipped yet: the replica has no mark, so the read must be
     answered by the primary — with the committed balance. *)
  (match Replica_tier.read ~replica:0 tier [ (acct, Bank_account.balance) ] with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    check_bool "bounced" true o.Replica_tier.bounced;
    (match o.Replica_tier.serve with
    | Replica_tier.Served_primary -> ()
    | Replica_tier.Served_replica _ ->
      Alcotest.fail "replica served below its mark");
    match o.Replica_tier.values with
    | [ (_, _, Value.Int 100) ] -> ()
    | _ -> Alcotest.fail "read missed the committed deposit");
  check_int "stale reads counted" 1 (Replica_tier.stale_bounced tier);
  (* Under the wait policy the mark catches up and the replica serves —
     again with the full committed state. *)
  deposit 50;
  let tier2 = tier_of ~stale:(`Wait 4) p ~replicas:1 group in
  match Replica_tier.read ~replica:0 tier2 [ (acct, Bank_account.balance) ] with
  | Error msg -> Alcotest.fail msg
  | Ok o -> (
    (match o.Replica_tier.serve with
    | Replica_tier.Served_replica 0 -> ()
    | _ -> Alcotest.fail "expected the replica to serve after waiting");
    check_bool "waited for the mark" true (o.Replica_tier.waited > 0);
    match o.Replica_tier.values with
    | [ (_, _, Value.Int 150) ] -> ()
    | _ -> Alcotest.fail "replica served early state")

let test_reads_round_robin_and_match_primary () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:8 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:150 group w;
  Replica_tier.sync tier;
  let steps = read_all_accounts w in
  for _ = 1 to 4 do
    match Replica_tier.read tier steps with
    | Error msg -> Alcotest.fail msg
    | Ok o ->
      check_bool "served without bouncing" false o.Replica_tier.bounced
  done;
  check_bool "both replicas served" true
    (Replica_tier.reads_at tier ~replica:0 > 0
    && Replica_tier.reads_at tier ~replica:1 > 0)

(* --- replica crash -------------------------------------------------- *)

let test_replica_crash_keeps_log_loses_mark () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:11 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  Replica_tier.sync tier;
  let pos = Replica_tier.applied_pos tier ~replica:0 ~shard:0 in
  check_bool "mark established" true (Replica_tier.hwm tier ~replica:0 ~shard:0 >= 0);
  Replica_tier.crash_replica tier 0;
  Replica_tier.restart_replica tier 0;
  (* Durable log survives; the mark (segment metadata) does not. *)
  check_int "applied survives the crash" pos
    (Replica_tier.applied_pos tier ~replica:0 ~shard:0);
  check_int "mark reset" (-1) (Replica_tier.hwm tier ~replica:0 ~shard:0);
  (* A restarted replica is below any mark: the read either bounces or
     pumps until a fresh segment re-establishes it — never serves the
     unmarked state silently. *)
  (match Replica_tier.read ~replica:0 tier (read_all_accounts w) with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    check_bool "bounced or waited for a fresh mark" true
      (o.Replica_tier.bounced || o.Replica_tier.waited > 0));
  Replica_tier.sync tier;
  check_bool "fresh segment re-established the mark" true
    (Replica_tier.hwm tier ~replica:0 ~shard:0 >= 0);
  check_equiv tier group ~replicas:2 ~shards:2

(* --- failover ------------------------------------------------------- *)

let test_failover_zero_lost () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:12 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:150 group w;
  Replica_tier.sync tier;
  let pre = shard_committed group 0 in
  check_bool "something committed" true (pre <> []);
  Replica_tier.crash_primary tier 0;
  (match Replica_tier.fail_over tier 0 with
  | Error msg -> Alcotest.fail msg
  | Ok pr ->
    (match pr.Replica_tier.verified with
    | None -> ()
    | Some msg -> Alcotest.fail msg);
    check_int "epoch bumped" 1 pr.Replica_tier.new_epoch);
  (* The recovered incarnation holds every pre-crash commit. *)
  let after = shard_committed group 0 in
  List.iter
    (fun txn ->
      check_bool "commit survived failover" true
        (List.exists (Replica_projection.equal_txn txn) after))
    pre;
  check_int "promotion counted" 1 (Replica_tier.promotions tier);
  (* Replicas resync onto the new epoch and converge again. *)
  drive ~duration:100 ~base:50_000 ~seed:13 group w;
  Replica_tier.sync tier;
  check_equiv tier group ~replicas:2 ~shards:2

let test_fencing_refuses_old_epoch () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:14 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  (* Cut replica 1 off, fail over, heal: its queued old-epoch segments
     arrive fenced and are refused. *)
  Replica_tier.pump tier;
  Replica_tier.partition_replica tier 1;
  Replica_tier.pump tier;
  (match Replica_tier.fail_over tier 0 with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  Replica_tier.heal_replica tier 1;
  Replica_tier.sync tier;
  check_int "epoch advanced" 1 (Replica_tier.epoch tier ~shard:0);
  check_equiv tier group ~replicas:2 ~shards:2

(* --- the failover drill -------------------------------------------- *)

let test_drill_smoke () =
  let r =
    Replica_drill.run_many ~quick:true ~seeds:[ 1; 2; 3; 4; 5; 6 ] ()
  in
  check_int "all schedules ran" 6 r.Replica_drill.schedules;
  check_int "zero lost commits" 0 r.Replica_drill.r_lost;
  check_int "zero stale reads served" 0 r.Replica_drill.r_stale;
  (match Replica_drill.divergences r with
  | [] -> ()
  | d :: _ ->
    Alcotest.fail
      (Fmt.str "diverged: %a" Replica_drill.pp_schedule d));
  check_bool "promotions happened" true (r.Replica_drill.r_promotions >= 6);
  check_bool "reads flowed" true (r.Replica_drill.r_reads > 0)

(* --- the chain read path ---------------------------------------------- *)

(* A read-only activity may not change state: a deposit inside a tier
   read is an error on a replica and on a primary bounce alike, never
   a write and never a silently ignored step. *)
let test_state_changing_read_refused () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:15 in
  drive ~duration:60 group w;
  let acct = List.hd w.Workload.objects in
  let write = [ (acct, Bank_account.balance); (acct, Bank_account.deposit 5) ] in
  let tier = tier_of p ~replicas:1 group in
  Replica_tier.sync tier;
  (match Replica_tier.read ~replica:0 tier write with
  | Ok _ -> Alcotest.fail "replica served a state-changing step"
  | Error _ -> ());
  let bouncing = tier_of ~stale:`Bounce p ~replicas:1 group in
  (match Replica_tier.read ~replica:0 bouncing write with
  | Ok _ -> Alcotest.fail "primary bounce served a state-changing step"
  | Error msg ->
    check_bool "refused, not unavailable" false
      (String.starts_with ~prefix:"unavailable" msg));
  check_int "the bounce was taken" 1 (Replica_tier.stale_bounced bouncing)

(* The feed cut walks only the suffix it returns, and returns exactly
   the slice of the whole stream — with and without group commit. *)
let test_feed_cut_matches_stream () =
  List.iter
    (fun group_commit ->
      let p = proto "hybrid" in
      let group =
        Shard_group.create ~policy:p.Fault_harness.policy ~group_commit ~seed:16
          ~shards:3 ()
      in
      let w = p.Fault_harness.workload () in
      List.iter
        (fun id -> Shard_group.add_object group id p.Fault_harness.make_object)
        w.Workload.objects;
      drive ~duration:80 group w;
      (* A checkpoint syncs its shard; the traffic after it leaves an
         unsynced tail that a group-commit feed must not ship. *)
      for s = 0 to 2 do
        ignore (Shard_group.checkpoint_shard group s)
      done;
      drive ~duration:40 ~base:10_000 group w;
      for s = 0 to 2 do
        let all = Shard_group.shard_records group s in
        let n = List.length all in
        check_int "count" n (Shard_group.shard_record_count group s);
        check_bool "controls present" true
          (List.exists (function Wal.Control _ -> true | Wal.Event _ -> false) all);
        List.iter
          (fun pos ->
            List.iter
              (fun max ->
                let want =
                  List.filteri (fun i _ -> i >= pos && i < pos + max) all
                in
                let got = Shard_group.shard_records_from group s ~pos ~max in
                if got <> want then
                  Alcotest.failf "shard %d pos %d max %d: cut differs" s pos max)
              [ 1; 7; 64; n + 1 ])
          (List.sort_uniq compare [ 0; 1; n / 3; n / 2; n - 5; n - 1; n; n + 3 ]);
        let w0 = Shard_group.records_walked group in
        ignore (Shard_group.shard_records_from group s ~pos:(n - 4) ~max:64);
        let unsynced =
          if group_commit then
            History.length (System.history (Shard_group.system group s))
          else 0
        in
        check_bool "a tail cut walks the tail" true
          (Shard_group.records_walked group - w0 <= 4 + unsynced)
      done)
    [ false; true ]

(* Every read the tier serves — from a replica or bounced to the
   primary — equals the replay oracle over the log it was served from
   and, at the end, over the final primary state as of its timestamp.
   [Replica_drill.run_schedule] checks both; this drives it over seeds
   × protocols × replica-side fault plans. *)
let prop_reads_match_replay =
  QCheck2.Test.make ~name:"tier reads ≡ replay oracle (drill schedules)"
    ~count:12
    QCheck2.Gen.(triple (int_bound 10_000) bool (int_bound 3))
    (fun (seed, hybrid, fault) ->
      let p = proto (if hybrid then "hybrid" else "multiversion") in
      let plan = Shard_plan.generate ~seed in
      let replica =
        match fault with
        | 0 -> Shard_plan.Replica_lag (seed, 1 + (seed mod 5))
        | 1 -> Shard_plan.Replica_damage (seed, 1 + (seed mod 3))
        | 2 -> Shard_plan.Replica_partition seed
        | _ -> Shard_plan.Replica_crash seed
      in
      let d =
        Replica_drill.run_schedule ~quick:true { plan with Shard_plan.replica } p
      in
      (match d.Replica_drill.d_diverged with
      | None -> ()
      | Some msg -> QCheck2.Test.fail_report msg);
      d.Replica_drill.d_stale = 0 && d.Replica_drill.d_lost = 0
      && d.Replica_drill.d_reads > 0)

(* The complexity check: a read pays for the versions committed since
   the previous read, a pump for the records appended since the
   previous pump — neither for the length of the log.  Both are counted
   deterministically (specification advances, records walked), at two
   run lengths four times apart. *)
let tier_work ~duration =
  let p = proto "hybrid" in
  let group, w = build p ~shards:3 ~seed:17 in
  let tier = tier_of p ~replicas:2 group in
  let steps = read_all_accounts w in
  let pumps = ref 0 and walked = ref 0 and reads = ref 0 and advanced = ref 0 in
  let on_commit group g ~nth_multi:_ =
    let o = Shard_group.commit group g in
    let w0 = Shard_group.records_walked group in
    Replica_tier.pump tier;
    walked := !walked + Shard_group.records_walked group - w0;
    incr pumps;
    if !pumps mod 4 = 0 then begin
      let a0 = Replica_tier.chain_advances tier in
      (match Replica_tier.read tier steps with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      advanced := !advanced + Replica_tier.chain_advances tier - a0;
      incr reads
    end;
    o
  in
  let config =
    { Sharded_driver.default_config with clients = 4; duration; seed = 18 }
  in
  ignore (Sharded_driver.run ~config ~on_commit group w);
  check_bool "reads ran" true (!reads > 10);
  ( float_of_int !advanced /. float_of_int !reads,
    float_of_int !walked /. float_of_int !pumps )

let test_tier_work_flat () =
  let read_s, pump_s = tier_work ~duration:200 in
  let read_l, pump_l = tier_work ~duration:800 in
  let flat what short long =
    if long > 1.5 *. short then
      Alcotest.failf "%s work grows with the log: %.1f at 200, %.1f at 800" what
        short long
  in
  flat "per-read" read_s read_l;
  flat "per-pump" pump_s pump_l

(* --- the equivalence property --------------------------------------- *)

(* Satellite: over protocols × seeds × lag schedules, every replica's
   committed projection matches the primary's — in full at quiescence,
   and filtered as-of any timestamp t under a timestamp policy. *)
let prop_replica_equivalence =
  QCheck2.Test.make
    ~name:"replica projection ≡ primary committed as of t" ~count:20
    QCheck2.Gen.(
      triple (int_bound 500) (int_bound 11)
        (list_size (int_bound 4) (int_bound 6)))
    (fun (seed, pidx, lags) ->
      let protos = Shard_harness.protocols in
      let p = List.nth protos (pidx mod List.length protos) in
      let group, w = build p ~shards:2 ~seed:(seed + 1) in
      let tier = tier_of ~seed:(seed + 2) p ~replicas:2 group in
      drive ~duration:100 ~seed:(seed + 3) group w;
      List.iteri
        (fun i n -> Replica_tier.set_lag tier ~replica:(i mod 2) n)
        lags;
      Replica_tier.sync tier;
      let order =
        match p.Fault_harness.policy with
        | `None_ -> Recovery.Commit_order
        | `Static | `Hybrid -> Recovery.Timestamp_order
      in
      let ok = ref true in
      for i = 0 to 1 do
        for s = 0 to 1 do
          let rep =
            Replica_projection.committed order
              (Replica_tier.replica_events tier ~replica:i ~shard:s)
            |> updates_only
          in
          let prim =
            Replica_projection.committed order
              (History.to_list (System.history (Shard_group.system group s)))
            |> updates_only
          in
          if Replica_projection.diff rep prim <> None then ok := false;
          (* As-of-t agreement at a mid-run timestamp. *)
          if order = Recovery.Timestamp_order then begin
            let max_ts =
              List.fold_left
                (fun a (t : Replica_projection.txn) ->
                  match t.Replica_projection.ts with
                  | Some ts -> max a (Timestamp.to_int ts)
                  | None -> a)
                0 prim
            in
            let t = max_ts / 2 in
            if
              Replica_projection.diff
                (Replica_projection.as_of t rep)
                (Replica_projection.as_of t prim)
              <> None
            then ok := false
          end
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "ship: replicas converge on the primary" `Quick
      test_ship_and_apply;
    Alcotest.test_case "ship: drop/duplicate/reorder heal by resend" `Quick
      test_lossy_channel_heals;
    Alcotest.test_case "ship: damaged segments resync, never apply" `Quick
      test_damaged_segment_resyncs;
    Alcotest.test_case "ship: lag schedules catch up" `Quick
      test_lag_schedule_catches_up;
    Alcotest.test_case "read: stale reads bounce, never serve early state"
      `Quick test_stale_read_bounces;
    Alcotest.test_case "read: round-robin replicas serve snapshots" `Quick
      test_reads_round_robin_and_match_primary;
    Alcotest.test_case "crash: replica keeps its log, loses its mark" `Quick
      test_replica_crash_keeps_log_loses_mark;
    Alcotest.test_case "failover: promotion loses nothing" `Quick
      test_failover_zero_lost;
    Alcotest.test_case "failover: old epoch is fenced" `Quick
      test_fencing_refuses_old_epoch;
    Alcotest.test_case "drill: seeded schedules stay clean" `Quick
      test_drill_smoke;
    Alcotest.test_case "read: a state-changing step is refused" `Quick
      test_state_changing_read_refused;
    Alcotest.test_case "ship: feed cuts equal slices of the stream" `Quick
      test_feed_cut_matches_stream;
    Alcotest.test_case "complexity: per-read and per-pump work is flat" `Quick
      test_tier_work_flat;
    to_alcotest prop_reads_match_replay;
    to_alcotest prop_replica_equivalence;
  ]

(* replica-read: three hybrid shards with a two-replica log-shipping
   tier.  Half the scripts are cross-shard transfers committed through
   per-transaction 2PC ([Group.commit] over [Tpc]/[Msim]) and followed
   by a [Tier.pump]; the other half are all-account audits served by
   [Tier.read] round-robin.  Same hybrid concurrency control as
   hybrid-audit, but the reads run on another layer: WAL shipping,
   replica apply and snapshot reads. *)

open Weihl_event
open Common
module Tier = Weihl_replica.Tier
module Sm = Weihl_obs.Shard_metrics

let shards = 3
let replicas = 2
let clients = 4
let n_accounts = 24
let scripts_per_round = 400
let audit_share = 0.5
let opening_balance = 1000

let is_update (txn : Projection.txn) = not (Activity.is_read_only txn.Projection.activity)

let shard_committed group s =
  Projection.committed Weihl_cc.Recovery.Timestamp_order
    (History.to_list (Weihl_cc.System.history (Group.system group s)))
  |> List.filter is_update

(* A transfer between accounts on two different shards. *)
let cross_pair group accts rng =
  let n = Array.length accts in
  let src = accts.(Random.State.int rng n) in
  let others =
    List.filter
      (fun x -> Group.shard_of group x <> Group.shard_of group src)
      (Array.to_list accts)
    |> Array.of_list
  in
  (src, others.(Random.State.int rng (Array.length others)))

let setup ~seed =
  let accts = accounts n_accounts in
  let proto = protocol "hybrid" accts in
  let metrics = Sm.create ~replicas ~shards () in
  let group = Group.create ~policy:`Hybrid ~metrics ~seed ~shards () in
  Array.iter (fun x -> Group.add_object group x proto.Fh.make_object) accts;
  let tier = Tier.create ~seed ~metrics ~replicas ~make_object:proto.Fh.make_object group in
  seed_balances group accts opening_balance;
  Tier.sync tier;
  let scripts =
    generate ~seed ~n:scripts_per_round ~audit_share ~pair:(cross_pair group accts)
  in
  let t = tally () in
  let env =
    {
      Clients.group;
      accts;
      scripts;
      tally = t;
      tier = Some tier;
      after_commit = (fun _ -> Span.call "tier.pump" (fun () -> Tier.pump tier));
      next = 0;
      reads = [];
      read_waits = 0;
      read_lag = [];
    }
  in
  let run ~detail =
    let segments0 = Tier.segments_shipped tier in
    let alloc0 = gc_words () and majors0 = gc_majors () in
    let tpc0 = Group.tpc_rounds group in
    let t0 = Clock.now () in
    Clients.run env ~clients;
    let timed_s = (Clock.now () -. t0) *. 1e-6 in
    Clock.end_phase ();
    let alloc = gc_words () -. alloc0 and majors = gc_majors () - majors0 in
    let segments = Tier.segments_shipped tier - segments0 in
    let layer, counts = common_layer ~detail ~tpc0 group metrics t ~alloc ~majors in
    (* Correctness gates, outside the timed phase. *)
    let total = n_accounts * opening_balance in
    List.iter (fun (what, _, values) -> check_total t ~what ~total values) env.reads;
    check_as_of t group env.reads;
    run_checks t proto group;
    Tier.sync tier;
    for i = 0 to replicas - 1 do
      for s = 0 to shards - 1 do
        let rep =
          Projection.committed Weihl_cc.Recovery.Timestamp_order
            (Tier.replica_events tier ~replica:i ~shard:s)
          |> List.filter is_update
        in
        match Projection.diff rep (shard_committed group s) with
        | None -> ()
        | Some msg -> error t (Printf.sprintf "replica %d diverges from shard %d: %s" i s msg)
      done
    done;
    let reads = List.length env.reads in
    let served =
      List.fold_left (fun a i -> a + Tier.reads_at tier ~replica:i) 0
        (List.init replicas Fun.id)
    in
    Group.shutdown group;
    {
      timed_s;
      tally = t;
      recovery_ms = [];
      counts = counts @ [ ("segments", segments); ("replica_reads", served) ];
      layer =
        layer
        @ [
            ("replica.lag_records", Stats.mean (List.map float_of_int env.read_lag));
            ("replica.segments_per_commit", Stats.ratio segments t.update_commits);
            ("replica.served_share", Stats.ratio served reads);
            ("replica.waited_rounds_per_read", Stats.ratio env.read_waits reads);
          ];
    }
  in
  { run; teardown = (fun () -> Group.shutdown group) }

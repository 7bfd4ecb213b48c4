(* What the three workloads share: banking scripts generated from the
   seed, the per-round tally, the result record, and the correctness
   gates that run outside the timed phase. *)

open Weihl_event
module Cc = Weihl_cc
module Group = Weihl_shard.Group
module Gtxn = Weihl_shard.Gtxn
module Harness = Weihl_shard.Shard_harness
module Fh = Weihl_fault.Harness
module Projection = Weihl_replica.Projection
module Bank = Weihl_adt.Bank_account

(* ------------------------------------------------------------------ *)
(* Scripts *)

type script =
  | Transfer of { src : Object_id.t; dst : Object_id.t; amount : int }
      (** withdraw from [src]; only if that answers ok, deposit into [dst] *)
  | Audit  (** read-only: the balance of every account *)

let accounts n = Array.init n (fun i -> Object_id.v (Printf.sprintf "acct%d" i))

(* [n] scripts, [audit_share] of them audits; [pair] draws a transfer's
   two distinct accounts.  Only the seed decides the stream. *)
let generate ~seed ~n ~audit_share ~pair =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      if Random.State.float rng 1.0 < audit_share then Audit
      else
        let src, dst = pair rng in
        Transfer { src; dst; amount = 1 + Random.State.int rng 50 })

let uniform_pair accts rng =
  let n = Array.length accts in
  let a = Random.State.int rng n in
  let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
  (accts.(a), accts.(b))

let audit_steps accts = Array.to_list (Array.map (fun x -> (x, Bank.balance)) accts)

(* ------------------------------------------------------------------ *)
(* Per-round bookkeeping *)

type tally = {
  mutable submitted : int;  (** scripts started *)
  mutable commits : int;  (** update + read-only commits *)
  mutable update_commits : int;
  mutable tpc_commits : int;  (** commits that ran a 2PC round *)
  mutable attempts : int;  (** transactions begun, restarts included *)
  mutable waits : int;
  mutable restarts : int;
  mutable victims : int;  (** deadlock victims aborted *)
  mutable failed : int;
  mutable commit_lat : float list;  (** µs, update scripts *)
  mutable read_lat : float list;  (** µs, read-only scripts *)
  mutable errors : string list;  (** correctness violations *)
}

let tally () =
  {
    submitted = 0;
    commits = 0;
    update_commits = 0;
    tpc_commits = 0;
    attempts = 0;
    waits = 0;
    restarts = 0;
    victims = 0;
    failed = 0;
    commit_lat = [];
    read_lat = [];
    errors = [];
  }

let error t msg = t.errors <- msg :: t.errors

type round = {
  timed_s : float;
  tally : tally;
  recovery_ms : float list;  (** crash + recover wall time per cycle *)
  counts : (string * int) list;
      (** deterministic work counts: a function of the seed alone *)
  layer : (string * float) list;  (** per-layer values from counters *)
}

(* A workload set up from a seed: [run] performs the timed phase and
   the gates once — with [detail], also the counters too costly to take
   every round; [teardown] releases what [setup] acquired without
   running (worker domains). *)
type instance = { run : detail:bool -> round; teardown : unit -> unit }

(* Allocation and collections over the timed phase. *)
let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

(* Counters every workload reports once its timed phase is over
   ([tpc0]: the group's 2PC rounds when the timed phase began).  The
   WAL's size needs [durable_shard] to encode every shard's log — a
   large share of an escrow-batch round's gates — so it is taken only
   with [detail]. *)
let common_layer ~detail ~tpc0 group metrics t ~alloc ~majors =
  let shards = List.init (Group.shard_count group) Fun.id in
  let live = List.filter (fun s -> not (Group.shard_crashed group s)) shards in
  let wal_bytes () =
    List.fold_left (fun a s -> a + String.length (Group.durable_shard group s)) 0 live
  in
  let wal_bytes = if detail then Some (wal_bytes ()) else None in
  let opt name = function Some v -> [ (name, v) ] | None -> [] in
  let events =
    List.fold_left
      (fun a s -> a + History.length (Cc.System.history (Group.system group s)))
      0 live
  in
  let module Sm = Weihl_obs.Shard_metrics in
  let batch = Weihl_obs.Metrics.Histogram.mean (Sm.group_commit_batch metrics) in
  let c = t.commits and tpc = Group.tpc_rounds group - tpc0 in
  ( [
      ("cc.waits_per_commit", Stats.ratio t.waits c);
      ("cc.restarts_per_commit", Stats.ratio t.restarts c);
      ("cc.commit_yield", Stats.ratio c t.attempts);
      ("tpc.rounds_per_commit", Stats.ratio tpc t.update_commits);
      ("tpc.share_2pc", Stats.ratio t.tpc_commits t.update_commits);
      ("wal.syncs_per_commit", Stats.ratio (Sm.wal_sync_count metrics) c);
      ("wal.sync_batch_mean", if Float.is_nan batch then 0. else batch);
      ("history.events_per_commit", Stats.ratio events c);
      ("gc.alloc_words_per_commit", if c = 0 then 0. else alloc /. float_of_int c);
      ("gc.major_collections", float_of_int majors);
    ]
    @ opt "wal.bytes_per_commit" (Option.map (fun b -> Stats.ratio b c) wal_bytes),
    [
      ("commits", c);
      ("attempts", t.attempts);
      ("waits", t.waits);
      ("restarts", t.restarts);
      ("deadlock_victims", t.victims);
      ("tpc_rounds", tpc);
    ]
    @ opt "wal_bytes" wal_bytes )

(* ------------------------------------------------------------------ *)
(* Correctness gates *)

(* The fault catalog's protocol record, with the workload's own
   accounts, so [Shard_harness.run_checks]'s merged replay registers
   every object the group holds. *)
let protocol name accts =
  match Fh.find_protocol name with
  | None -> failwith ("perfbench: no protocol " ^ name ^ " in the fault catalog")
  | Some p ->
    let w = p.Fh.workload () in
    { p with Fh.workload = (fun () -> { w with objects = Array.to_list accts }) }

let run_checks t proto group =
  match Harness.run_checks proto group with
  | None -> ()
  | Some msg -> error t ("run_checks: " ^ msg)

let balance_of v = match v with Value.Int b -> b | _ -> min_int

(* Banking conservation: an audit's balances sum to the seeded total. *)
let check_total t ~what ~total values =
  let sum = List.fold_left (fun a (_, _, v) -> a + balance_of v) 0 values in
  if sum <> total then
    error t (Printf.sprintf "%s: balances sum to %d, expected %d" what sum total)

(* Every audit must equal the committed state as of its timestamp:
   the balances folded from [Projection.as_of ts] of the primary's
   committed projection. *)
let check_as_of t group reads =
  let txns =
    List.map
      (fun (activity, ts, ops) -> { Projection.activity; ts; ops })
      (Group.committed_projection_ts group)
  in
  List.iter
    (fun (what, ts, values) ->
      let bal = Hashtbl.create 64 in
      let get x = Option.value (Hashtbl.find_opt bal x) ~default:0 in
      List.iter
        (fun (txn : Projection.txn) ->
          List.iter
            (fun (x, op, v) ->
              match (Operation.name op, Operation.args op) with
              | "deposit", [ Value.Int n ] -> Hashtbl.replace bal x (get x + n)
              | "withdraw", [ Value.Int n ] when Value.equal v Value.ok ->
                Hashtbl.replace bal x (get x - n)
              | _ -> ())
            txn.Projection.ops)
        (Projection.as_of ts txns);
      let bad =
        List.exists (fun (x, _, v) -> balance_of v <> get x) values
      in
      if bad then error t (Printf.sprintf "%s at ts %d differs from the as-of state" what ts))
    reads

(* Seed every account with [amount] in one transaction. *)
let seed_balances group accts amount =
  let g = Group.begin_txn group (Activity.update "useed") in
  Array.iter
    (fun x ->
      match Group.invoke group g x (Bank.deposit amount) with
      | Group.Granted _ -> ()
      | _ -> failwith "perfbench: seeding deposit not granted")
    accts;
  ignore (Group.commit group g);
  if Gtxn.status g <> Gtxn.Committed then failwith "perfbench: seeding did not commit"

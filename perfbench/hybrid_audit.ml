(* hybrid-audit: one shard under hybrid atomicity, banking transfers
   with all-account read-only audits, on-demand checkpoints and
   crash→recover cycles at fixed points.  The version layers (read-only
   frontier folds, version append, checkpoint capture, the recovery
   prelude) do the work; 2PC, replicas and worker domains are
   bypassed. *)

open Weihl_event
open Common
module Ckpt = Weihl_cc.Checkpoint
module Recovery = Weihl_cc.Recovery
module Sm = Weihl_obs.Shard_metrics

let n_accounts = 32
let clients = 8
let scripts_per_round = 400
let audit_share = 0.15
let opening_balance = 1000
(* commits between on-demand checkpoints: eight per round, the first
   before the first crash *)
let checkpoint_every = scripts_per_round / 8
let crash_cycles = 5  (* evenly spaced through the round *)

let same_projection a b =
  let op_eq (x, o, v) (x', o', v') =
    Object_id.equal x x' && Operation.equal o o' && Value.equal v v'
  in
  List.length a = List.length b
  && List.for_all2
       (fun (act, ops) (act', ops') ->
         Activity.equal act act'
         && List.length ops = List.length ops'
         && List.for_all2 op_eq ops ops')
       a b

let setup ~seed =
  let accts = accounts n_accounts in
  let proto = protocol "hybrid" accts in
  let metrics = Sm.create ~shards:1 () in
  let group = Group.create ~policy:`Hybrid ~metrics ~seed ~shards:1 () in
  Array.iter (fun x -> Group.add_object group x proto.Fh.make_object) accts;
  seed_balances group accts opening_balance;
  let scripts =
    generate ~seed ~n:scripts_per_round ~audit_share ~pair:(uniform_pair accts)
  in
  let t = tally () in
  let total = n_accounts * opening_balance in
  let seen = ref 0 in
  let spacing = scripts_per_round / (crash_cycles + 1) in
  let ckpt_bytes = ref [] and ckpt_txns = ref [] in
  let recovery_ms = ref [] and tails = ref [] and preludes = ref [] in
  let checkpoint () =
    ignore (Span.call "group.checkpoint_shard" (fun () -> Group.checkpoint_shard group 0));
    Clock.outside (fun () ->
        match Group.checkpoint_files group 0 with
        | file :: _ -> (
          ckpt_bytes := float_of_int (String.length file) :: !ckpt_bytes;
          match Ckpt.decode file with
          | Ok c -> ckpt_txns := float_of_int (Ckpt.txn_count c) :: !ckpt_txns
          | Error e -> error t ("checkpoint does not decode: " ^ e))
        | [] -> error t "checkpoint_shard left no file")
  in
  let crash_cycle () =
    let before, files =
      Clock.outside (fun () ->
          (Group.committed_projection group, Group.checkpoint_files group 0))
    in
    let t0 = Clock.now () in
    let text = Span.call "group.crash_shard" (fun () -> Group.crash_shard group 0) in
    let rep = Span.call "group.recover_shard" (fun () -> Group.recover_shard group 0 text) in
    recovery_ms := ((Clock.now () -. t0) *. 1e-3) :: !recovery_ms;
    Clock.outside (fun () ->
        match rep with
        | Error f -> error t (Fmt.str "recovery failed: %a" Recovery.pp_failure f)
        | Ok r ->
          (match r.Recovery.source with
          | Recovery.Full_replay -> error t "recovery fell back to a full replay"
          | Recovery.From_checkpoint { covered } -> (
            let used =
              List.find_map
                (fun f ->
                  match Ckpt.decode f with
                  | Ok c when Ckpt.covered c = covered -> Some c
                  | _ -> None)
                files
            in
            match used with
            | Some c ->
              tails := r.Recovery.replayed_records :: !tails;
              preludes := Ckpt.txn_count c :: !preludes
            | None -> error t "the checkpoint recovery used is not on file"));
          if not (same_projection before (Group.committed_projection group)) then
            error t "recovery lost an acknowledged commit")
  in
  let after_commit _ =
    incr seen;
    if !seen mod checkpoint_every = 0 then checkpoint ();
    if !seen mod spacing = 0 && !seen / spacing <= crash_cycles then crash_cycle ()
  in
  let env =
    {
      Clients.group;
      accts;
      scripts;
      tally = t;
      tier = None;
      after_commit;
      next = 0;
      reads = [];
      read_waits = 0;
      read_lag = [];
    }
  in
  let run ~detail =
    let alloc0 = gc_words () and majors0 = gc_majors () in
    let tpc0 = Group.tpc_rounds group in
    let t0 = Clock.now () in
    Clients.run env ~clients;
    let timed_s = (Clock.now () -. t0) *. 1e-6 in
    Clock.end_phase ();
    let alloc = gc_words () -. alloc0 and majors = gc_majors () - majors0 in
    (* Correctness gates, outside the timed phase. *)
    if List.length !recovery_ms < crash_cycles then
      error t (Printf.sprintf "only %d crash cycles ran" (List.length !recovery_ms));
    List.iter (fun (what, _, values) -> check_total t ~what ~total values) env.reads;
    check_as_of t group env.reads;
    run_checks t proto group;
    let layer, counts = common_layer ~detail ~tpc0 group metrics t ~alloc ~majors in
    let sum l = List.fold_left ( + ) 0 l in
    let mean l = match l with [] -> 0. | _ -> Stats.mean l in
    {
      timed_s;
      tally = t;
      recovery_ms = !recovery_ms;
      counts =
        counts
        @ [
            ("checkpoints", List.length !ckpt_bytes);
            ("recovery_tail_records", sum !tails);
            ("recovery_prelude_txns", sum !preludes);
          ];
      layer =
        layer
        @ [
            ("checkpoint.bytes", mean !ckpt_bytes);
            ("checkpoint.payload_txns", mean !ckpt_txns);
            ("recovery.tail_records", mean (List.map float_of_int !tails));
            ("recovery.prelude_txns", mean (List.map float_of_int !preludes));
          ];
    }
  in
  { run; teardown = ignore }

(* The wall-clock benchmark: one workload per run, end to end (untraced)
   or per layer (traced).

     dune exec --root . ./perfbench/perfbench.exe -- \
       --workload hybrid-audit --seed 1 --seconds 10 --trace 0

   A run repeats fixed-size rounds — each a fresh set-up from the seed,
   a timed closed-loop phase over the same generated scripts, then the
   correctness gates — until the timed phases add up to [--seconds].
   Human-readable lines go first; the last line of standard output is
   one JSON object with [correct], [attempted], [failed] and the
   metrics: the end-to-end set with [--trace 0], the per-layer set with
   [--trace 1].  A traced run first repeats the untraced measurement
   (for [trace.overhead] and the counters), then runs again with spans
   on, writes them as a Chrome trace, reads the file back and derives
   self times from it.  Exit status 1 when any gate failed. *)

open Common

let workloads =
  [
    ("hybrid-audit", Hybrid_audit.setup);
    ("escrow-batch", Escrow_batch.setup);
    ("replica-read", Replica_read.setup);
  ]

(* The gated end-to-end metrics: the ones every workload has. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("txn_per_s", "txn/s");
    ("commit_p50_us", "us");
    ("commit_p99_us", "us");
    ("peak_heap_mb", "MB");
  ]

(* Span families: every public call the benchmark times. *)
let families =
  [
    "group.begin_txn";
    "group.invoke_update";
    "group.invoke_readonly";
    "group.commit_fast";
    "group.commit_2pc";
    "group.abort";
    "group.find_deadlock";
    "group.invoke_batch";
    "group.commit_batch";
    "group.checkpoint_shard";
    "group.crash_shard";
    "group.recover_shard";
    "tier.pump";
    "tier.read";
  ]

(* Per-call times from the trace: reported where the workload's path
   reaches the call, as [n/a] elsewhere. *)
let call_times =
  [
    ("group.invoke_update_ns", "group.invoke_update", 1e3, "ns");
    ("group.invoke_readonly_ns", "group.invoke_readonly", 1e3, "ns");
    ("group.commit_fast_ns", "group.commit_fast", 1e3, "ns");
    ("group.commit_2pc_ns", "group.commit_2pc", 1e3, "ns");
    ("group.deadlock_check_ns", "group.find_deadlock", 1e3, "ns");
    ("group.invoke_batch_us", "group.invoke_batch", 1., "us");
    ("group.commit_batch_us", "group.commit_batch", 1., "us");
    ("checkpoint.write_ms", "group.checkpoint_shard", 1e-3, "ms");
    ("recovery.crash_ms", "group.crash_shard", 1e-3, "ms");
    ("recovery.restore_ms", "group.recover_shard", 1e-3, "ms");
    ("replica.pump_us", "tier.pump", 1., "us");
  ]

(* The per-layer metrics of the JSON line, with units.  Counts and
   shares read 0 on a workload whose path does not reach the layer. *)
let per_layer =
  [
    ("group.invoke_growth", "ratio");
    ("cc.waits_per_commit", "count");
    ("cc.restarts_per_commit", "count");
    ("cc.commit_yield", "ratio");
    ("exec.waves_per_commit", "count");
    ("exec.mailbox_max_depth", "count");
    ("tpc.rounds_per_commit", "count");
    ("tpc.share_2pc", "ratio");
    ("wal.bytes_per_commit", "bytes");
    ("wal.syncs_per_commit", "count");
    ("wal.sync_batch_mean", "count");
    ("checkpoint.write_growth", "ratio");
    ("checkpoint.bytes", "bytes");
    ("checkpoint.payload_txns", "count");
    ("recovery.tail_records", "count");
    ("recovery.prelude_txns", "count");
    ("replica.pump_growth", "ratio");
    ("replica.lag_records", "count");
    ("replica.segments_per_commit", "count");
    ("replica.served_share", "ratio");
    ("replica.waited_rounds_per_read", "count");
    ("history.events_per_commit", "count");
    ("gc.alloc_words_per_commit", "words");
    ("gc.major_collections", "count");
  ]
  @ List.map (fun f -> (f ^ ".busy_share", "ratio")) families
  @ [ ("bench.loop_share", "ratio"); ("trace.overhead", "ratio") ]

let min_rounds = 3

(* setup_s is the median of at least this many set-ups: every round's,
   plus set-ups torn down unused when the rounds were fewer. *)
let min_setups = 30

(* Rounds stop being added once this much wall time is gone, so a slow
   program still finishes well inside the run's time limit. *)
let wall_cap_s = 70.

type pass = {
  rounds : round list;
  setups : float list;  (** seconds *)
  gates : float list;  (** seconds per round spent after the timed phase *)
  slowdowns : float list;
      (** the host's {!Reference.slowdown}, sampled between rounds *)
  local : float list;
      (** per round, the median of the [reference_window] samples
          nearest to it in time *)
}

(* Round [r] of a run at seed [n] draws its inputs from seed
   [1000 n + r]: a run pools many script streams, so one seed's
   particular interleavings do not set its tail latencies, and the
   same (seed, round) always replays the same inputs. *)
let round_seed seed r = (1000 * seed) + r

let timed_setup setup ~seed =
  Gc.full_major ();
  let t0 = Clock.now () in
  let inst = setup ~seed in
  (inst, (Clock.now () -. t0) *. 1e-6)

(* The host's speed is sampled this many times in a pass, evenly over
   its timed seconds, each time before a round.  A round is set against
   the median of the [reference_window] samples nearest to it: one
   sample is a few milliseconds and now and then catches an interrupt,
   while the host's drift takes minutes. *)
let reference_samples = 40
let reference_window = 5

(* [local samples i]: the median of the [reference_window] samples
   around index [i] of [samples] (in time order). *)
let local samples i =
  let n = Array.length samples in
  let w = min n reference_window in
  let lo = max 0 (min (n - w) (i - (w / 2))) in
  Stats.median (Array.sub samples lo w)

let pass setup ~seed ~seconds ~traced =
  Span.on := traced;
  Span.reset ();
  let wall0 = Clock.raw_us () in
  let slowdowns = ref [] in
  let rec go acc timed n =
    let wall = (Clock.raw_us () -. wall0) *. 1e-6 in
    if (timed >= seconds && n >= min_rounds) || (wall > wall_cap_s && n >= 1) then
      List.rev acc
    else begin
      Span.round := n;
      let due = float_of_int (List.length !slowdowns) *. seconds /. float_of_int reference_samples in
      if timed >= due then begin
        match Reference.slowdown () with
        | Ok x -> slowdowns := x :: !slowdowns
        | Error msg -> failwith msg
      end;
      let sample = List.length !slowdowns - 1 in
      let inst, setup_s = timed_setup setup ~seed:(round_seed seed n) in
      let t0 = Clock.now () in
      let r = inst.run ~detail:(n = 0) in
      let gate_s = ((Clock.now () -. t0) *. 1e-6) -. r.timed_s in
      go ((r, setup_s, gate_s, sample) :: acc) (timed +. r.timed_s) (n + 1)
    end
  in
  let rs = go [] 0. 0 in
  Span.on := false;
  let extra =
    List.init (max 0 (min_setups - List.length rs)) (fun i ->
        let inst, s = timed_setup setup ~seed:(round_seed seed i) in
        inst.teardown ();
        s)
  in
  let samples = Array.of_list (List.rev !slowdowns) in
  {
    rounds = List.map (fun (r, _, _, _) -> r) rs;
    setups = List.map (fun (_, s, _, _) -> s) rs @ extra;
    gates = List.map (fun (_, _, g, _) -> g) rs;
    slowdowns = Array.to_list samples;
    local = List.map (fun (_, _, _, i) -> local samples i) rs;
  }

(* The pass as it would have read on the nominal host: every duration
   of a round divided by the round's local slowdown.  The set-ups torn
   down unused take the pass's median slowdown. *)
let at_reference (p : pass) =
  let scale x r =
    let d v = v /. x in
    {
      r with
      timed_s = d r.timed_s;
      recovery_ms = List.map d r.recovery_ms;
      tally =
        {
          r.tally with
          commit_lat = List.map d r.tally.commit_lat;
          read_lat = List.map d r.tally.read_lat;
        };
    }
  in
  let median = Stats.median_l p.slowdowns in
  let rec setups ss xs =
    match (ss, xs) with
    | s :: ss, x :: xs -> (s /. x) :: setups ss xs
    | ss, [] -> List.map (fun s -> s /. median) ss
    | [], _ -> []
  in
  { p with rounds = List.map2 scale p.local p.rounds; setups = setups p.setups p.local }

(* [peak_heap_mb] is the median over [heap_rounds] rounds, each run
   alone in a forked child: the largest heap {!Clock.heap_peak} saw in
   its timed phase.  In one process a round would inherit the heap of
   every round before it, because the OCaml 5.1 runtime never gives
   back heap it grew.  A child runs rounds [0 .. heap_rounds - 1] of the
   seed, which the main pass runs and checks again.  Children are forked
   before the process has spawned any domain. *)
let heap_rounds = 9

let heap_of_round setup ~seed =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let words =
      try
        let inst, _ = timed_setup setup ~seed in
        Clock.start_phase ();
        ignore (inst.run ~detail:false);
        !Clock.heap_peak
      with _ -> 0
    in
    let oc = Unix.out_channel_of_descr wr in
    output_string oc (string_of_int words);
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let words = int_of_string_opt (In_channel.input_all ic) in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match words with Some w when w > 0 -> Ok w | _ -> Error "a heap round failed"

let heaps setup ~seed =
  let rs = List.init heap_rounds (fun r -> heap_of_round setup ~seed:(round_seed seed r)) in
  ( List.filter_map Result.to_option rs,
    List.filter_map (function Error e -> Some e | Ok _ -> None) rs )

(* ------------------------------------------------------------------ *)
(* End-to-end figures of one pass *)

type figure = { name : string; value : float; unit : string; samples : string }

let sum f rounds = List.fold_left (fun a r -> a + f r) 0 rounds
let pool f rounds = Array.of_list (List.concat_map f rounds)
let timed rounds = List.fold_left (fun a r -> a +. r.timed_s) 0. rounds
let value figures name = (List.find (fun f -> f.name = name) figures).value

(* A run reports the best quartile of many short measurements:
   throughput and median latencies per round, tail latencies per block
   — consecutive rounds holding at least [block_commits] update
   latencies, and [block_reads] read latencies where the workload
   reads, so that a block's p99 (p95 for reads) has ten samples beyond
   it.  A short tail of rounds joins the last block.  The machine is
   shared: slow spells of it stretch some rounds by up to 4x, most of
   all the two-domain escrow-batch, and never shorten one.  The best
   quartile (75th percentile of throughputs, 25th of latencies) is
   unmoved by spells that cover up to three quarters of a run. *)
let block_commits = 1000
let block_reads = 200

let blocks rounds =
  let lat f b = sum (fun r -> List.length (f r.tally)) b in
  let full b =
    lat (fun t -> t.commit_lat) b >= block_commits
    && (lat (fun t -> t.read_lat) b = 0 || lat (fun t -> t.read_lat) b >= block_reads)
  in
  let rec go acc cur = function
    | r :: rs ->
      let cur = cur @ [ r ] in
      if full cur then go (cur :: acc) [] rs else go acc cur rs
    | [] -> (
      match (cur, acc) with
      | [], _ -> List.rev acc
      | _, last :: rest -> List.rev ((last @ cur) :: rest)
      | _, [] -> [ cur ])
  in
  go [] [] rounds

(* The figures of a pass: the gated end-to-end set first, then the
   printed-only ones. *)
let summarise (p : pass) ~heaps =
  let rounds = p.rounds and setups = p.setups in
  let bs = blocks rounds in
  let best q xs = Stats.percentile q (Array.of_list xs) in
  let per_block q f = best q (List.map f bs) in
  let per_round q f = best q (List.map (fun r -> f [ r ]) rounds) in
  let pct q f b = Stats.percentile q (pool (fun r -> f r.tally) b) in
  let commits = sum (fun r -> r.tally.commits) rounds in
  let n_lat f = Array.length (pool (fun r -> f r.tally) rounds) in
  let in_blocks n = Printf.sprintf "n=%d in %d blocks" n (List.length bs) in
  let in_rounds n = Printf.sprintf "n=%d in %d rounds" n (List.length rounds) in
  let fig name value unit samples = { name; value; unit; samples } in
  let clat t = t.commit_lat and rlat t = t.read_lat in
  let submitted = sum (fun r -> r.tally.submitted) rounds in
  let rec_ms = pool (fun r -> r.recovery_ms) rounds in
  let figures =
    [
      fig "setup_s" (Stats.median_l setups) "s" (Printf.sprintf "n=%d" (List.length setups));
      fig "txn_per_s"
        (per_round 75. (fun b -> float_of_int (sum (fun r -> r.tally.commits) b) /. timed b))
        "txn/s" (in_rounds commits);
      fig "commit_p50_us" (per_round 25. (pct 50. clat)) "us" (in_rounds (n_lat clat));
      fig "commit_p99_us" (per_block 25. (pct 99. clat)) "us" (in_blocks (n_lat clat));
      fig "peak_heap_mb"
        (Stats.median_l
           (List.map (fun w -> float_of_int (w * (Sys.word_size / 8)) /. 1e6) heaps))
        "MB"
        (Printf.sprintf "n=%d rounds, one process each" (List.length heaps));
    ]
    @ (if n_lat rlat = 0 then []
       else
         [
           fig "read_p50_us" (per_round 25. (pct 50. rlat)) "us" (in_rounds (n_lat rlat));
           fig "read_p95_us" (per_block 25. (pct 95. rlat)) "us" (in_blocks (n_lat rlat));
         ])
    @ [
        fig "failed_ratio"
          (Stats.ratio (sum (fun r -> r.tally.failed) rounds) submitted)
          "ratio" (Printf.sprintf "n=%d" submitted);
      ]
    @
    if Array.length rec_ms = 0 then []
    else
      [
        fig "recovery_ms" (Stats.median rec_ms) "ms"
          (Printf.sprintf "n=%d" (Array.length rec_ms));
      ]
  in
  figures

let show_counts counts =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* The determinism self-check: round 0 of a seed, set up and run twice,
   gives identical work counts, and the next seed's round 0 does not. *)
let check_determinism setup ~seed =
  let counts s = ((setup ~seed:(round_seed s 0)).run ~detail:true).counts in
  let a = counts seed and b = counts seed and c = counts (seed + 1) in
  Printf.printf "seed %d:     %s\nseed %d:     %s\nseed %d:     %s\n" seed
    (show_counts a) seed (show_counts b) (seed + 1) (show_counts c);
  let ok = a = b && a <> c in
  Printf.printf "determinism %s\n" (if ok then "ok" else "VIOLATED");
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Per-layer figures from the trace file *)

let layer_from_trace spans ~timed_us =
  let selfs = Span.self_times spans in
  let by_name name = List.filter (fun (s, _) -> s.Span.name = name) selfs in
  let busy f =
    let self = List.fold_left (fun a (_, d) -> a +. d) 0. (by_name f) in
    self /. timed_us
  in
  let busy_shares = List.map (fun f -> (f ^ ".busy_share", busy f)) families in
  let loop = 1. -. List.fold_left (fun a (_, v) -> a +. v) 0. busy_shares in
  let named names =
    List.filter (fun s -> List.mem s.Span.name names) spans
    |> List.sort (fun a b -> Float.compare a.Span.start b.Span.start)
  in
  (* median over rounds of the last-quarter / first-quarter ratio *)
  let growth names =
    let ss = named names in
    let rounds = List.sort_uniq compare (List.map (fun s -> s.Span.round) ss) in
    let gs =
      List.filter_map
        (fun r ->
          let xs =
            List.filter (fun s -> s.Span.round = r) ss
            |> List.map (fun s -> s.Span.stop -. s.Span.start)
            |> Array.of_list
          in
          let g = Stats.growth xs in
          if Float.is_nan g then None else Some g)
        rounds
    in
    match gs with [] -> 0. | _ -> Stats.median_l gs
  in
  let times =
    List.map
      (fun (metric, fam, scale, unit) ->
        let ds =
          Array.of_list (List.map (fun s -> s.Span.stop -. s.Span.start) (named [ fam ]))
        in
        (metric, Stats.median ds *. scale, unit, Array.length ds))
      call_times
  in
  ( busy_shares
    @ [
        ("bench.loop_share", loop);
        ("group.invoke_growth", growth [ "group.invoke_update"; "group.invoke_readonly" ]);
        ("checkpoint.write_growth", growth [ "group.checkpoint_shard" ]);
        ("replica.pump_growth", growth [ "tier.pump" ]);
      ],
    times )

let layer_from_counters rounds =
  match rounds with
  | [] -> []
  | r0 :: _ ->
    List.map
      (fun (name, _) ->
        (name, Stats.median_l (List.filter_map (fun r -> List.assoc_opt name r.layer) rounds)))
      r0.layer

(* ------------------------------------------------------------------ *)
(* Output *)

let num v = if Float.is_finite v then Printf.sprintf "%.15g" v else "0"

let json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

(* [figures] at the reference speed, beside [measured] as read. *)
let print_e2e name ~seed (e : pass) figures ~measured =
  Printf.printf
    "%s seed %d: %d rounds, %d scripts, %.3f s timed (per round: set-up %.4f s, gates %.3f s)\n"
    name seed (List.length e.rounds)
    (sum (fun r -> r.tally.submitted) e.rounds)
    (timed e.rounds) (Stats.median_l e.setups) (Stats.median_l e.gates);
  Printf.printf "  host slowdown: median %.3f, range %.3f-%.3f in %d samples\n"
    (Stats.median_l e.slowdowns)
    (List.fold_left Float.min infinity e.slowdowns)
    (List.fold_left Float.max 0. e.slowdowns)
    (List.length e.slowdowns);
  Printf.printf "  %-16s %14s %14s\n" "" "at reference" "measured";
  List.iter2
    (fun f m ->
      Printf.printf "  %-16s %14.4f %14.4f %-6s %s\n" f.name f.value m.value f.unit f.samples)
    figures measured;
  match e.rounds with
  | r :: _ -> Printf.printf "  counts of round 0: %s\n" (show_counts r.counts)
  | [] -> ()

(* The whole run shares one CPU: escrow-batch's coordinator and two
   worker domains would otherwise hand work between the machine's two
   virtual CPUs, and how long such a handoff takes on a shared host
   swings fourfold from one minute to the next (README.md, "One CPU"). *)
external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

let () =
  let cpu = pin_last_cpu () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_file = ref "" and determinism = ref false and reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " hybrid-audit | escrow-batch | replica-read");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " timed seconds per pass");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ( "--trace-file",
        Arg.Set_string trace_file,
        " where the traced run writes its spans (default perfbench-WORKLOAD-SEED.trace.json)" );
      ( "--check-determinism",
        Arg.Set determinism,
        " only run the determinism self-check for the workload and seed" );
      ( "--reference",
        Arg.Set reference,
        " only time the reference loop and print its microseconds (one host-speed sample)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !reference then begin
    Printf.printf "%.3f\n" (Reference.measure ());
    exit 0
  end;
  if cpu < 0 then prerr_endline "perfbench: could not pin the run to one CPU";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !determinism then check_determinism run ~seed:!seed;
  if !trace_file = "" then
    trace_file := Printf.sprintf "perfbench-%s-%d.trace.json" !workload !seed;
  let seconds = float_of_int (max 1 !seconds) in
  let heaps, heap_errors = heaps run ~seed:!seed in
  let e = pass run ~seed:!seed ~seconds ~traced:false in
  let figures = summarise (at_reference e) ~heaps in
  print_e2e !workload ~seed:!seed e figures ~measured:(summarise e ~heaps);
  let errors =
    List.sort_uniq compare (heap_errors @ List.concat_map (fun r -> r.tally.errors) e.rounds)
  in
  let attempted = sum (fun r -> r.tally.submitted) e.rounds in
  let failed = sum (fun r -> r.tally.failed) e.rounds in
  let metrics, errors =
    if !trace = 0 then (List.map (fun (m, unit) -> (m, value figures m, unit)) end_to_end, errors)
    else begin
      (* the traced pass replays the first [min_rounds] rounds, so its
         throughput compares with the same rounds untraced *)
      let traced = pass run ~seed:!seed ~seconds:0. ~traced:true in
      let timed_us = timed traced.rounds *. 1e6 in
      let tps rounds = float_of_int (sum (fun r -> r.tally.commits) rounds) /. timed rounds in
      let overhead =
        tps (List.filteri (fun i _ -> i < min_rounds) (at_reference e).rounds)
        /. tps (at_reference traced).rounds
      in
      Span.export !trace_file;
      let spans, errors =
        match Span.load !trace_file with
        | Ok spans -> (spans, errors)
        | Error msg -> ([], errors @ [ "trace file does not parse: " ^ msg ])
      in
      Span.reset ();
      let from_trace, times = layer_from_trace spans ~timed_us in
      let values =
        layer_from_counters e.rounds
        @ from_trace
        @ [ ("trace.overhead", overhead) ]
      in
      Printf.printf "per layer (%d spans in %s):\n" (List.length spans) !trace_file;
      List.iter
        (fun (m, v, unit, n) ->
          if n = 0 then Printf.printf "  %-34s %14s %-6s n=0\n" m "n/a" unit
          else Printf.printf "  %-34s %14.4f %-6s n=%d\n" m v unit n)
        times;
      let metrics =
        List.map
          (fun (m, unit) ->
            (m, Option.value (List.assoc_opt m values) ~default:0., unit))
          per_layer
      in
      List.iter (fun (m, v, unit) -> Printf.printf "  %-34s %14.4f %s\n" m v unit) metrics;
      (metrics, errors)
    end
  in
  List.iter (fun msg -> Printf.eprintf "perfbench: FAILED: %s\n" msg) errors;
  let correct = errors = [] in
  print_endline (json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

let () =
  Alcotest.run "weihl83"
    [
      ("primitives", Test_primitives.suite);
      ("history", Test_history.suite);
      ("wellformed", Test_wellformed.suite);
      ("acceptance", Test_acceptance.suite);
      ("orders", Test_orders.suite);
      ("serializability", Test_serializability.suite);
      ("atomicity (paper examples)", Test_atomicity.suite);
      ("adts", Test_adts.suite);
      ("op locking (baselines)", Test_op_locking.suite);
      ("escrow account", Test_escrow.suite);
      ("da set", Test_da_set.suite);
      ("da queue", Test_da_queue.suite);
      ("da generic (reference)", Test_da_generic.suite);
      ("da semiqueue", Test_da_semiqueue.suite);
      ("multiversion (static)", Test_multiversion.suite);
      ("hybrid", Test_hybrid.suite);
      ("version chain", Test_version_chain.suite);
      ("hybrid account (escrow updates)", Test_hybrid_account.suite);
      ("system", Test_system.suite);
      ("infrastructure", Test_infrastructure.suite);
      ("simulator", Test_sim.suite);
      ("notation", Test_notation.suite);
      ("enumeration", Test_enumerate.suite);
      ("validator", Test_validator.suite);
      ("optimality constructions", Test_optimality.suite);
      ("commutativity derivation", Test_commutativity.suite);
      ("model checking (explore)", Test_explore.suite);
      ("new adts", Test_new_adts.suite);
      ("da kv map", Test_da_kv.suite);
      ("da blind counter", Test_da_counter.suite);
      ("rw before-image recovery", Test_rw_undo.suite);
      ("two-phase commit", Test_tpc.suite);
      ("multicore runtime", Test_concurrent.suite);
      ("recovery", Test_recovery.suite);
      ("checkpointing", Test_checkpoint.suite);
      ("stats edge cases", Test_stats.suite);
      ("adt inference", Test_infer.suite);
      ("observability", Test_obs.suite);
      ("fault injection", Test_fault.suite);
      ("lint certifier", Test_lint.suite);
      ("protocol synthesis", Test_synth.suite);
      ("sharded runtime", Test_shard.suite);
      ("multicore shards", Test_mcore.suite);
    ("replica tier", Test_replica.suite);
      ("properties (qcheck)", Test_props.suite);
    ]

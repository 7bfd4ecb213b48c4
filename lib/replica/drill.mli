(** The seeded failover drill: one replica tier under traffic, faults
    and a forced promotion, checked for lost commits and stale reads.

    One schedule = one {!Weihl_fault.Shard_plan.t} applied to a
    timestamp-policy banking protocol (hybrid or multiversion — the
    tier's as-of reads need initiation timestamps) over a fresh
    group with a replica tier on top:

    + slice 1 — seeded multi-client traffic with the plan's 2PC fault
      injected at its chosen commit round, the shipping channel running
      under the plan's [ship] message faults; any shard the fault took
      down is brought back by {e promotion} ({!Tier.fail_over}), not
      plain recovery, and the blocking window is resolved from the
      decision log;
    + as-of reads through the tier between slices, every outcome
      recorded and checked at once against {!replay_read} over the log
      it was served from (the serving replica's, or the primary's on a
      bounce) — the differential check of the chain read path;
    + the plan's replica fault is staged (lag, crash, partition, or
      in-flight segment damage) and slice 2 runs under it;
    + a seeded live shard is then crashed and failed over — its
      pre-crash committed projection captured first, so lost commits
      are counted against an independent record;
    + faults are lifted, slice 3 runs clean, the tier syncs, and the
      run is judged.

    The verdict checks, in order: every promotion's zero-lost-commits
    verification, the pre-crash committed set's survival, the group's
    own global-atomicity checks ({!Weihl_shard.Shard_harness.run_checks}),
    every replica's final projection against its shard's primary, and
    every served read — replica-served and bounced to the primary alike
    — re-executed against the final as-of state: a read that ever
    returned a stale value is caught here even if nothing else
    noticed. *)

open Weihl_event
module Shard_plan = Weihl_fault.Shard_plan
module Fh = Weihl_fault.Harness

val protocols : Fh.protocol list
(** The timestamp-policy banking protocols (hybrid, multiversion). *)

val replay_read :
  Weihl_shard.Group.t ->
  make_object:(Weihl_cc.Event_log.t -> Object_id.t -> Weihl_cc.Atomic_object.t) ->
  events:Event.t list ->
  ts:int ->
  (Object_id.t * Operation.t) list ->
  ((Object_id.t * Operation.t * Value.t) list, string) result
(** The replay oracle for a read at [ts]: a fresh system holding every
    object of the group, rebuilt by {!Weihl_cc.Recovery.replay} from
    the committed updates of [events] with timestamp [<= ts], then the
    read run on it as a read-only transaction at [ts].  Slow — it
    replays the whole stream — and independent of the tier's version
    chains, which is what makes it an oracle for them. *)

type schedule_report = {
  d_plan : Shard_plan.t;
  d_protocol : string;
  d_committed : int;  (** update commits across all traffic slices *)
  d_reads : int;  (** as-of reads issued through the tier *)
  d_replica_served : int;
  d_bounced : int;  (** stale-detected reads the primary answered *)
  d_unavailable : int;
      (** reads no one could serve (primary down, replica behind) *)
  d_lost : int;  (** committed transactions missing after a promotion *)
  d_stale : int;
      (** served reads (replica or primary bounce) that returned early
          state *)
  d_promotions : int;
  d_resyncs : int;
  d_damaged : int;  (** damaged segments detected on the channel *)
  d_diverged : string option;  (** first failed check, if any *)
}

type report = {
  schedules : int;
  r_committed : int;
  r_reads : int;
  r_replica_served : int;
  r_bounced : int;
  r_unavailable : int;
  r_lost : int;
  r_stale : int;
  r_promotions : int;
  r_resyncs : int;
  r_damaged : int;
  r_diverged : int;
  results : schedule_report list;  (** in run order *)
}

val run_schedule :
  ?quick:bool ->
  ?shards:int ->
  ?replicas:int ->
  Shard_plan.t ->
  Fh.protocol ->
  schedule_report
(** One schedule; defaults 3 shards, 3 replicas.  [quick] shortens the
    traffic slices and the read batches. *)

val run_many :
  ?quick:bool -> ?shards:int -> ?replicas:int -> seeds:int list -> unit -> report
(** One schedule per seed, protocols assigned round-robin. *)

val divergences : report -> schedule_report list
(** Schedules that lost a commit, served stale, or failed a check. *)

val clean : report -> bool
(** Zero lost, zero stale served, zero divergences. *)

val pp_schedule : Format.formatter -> schedule_report -> unit
val pp_report : Format.formatter -> report -> unit

(** A read-replica tier over a shard {!Weihl_shard.Group}.

    Hybrid atomicity (§4.3) hands every read-only activity a timestamp
    at initiation and promises the committed state {e as of} that
    timestamp — a contract a log-shipping replica can serve without
    ever touching the primary's lock tables.  The tier ships each
    shard's WAL record stream to [replicas] replicas over a seeded
    {!Weihl_dist.Msim} channel and routes read-only transactions to
    them at their initiation timestamp.

    {2 The shipping protocol}

    Node 0 of the channel is the primary feed; nodes [1..replicas] are
    the replicas.  Each {!pump} round cuts, per live shard and replica,
    one CRC-framed segment ({!Weihl_cc.Wal.segment}) starting at the
    replica's last {e acked} position — unacknowledged data is simply
    re-sent, so a dropped segment or ack heals on the next round.  The
    segment carries the shard's {e watermark}: the group clock reading
    taken before the cut, so every commit with timestamp [<= watermark]
    is inside the shipped prefix.  A replica applies a segment only
    when it splices exactly at its applied position (overlaps are
    trimmed, pure duplicates acked away); a damaged segment — torn,
    checksum-caught, or mis-based — is refused whole and answered with
    a resync request from the last applied position, never applied in
    part.  Each applied segment advances the replica's {e high-water
    mark} to the watermark.

    {2 The high-water-mark rule}

    A read at initiation timestamp [T] may be served by a replica only
    if [T <= hwm] on every shard the read touches: below the mark the
    shipped prefix provably contains every commit the read must
    observe; above it the read blocks (pumping, under [`Wait]) or
    bounces to the primary.  Staleness is detected, never silent.  A
    bounce obeys the same rule: the primary serves only when the
    shard's watermark — below any in-doubt leg whose recorded decision
    is a commit — reaches [T] on every touched shard; otherwise the
    read is [unavailable].

    {2 Reads from version chains}

    A replica never replays its log to answer a read.  Each applied
    event feeds a {!Chains.t} per shard — one
    {!Weihl_cc.Version_chain} per object, built through a
    per-activity accumulator: a commit inserts the activity's granted
    (operation, result) list at its timestamp, an abort drops it,
    read-only activities are ignored.  A read at [T] answers each step
    with the first permissible outcome on the chain's frontier before
    [T].  It first folds the chain below [T], which is sound by the
    high-water-mark rule: [T <= hwm], and every commit that arrives
    after the segment certifying [hwm] carries a timestamp above it.
    So a read costs the versions committed since the previous read,
    not the length of the log.  The primary fallback reads chains the
    tier feeds incrementally from the primary's live history; they
    start over when the shard is recovered or failed over.  Should a
    commit still land at or below a folded mark (the static policy
    keeps an update's initiation timestamp, which can predate a served
    read), that shard's chains are rebuilt once from the whole stream,
    unfolded, and {!chain_rebuilds} counts it — an answer never
    differs from a replay of the same log.

    {2 Failover}

    {!fail_over} promotes the most-advanced replica by applied log
    position: the old primary is fenced by bumping the shard's epoch
    (in-flight old-epoch segments are refused), the promoted replica
    catches up from the durable WAL tail, the primary incarnation is
    rebuilt from the same durable log ({!Weihl_shard.Group.recover_shard},
    in-doubt legs resolved against the decision log), and the promoted
    replica's committed projection is verified against the recovered
    state — zero lost committed transactions, by check rather than by
    assumption.  Replicas then resync from position zero on the new
    epoch; until their marks recover, reads bounce to the primary. *)

open Weihl_event
module Cc = Weihl_cc
module Msim = Weihl_dist.Msim
module Group = Weihl_shard.Group

type t

type stale_policy =
  [ `Bounce  (** stale reads go straight to the primary *)
  | `Wait of int
    (** pump up to this many rounds for the mark to catch up, then
        bounce *) ]

val create :
  ?faults:Msim.faults ->
  ?stale:stale_policy ->
  ?segment_records:int ->
  ?seed:int ->
  ?metrics:Weihl_obs.Shard_metrics.t ->
  replicas:int ->
  make_object:(Cc.Event_log.t -> Object_id.t -> Cc.Atomic_object.t) ->
  Group.t ->
  t
(** A tier of [replicas] replicas over the group.  [faults] (default
    none) injects drop/duplicate/reorder on the shipping channel;
    [stale] (default [`Wait 4]) picks the stale-read policy;
    [segment_records] (default 64) caps records per shipped segment;
    [seed] (default the group's seed is not visible, so 1) drives the
    channel's delays and faults.  [make_object] is the constructor
    registered with the group; the tier only takes each object's
    specification from it.
    @raise Invalid_argument if [replicas <= 0] or the group runs more
    than one domain (the tier's watermark cut relies on the
    deterministic sequential mode). *)

val group : t -> Group.t
val replica_count : t -> int

(** {1 Shipping} *)

val pump : t -> unit
(** One shipping round: per live shard and live replica, cut one
    segment from the replica's acked position and deliver the channel
    to quiescence (acks, resyncs and retransmit responses included). *)

val sync : t -> unit
(** Pump until every live, unpartitioned replica has applied the full
    feed of every live shard, or no round makes progress. *)

val feed_pos : t -> shard:int -> int
(** Records in the shard's feed (0 for a crashed shard), in O(1).
    Segment cuts walk only the records past the replica's acked
    position ({!Weihl_shard.Group.shard_records_from}), so shipping,
    {!lag_records}, {!sync} and the catch-up check cost O(lag), not
    O(history). *)

val applied_pos : t -> replica:int -> shard:int -> int
val hwm : t -> replica:int -> shard:int -> int
(** The replica's high-water mark for the shard; [-1] before the first
    applied segment of the current epoch. *)

val lag_records : t -> replica:int -> int
(** Feed records not yet applied by the replica, summed over live
    shards. *)

val replica_events : t -> replica:int -> shard:int -> Event.t list
(** The replica's durable log for the shard: its applied event stream,
    in apply order.  Reads are served from the chains materialized
    from it, not from the list.  For checks and drills. *)

val epoch : t -> shard:int -> int

(** {1 Replica faults} *)

val set_lag : t -> replica:int -> int -> unit
(** Skip the replica for the next [n] pump rounds — an apply-lag
    schedule. *)

val crash_replica : t -> int -> unit
(** The replica stops receiving and serving.  Its applied records are
    its durable local log and survive; its high-water mark does not
    (it is segment metadata), so after {!restart_replica} the replica
    acks its old position, resumes from it, and serves no read until a
    fresh segment re-establishes the mark. *)

val restart_replica : t -> int -> unit
val replica_down : t -> int -> bool

val partition_replica : t -> int -> unit
(** Cut the channel link between the feed and the replica. *)

val heal_replica : t -> int -> unit

val damage_next_segments : t -> int -> unit
(** Corrupt the text of the next [n] segments cut — the receiver must
    detect each (CRC or framing) and resync rather than apply. *)

(** {1 Reads} *)

type serve = Served_replica of int | Served_primary

type read_outcome = {
  read_ts : int;  (** the initiation timestamp, from the group clock *)
  values : (Object_id.t * Operation.t * Value.t) list;
  serve : serve;
  bounced : bool;
      (** the chosen replica was below the mark (or down) and the read
          fell back to the primary *)
  waited : int;  (** pump rounds spent waiting for the mark *)
}

val read :
  ?replica:int ->
  t ->
  (Object_id.t * Operation.t) list ->
  (read_outcome, string) result
(** Run a read-only transaction against the tier at a fresh initiation
    timestamp.  [replica] pins the serving replica (default:
    round-robin).  Every step must be a query with a permissible
    outcome on the as-of state: a step that would change the state is
    an error, not a write.  Errors also cover unavailability, with
    messages starting ["unavailable"]: the replica cannot serve and
    the primary shard is down, or an in-doubt commit sits below the
    read timestamp.
    @raise Invalid_argument under the [`None_] timestamp policy —
    as-of reads need initiation timestamps. *)

(** {1 Failover} *)

type promotion = {
  shard : int;
  promoted : int;  (** the most-advanced replica by applied position *)
  promoted_pos : int;  (** its position before catch-up *)
  caught_up : int;  (** records applied from the durable WAL tail *)
  new_epoch : int;
  verified : string option;
      (** [None] when the promoted replica's committed projection
          matches the recovered primary's — the zero-lost-commits
          check; [Some msg] describes the divergence *)
}

val crash_primary : t -> int -> unit
(** Crash the shard's primary, retaining its durable WAL for
    {!fail_over}.  Idempotent per incarnation. *)

val fail_over : t -> int -> (promotion, string) result
(** Promote over the shard: fence the old incarnation (epoch bump),
    catch the most-advanced replica up from the durable tail, rebuild
    the primary from the durable WAL, verify the promoted projection
    against it, and re-point the shipping feed at the new epoch (all
    replicas resync from zero).  Crashes the primary first if it is
    still up.  [Error] reports an unrecoverable WAL or a verification
    failure. *)

(** {1 Introspection} *)

val promotions : t -> int
val resyncs : t -> int
val fenced_segments : t -> int
val damaged_segments : t -> int
val segments_shipped : t -> int
val stale_bounced : t -> int
val reads_at : t -> replica:int -> int
val reads_primary : t -> int
val reads_waited : t -> int

val chain_rebuilds : t -> int
(** Times a shard's chains were rebuilt because a commit landed at or
    below a folded mark. *)

val chain_advances : t -> int
(** Specification advances run by every chain the tier has built,
    replicas and primary fallback — the deterministic work of serving
    reads.  With {!Weihl_shard.Group.records_walked} for the feed side
    it makes the tier's complexity checkable by count. *)

val channel_now : t -> int
(** Virtual time of the shipping channel. *)

val channel_dropped : t -> int
val channel_duplicated : t -> int
val channel_reordered : t -> int

val render : t -> string
(** A per-replica table (position, lag, mark, resyncs, reads) plus a
    channel summary — the body of [weihl replica]. *)

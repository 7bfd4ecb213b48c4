(** Fuzzy checkpoints: a durable prefix of the recovery replay.

    Recovery re-executes the committed projection of the WAL in the
    serialization order ({!Recovery}).  A checkpoint makes a prefix of
    that replay persistent: it stores, per committed transaction, the
    transaction's own events (initiation timestamp, operations with
    their logged results, commit timestamp) in serialization order,
    plus the 2PC in-doubt set at the snapshot, plus the WAL sequence
    number it {e covers}.  Restart then replays the checkpoint and only
    the log tail at sequence numbers [>= covered] — bounded work — and
    the WAL prefix behind a durable checkpoint may be truncated or
    archived.

    {2 Fuzziness and consistency}

    The snapshot is taken between commit waves on the shard's own
    domain, without stopping traffic, so live transactions exist while
    it is written.  Two rules keep it consistent by construction:

    - {e prefix rule} — only committed transactions that are
      guaranteed to precede every live transaction in the eventual
      serialization order are captured.  Under commit-order recovery
      that is every committed transaction (future commits serialize
      later).  Under timestamp-order recovery it is those whose
      timestamp lies below the {e timestamp frontier}: the minimum
      timestamp already drawn by a live (active or prepared)
      transaction.  Transactions stamped in the future always exceed
      the frontier, because all timestamps come from one monotone
      group clock.
    - {e redo point} — [covered] is capped at the first WAL record of
      any transaction {e not} captured (and not aborted), so the tail
      at [>= covered] contains every record recovery still needs:
      un-captured committed transactions in full, the events and
      [Prepared] markers of every in-doubt transaction, and nothing a
      captured transaction needs (records of captured transactions
      that straddle [covered] are skipped by activity name at
      replay).

    {2 Durability and damage}

    A checkpoint file only {e counts} once a {!Wal.control.Checkpointed}
    marker carrying its CRC-32 digest is durable in the WAL — a file
    whose write raced a crash has no synced marker and is ignored.
    Every record line carries its own CRC (the {!Wal} framing), the
    file must decode [Intact] (a torn tail is damage here, not
    truncation), and the digest ties the file to its marker.  Any
    mismatch makes recovery fall back loudly to an older checkpoint or
    a full-log replay ({!Recovery.restore_checkpointed}) — never
    silently diverge. *)

open Weihl_event

val magic : string
(** First token of every checkpoint header: ["weihl-ckpt 1"]. *)

type t

val covered : t -> int
(** The WAL sequence number this checkpoint covers: recovery replays
    only records at [>= covered]. *)

val label : t -> string option
(** The shard label, mirroring the WAL header's. *)

val records : t -> Wal.record list
(** The payload: each captured transaction's events in serialization
    order, then one [Prepared] control per transaction in-doubt at the
    snapshot. *)

val in_doubt : t -> (int * Activity.t) list
(** The 2PC in-doubt set at the snapshot, as [(gid, activity)].  Every
    such transaction's records lie in the tail at [>= covered];
    recovery cross-checks this and fails loudly if truncation ever
    violated it. *)

val txn_count : t -> int
(** Captured committed transactions. *)

val activity_names : t -> string list
(** Names of the captured transactions' activities, in serialization
    order — the tail-replay skip set.  Computed once, by {!capture} or
    {!decode}. *)

val capture : ts_ordered:bool -> ?label:string -> Wal.record list -> t
(** Snapshot the committed projection of a full record stream (absolute
    sequence numbers starting at 0 — the shard's in-memory log, {e not}
    a truncated durable image; only synced records may be passed, or a
    crash could leave the checkpoint claiming more than the log).
    [ts_ordered] selects the timestamp-frontier prefix rule (static /
    hybrid policies) over the commit-order rule.  One pass over the
    stream, with hash tables keyed by activity name. *)

val digest : string -> int
(** CRC-32 of an encoded checkpoint file — the value carried by its
    {!Wal.control.Checkpointed} marker. *)

val encode : t -> string
(** The durable file: a ["weihl-ckpt 1 @<covered> [label]"] header line
    followed by the payload in {!Wal.encode_records} framing. *)

val decode : string -> (t, string) result
(** Parse and validate a checkpoint file.  Fails on a damaged header,
    any record-level damage, or a torn tail — a checkpoint is
    all-or-nothing, so every failure here is a loud reason to fall
    back, never a prefix to salvage. *)

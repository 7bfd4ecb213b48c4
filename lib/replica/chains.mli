(** The committed state of one shard's objects, materialized from its
    event stream as one {!Weihl_cc.Version_chain} per object.

    Events are fed in stream order.  A per-activity accumulator pairs
    each invocation with its response and keeps the granted (operation,
    result) lists per object.  The activity's timestamp is the first
    timestamp any of its events carries, as in
    {!Weihl_event.History.timestamp_of}: the initiation timestamp under
    the static policy, the commit timestamp of a hybrid update.  A
    commit at an object inserts the activity's ops there at that
    timestamp; an abort drops them; read-only activities change nothing
    and are ignored.  The chains therefore hold exactly the committed
    updates a timestamp-ordered replay of the same stream would
    rebuild. *)

open Weihl_event

type t

val create : spec_of:(Object_id.t -> Weihl_spec.Seq_spec.t) -> t
(** Empty chains; [spec_of] supplies an object's specification the
    first time the object is seen. *)

val apply : t -> Event.t -> (unit, string) result
(** Feed the next event of the stream.  [Error] when a commit lands at
    or below a chain's folded mark — the chains can no longer answer
    for it and must be rebuilt from the stream without folding. *)

val answer :
  t -> ts:Timestamp.t -> Object_id.t -> Operation.t -> (Value.t, string) result
(** The read-only step [op] at [x] as of [ts]: fold the chain below
    [ts], then take the first permissible outcome on the committed
    frontier before [ts] — the rule {!Weihl_cc.Hybrid} and
    {!Weihl_cc.Multiversion} read-only activities follow.  Folding is
    the caller's promise that no commit below [ts] is still to come.
    [Error] when the step would change the state (a read-only activity
    may not), has no permissible outcome, or [ts] is below the mark. *)

val advances : t -> int
(** Specification advances run by every chain so far. *)

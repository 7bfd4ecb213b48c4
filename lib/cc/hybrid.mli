(** The hybrid atomicity protocol (Section 4.3): updates run under a
    locking discipline and draw timestamps at commit; read-only
    activities draw timestamps at initiation and query versions.

    Updates are processed exactly as by {!Op_locking} (conflict
    relation supplied per object, intentions-list recovery).  When an
    update commits, the transaction manager has already assigned it a
    commit timestamp from a monotone Lamport clock — guaranteeing the
    timestamp order of updates is consistent with [precedes] — and the
    object inserts the update's intentions, stamped with that
    timestamp, into its {!Version_chain}.  Commit is an amortized O(1)
    sorted insert; a read-only query is a binary search plus a fold
    from the nearest memoized frontier, not a fold of every version.
    The chain is never folded: without a global low-water mark, a
    read-only activity with any older initiation timestamp may still
    arrive.

    A read-only transaction with initiation timestamp [t] evaluates its
    queries against the state produced by exactly the committed updates
    with commit timestamps less than [t].  Because the clock is
    monotone, every such update has already committed, so read-only
    transactions {e never wait and never abort}, and they hold nothing
    that could delay an update — the promised solution to Lamport's
    audit problem (Section 4.3.3).

    Every history this object generates is hybrid atomic. *)

open Weihl_event

val make :
  ?unsafe_forget_contended_commit:bool ->
  Event_log.t ->
  Object_id.t ->
  Weihl_spec.Seq_spec.t ->
  conflict:(Operation.t -> Operation.t -> bool) ->
  read_only_op:(Operation.t -> bool) ->
  Atomic_object.t
(** [read_only_op] tells queries from state-changing operations; a
    read-only transaction invoking a state-changing operation is
    refused.

    [unsafe_forget_contended_commit] exists for the lint self-test
    only: it leaves the committing update's version out of the version
    chain when another update's intentions are outstanding.  No two-transaction
    schedule can observe the loss — it takes a {e later} reader after
    a {e contended} commit, which is exactly the three-transaction
    shape the certifier's hybrid triple probes build. *)

val of_adt :
  Event_log.t -> Object_id.t -> (module Weihl_adt.Adt_sig.S) ->
  Atomic_object.t
(** Updates locked by the ADT's commutativity relation; operations
    classified [Read] are permitted to read-only transactions. *)

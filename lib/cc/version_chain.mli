(** One object's committed versions, as a value plus a suffix.

    Reed's versions (§4.2) and hybrid read-only activities (§4.3) both
    need "the committed state as of timestamp [t]": the specification
    frontier reached by folding, in timestamp order, the (operation,
    result) lists of every committed update with a smaller timestamp.
    Re-folding from the initial state on every query costs the whole
    history.  A chain splits the history instead:

    - a {e base} frontier, every version below the {e mark} already
      folded into it;
    - a {e suffix} of versions at or above the mark, sorted by
      timestamp, with cumulative frontiers memoized lazily at the
      points queries asked for.

    {!frontier_before} is a binary search plus a fold from the nearest
    memo below; {!fold_below} moves the mark up once no query below it
    can arrive, so the suffix stays as short as the caller's low-water
    mark allows.  Every {!Weihl_spec.Seq_spec.advance} the chain runs
    is counted ({!advances}) — a deterministic work measure that does
    not drift between runs. *)

open Weihl_event

type t

val create : Weihl_spec.Seq_spec.t -> t
(** An empty chain: base = the specification's initial state, no mark. *)

val insert :
  t -> ts:Timestamp.t -> (Operation.t * Value.t) list -> (unit, string) result
(** Add a committed version at [ts]: a sorted insert (after any version
    with an equal timestamp) that drops the memos at and above its
    slot.  [Error] when [ts] is at or below the mark — that part of the
    history is folded and can no longer take a version. *)

val frontier_before : t -> Timestamp.t -> Weihl_spec.Seq_spec.frontier option
(** The committed state as of [ts]: the base advanced through every
    version with timestamp strictly below [ts].  Memoizes the answer.
    [None] when [ts] is below the mark (that state was folded away) or
    the versions no longer replay against the specification. *)

val fold_below : t -> Timestamp.t -> unit
(** Fold every version with timestamp strictly below [ts] into the base
    and raise the mark to [ts].  A no-op at or below the current mark,
    and when the versions no longer replay (the chain is left as it
    was, so {!frontier_before} reports the failure).  Idempotent. *)

val length : t -> int
(** Versions in the suffix. *)

val advances : t -> int
(** Specification advances run by this chain since creation. *)

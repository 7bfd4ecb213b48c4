open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec

type entry = {
  ts : int;
  ops : (Operation.t * Value.t) list;
  mutable memo : Seq_spec.frontier option;
      (* the base advanced through every entry up to and including
         this one; set only where a query landed *)
}

(* Invariants:
   - [entries.(0 .. n-1)] is sorted by [ts], every [ts >= mark];
   - [base] is the initial state advanced, in timestamp order, through
     every version ever folded (all of them below [mark]);
   - no entry at index [>= memo_hi] holds a memo, so an insert above
     [memo_hi] invalidates nothing. *)
type t = {
  mutable base : Seq_spec.frontier;
  mutable mark : int; (* -1: nothing folded yet *)
  mutable entries : entry array;
  mutable n : int;
  mutable memo_hi : int;
  mutable advances : int;
}

let hole = { ts = -1; ops = []; memo = None }

let create spec =
  {
    base = Seq_spec.start spec;
    mark = -1;
    entries = [||];
    n = 0;
    memo_hi = 0;
    advances = 0;
  }

let length t = t.n
let advances t = t.advances

(* The number of entries with timestamp strictly below [ts]. *)
let rank t ts =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.entries.(mid).ts < ts then lo := mid + 1 else hi := mid
  done;
  !lo

let insert t ~ts ops =
  let ts = Timestamp.to_int ts in
  if ts <= t.mark then
    Error
      (Fmt.str "version at %d is at or below the folded mark %d" ts t.mark)
  else begin
    if t.n = Array.length t.entries then begin
      let grown = Array.make (max 8 (2 * t.n)) hole in
      Array.blit t.entries 0 grown 0 t.n;
      t.entries <- grown
    end;
    let k = rank t (ts + 1) in
    Array.blit t.entries k t.entries (k + 1) (t.n - k);
    t.entries.(k) <- { ts; ops; memo = None };
    t.n <- t.n + 1;
    (* Every cumulative frontier at or above the new slot now misses
       this version. *)
    for i = k + 1 to min t.memo_hi (t.n - 1) do
      t.entries.(i).memo <- None
    done;
    t.memo_hi <- min t.memo_hi k;
    Ok ()
  end

let advance_entry t f e =
  List.fold_left
    (fun f (op, res) ->
      match f with
      | None -> None
      | Some f ->
        t.advances <- t.advances + 1;
        Seq_spec.advance f op res)
    (Some f) e.ops

(* The base advanced through the first [k] entries, folded from the
   nearest memo below and memoized at entry [k - 1]. *)
let prefix t k =
  if k = 0 then Some t.base
  else
    match t.entries.(k - 1).memo with
    | Some _ as f -> f
    | None ->
      let rec nearest j =
        if j = 0 then (0, t.base)
        else
          match t.entries.(j - 1).memo with
          | Some f -> (j, f)
          | None -> nearest (j - 1)
      in
      let j, f = nearest (min (k - 1) t.memo_hi) in
      let rec go i f =
        if i = k then Some f
        else
          match advance_entry t f t.entries.(i) with
          | None -> None
          | Some f -> go (i + 1) f
      in
      let r = go j f in
      (match r with
      | None -> ()
      | Some _ ->
        t.entries.(k - 1).memo <- r;
        t.memo_hi <- max t.memo_hi k);
      r

let frontier_before t ts =
  let ts = Timestamp.to_int ts in
  if ts < t.mark then None else prefix t (rank t ts)

let fold_below t ts =
  let ts = Timestamp.to_int ts in
  if ts > t.mark then begin
    let k = rank t ts in
    match prefix t k with
    | None -> ()
    | Some f ->
      t.base <- f;
      let rest = t.n - k in
      Array.blit t.entries k t.entries 0 rest;
      Array.fill t.entries rest k hole;
      t.n <- rest;
      t.memo_hi <- max 0 (t.memo_hi - k);
      t.mark <- ts
  end

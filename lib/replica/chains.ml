open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec
module Vc = Weihl_cc.Version_chain

(* One update activity still in flight in the stream. *)
type acc = {
  mutable ts : Timestamp.t option; (* the first timestamp seen *)
  mutable invoked : (Object_id.t * Operation.t) option;
      (* the invocation awaiting its response *)
  mutable ops : (Object_id.t * (Operation.t * Value.t) list) list;
      (* granted ops per object, newest first *)
}

type t = {
  spec_of : Object_id.t -> Seq_spec.t;
  chains : (Object_id.t, Vc.t) Hashtbl.t;
  accs : (string, acc) Hashtbl.t; (* by activity name *)
}

let create ~spec_of =
  { spec_of; chains = Hashtbl.create 16; accs = Hashtbl.create 16 }

let chain t x =
  match Hashtbl.find_opt t.chains x with
  | Some c -> c
  | None ->
    let c = Vc.create (t.spec_of x) in
    Hashtbl.replace t.chains x c;
    c

let take_ops acc x =
  match List.assoc_opt x acc.ops with
  | None -> []
  | Some ops ->
    acc.ops <- List.remove_assoc x acc.ops;
    List.rev ops

(* An activity is forgotten once its last object resolves; a later
   resolution event for it (at an object it never touched) finds an
   empty accumulator and does nothing. *)
let resolved t name acc = if acc.ops = [] then Hashtbl.remove t.accs name

let apply t e =
  let a = Event.activity e in
  if Activity.is_read_only a then Ok ()
  else begin
    let name = Activity.name a in
    let acc =
      match Hashtbl.find_opt t.accs name with
      | Some acc -> acc
      | None ->
        let acc = { ts = None; invoked = None; ops = [] } in
        Hashtbl.replace t.accs name acc;
        acc
    in
    if acc.ts = None then acc.ts <- Event.timestamp e;
    let invoked = acc.invoked in
    acc.invoked <- None;
    match e with
    | Event.Invoke (_, x, op) ->
      acc.invoked <- Some (x, op);
      Ok ()
    | Event.Respond (_, x, v) ->
      (match invoked with
      | Some (x', op) when Object_id.equal x x' ->
        let prev = Option.value ~default:[] (List.assoc_opt x acc.ops) in
        acc.ops <- (x, (op, v) :: prev) :: List.remove_assoc x acc.ops
      | _ -> ());
      Ok ()
    | Event.Initiate _ -> Ok ()
    | Event.Abort (_, x) ->
      ignore (take_ops acc x);
      resolved t name acc;
      Ok ()
    | Event.Commit (_, x, _) -> (
      let ops = take_ops acc x in
      resolved t name acc;
      match (acc.ts, ops) with
      | Some ts, _ :: _ -> Vc.insert (chain t x) ~ts ops
      | _ -> Ok ())
  end

let answer t ~ts x op =
  let c = chain t x in
  Vc.fold_below c ts;
  match Vc.frontier_before c ts with
  | None ->
    Error
      (Fmt.str "no committed state of %a as of %a" Object_id.pp x Timestamp.pp
         ts)
  | Some f -> (
    match Seq_spec.outcomes f op with
    | [] ->
      Error (Fmt.str "operation %a has no permissible outcome" Operation.pp op)
    | (res, f') :: _ ->
      if Seq_spec.equal_frontier f f' then Ok res
      else
        Error
          (Fmt.str "read-only activity invoked state-changing operation %a"
             Operation.pp op))

let advances t = Hashtbl.fold (fun _ c n -> n + Vc.advances c) t.chains 0

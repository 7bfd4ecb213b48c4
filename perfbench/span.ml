(* In-memory spans around the benchmark's calls into the program.

   Off (the untraced pass), [call] is one branch around the call.  On,
   each call records its name, start and end on {!Clock}, its parent
   span and the transaction id shared by every span of one script.
   Spans stay in memory until [export] writes them once, at the end,
   as a Chrome trace; [analyse] reads that file back through
   [Weihl_obs.Trace.parse] and derives self times from it. *)

module Trace = Weihl_obs.Trace
module J = Weihl_obs.Json

type t = {
  name : string;
  id : int;
  parent : int;  (** 0 for a root *)
  txn : int;  (** script id; 0 outside any script *)
  round : int;
  tid : int;  (** logical client *)
  start : float;
  stop : float;
}

let on = ref false
let spans : t list ref = ref []
let last_id = ref 0
let round = ref 0

let reset () =
  spans := [];
  last_id := 0

let fresh () =
  incr last_id;
  !last_id

let record ?(parent = 0) ?(txn = 0) ?(tid = 0) ~id name start stop =
  spans :=
    { name; id; parent; txn; round = !round; tid; start; stop } :: !spans

(* A root span opened now and closed later (a script, a round): the
   caller keeps the id so children can name it as their parent. *)
let open_root () = if !on then fresh () else 0

let close_root ?txn ?tid ~id name start =
  if !on then record ?txn ?tid ~id name start (Clock.now ())

(* Time [f] as a span named after its result, so one call site can
   file a commit under the fast path or under 2PC. *)
let call_named ?parent ?txn ?tid name_of f =
  if not !on then f ()
  else begin
    let id = fresh () in
    let t0 = Clock.now () in
    let r = f () in
    record ?parent ?txn ?tid ~id (name_of r) t0 (Clock.now ());
    r
  end

let call ?parent ?txn ?tid name f = call_named ?parent ?txn ?tid (fun _ -> name) f

(* ------------------------------------------------------------------ *)
(* The Chrome trace *)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_event s =
  {
    Trace.name = s.name;
    cat = layer s.name;
    ph = Trace.X;
    ts = s.start;
    dur = Some (s.stop -. s.start);
    pid = 1;
    tid = s.tid;
    id = None;
    args =
      [
        ("span", J.Num (float_of_int s.id));
        ("parent", J.Num (float_of_int s.parent));
        ("txn", J.Num (float_of_int s.txn));
        ("round", J.Num (float_of_int s.round));
      ];
  }

let export path =
  let oc = open_out_bin path in
  output_string oc (Trace.export_events (List.rev_map to_event !spans));
  close_out oc

let of_event (e : Trace.ev) =
  let arg k =
    match List.assoc_opt k e.Trace.args with
    | Some (J.Num f) -> int_of_float f
    | _ -> 0
  in
  let dur = Option.value e.Trace.dur ~default:0. in
  {
    name = e.Trace.name;
    id = arg "span";
    parent = arg "parent";
    txn = arg "txn";
    round = arg "round";
    tid = e.Trace.tid;
    start = e.Trace.ts;
    stop = e.Trace.ts +. dur;
  }

let load path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Trace.parse text with
  | Ok evs -> Ok (List.map of_event evs)
  | Error e -> Error e

(* Self time: a span's duration minus the part of it its children
   cover (children may overlap each other — interleaved clients — so
   the covered part is the union of their intervals). *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun (a, b) -> (Float.max a s.start, Float.min b s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            if b <= reach then (acc, reach)
            else (acc +. (b -. Float.max a reach), b))
          (0., neg_infinity) ivs
      in
      (s, s.stop -. s.start -. covered))
    spans

open Weihl_event

let magic = "weihl-wal 1"

(* CRC-32 (IEEE 802.3), table-driven.  OCaml's 63-bit immediates hold
   the 32-bit arithmetic comfortably.  Built eagerly at module init:
   a [lazy] here would be forced concurrently from shard domains. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Slicing-by-8: [slices] holds eight 256-entry tables, table [k]
   advancing the CRC over a byte followed by [k] zero bytes, so one
   step folds eight bytes with independent lookups instead of a chain
   of eight dependent ones. *)
let slices =
  let t = Array.make (8 * 256) 0 in
  Array.blit crc_table 0 t 0 256;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(((k - 1) lsl 8) lor i) in
      t.((k lsl 8) lor i) <- (prev lsr 8) lxor crc_table.(prev land 0xff)
    done
  done;
  t

let crc_bytes b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Wal.crc32: range out of bounds";
  let t k i = Array.unsafe_get slices ((k lsl 8) lor i) [@@inline] in
  let byte i = Char.code (Bytes.unsafe_get b i) [@@inline] in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let j = !i in
    let w =
      !c
      lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      t 7 (w land 0xff)
      lxor t 6 ((w lsr 8) land 0xff)
      lxor t 5 ((w lsr 16) land 0xff)
      lxor t 4 (w lsr 24)
      lxor t 3 (byte (j + 4))
      lxor t 2 (byte (j + 5))
      lxor t 1 (byte (j + 6))
      lxor t 0 (byte (j + 7));
    i := j + 8
  done;
  for j = !i to stop - 1 do
    c := t 0 ((!c lxor byte j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Read-only views: the bytes are never written through. *)
let crc32_sub s pos len = crc_bytes (Bytes.unsafe_of_string s) pos len
let crc32 s = crc32_sub s 0 (String.length s)

type status = Intact | Torn of int
type error = { record : int; reason : string }

type control =
  | Prepared of { gid : int; activity : Activity.t }
  | Decided of { gid : int; verdict : [ `Commit of Timestamp.t option | `Abort ] }
  | Checkpointed of { seq : int; digest : int }

type record = Event of Event.t | Control of control

let pp_status ppf = function
  | Intact -> Fmt.string ppf "intact"
  | Torn n -> Fmt.pf ppf "torn tail (%d record(s) dropped)" n

let pp_error ppf { record; reason } =
  if record < 0 then Fmt.pf ppf "WAL header: %s" reason
  else Fmt.pf ppf "WAL record %d: %s" record reason

let write_control buf = function
  | Prepared { gid; activity } ->
    Buffer.add_string buf "!prepared ";
    Value.write_int buf gid;
    Buffer.add_string buf
      (if Activity.is_read_only activity then " r " else " u ");
    Buffer.add_string buf (Activity.name activity)
  | Decided { gid; verdict } -> (
    Buffer.add_string buf "!decided ";
    Value.write_int buf gid;
    match verdict with
    | `Commit (Some ts) ->
      Buffer.add_string buf " commit ";
      Value.write_int buf (Timestamp.to_int ts)
    | `Commit None -> Buffer.add_string buf " commit -"
    | `Abort -> Buffer.add_string buf " abort")
  | Checkpointed { seq; digest } ->
    Buffer.add_string buf "!checkpointed ";
    Value.write_int buf seq;
    Buffer.add_string buf (Printf.sprintf " %08x" digest)

let write_record buf = function
  | Event e -> Event.write buf e
  | Control c -> write_control buf c

(* Control bodies start with '!' — no event notation does. *)
let control_of_text text =
  match String.split_on_char ' ' text with
  | "!prepared" :: gid :: kind :: (_ :: _ as rest) -> (
    match (int_of_string_opt gid, kind) with
    | Some gid, ("u" | "r") ->
      let name = String.concat " " rest in
      let activity =
        if String.equal kind "r" then Activity.read_only name
        else Activity.update name
      in
      Ok (Prepared { gid; activity })
    | _ -> Error "unparseable control: bad prepared record")
  | [ "!decided"; gid; "commit"; ts ] -> (
    match int_of_string_opt gid with
    | None -> Error "unparseable control: bad decided record"
    | Some gid ->
      if String.equal ts "-" then Ok (Decided { gid; verdict = `Commit None })
      else (
        match int_of_string_opt ts with
        | Some n when n >= 0 ->
          Ok (Decided { gid; verdict = `Commit (Some (Timestamp.v n)) })
        | _ -> Error "unparseable control: bad decided timestamp"))
  | [ "!decided"; gid; "abort" ] -> (
    match int_of_string_opt gid with
    | Some gid -> Ok (Decided { gid; verdict = `Abort })
    | None -> Error "unparseable control: bad decided record")
  | [ "!checkpointed"; seq; digest ] -> (
    match (int_of_string_opt seq, int_of_string_opt ("0x" ^ digest)) with
    | Some seq, Some digest when seq >= 0 -> Ok (Checkpointed { seq; digest })
    | _ -> Error "unparseable control: bad checkpointed record")
  | _ -> Error "unparseable control record"

(* The record whose text is [s]'s bytes [lo, hi). *)
let record_of_sub s lo hi =
  if lo < hi && s.[lo] = '!' then (
    match control_of_text (String.sub s lo (hi - lo)) with
    | Ok c -> Ok (Control c)
    | Error m -> Error m)
  else (
    match Notation.event_of_sub s ~pos:lo ~len:(hi - lo) with
    | Ok e -> Ok (Event e)
    | Error m -> Error ("unparseable event: " ^ m))

(* A truncated log keeps the absolute sequence numbers of its surviving
   records; the header records where they start ("weihl-wal 1 shard-3
   @512").  The ['@'] prefix keeps the base token distinguishable from a
   label, which may not contain one as its last space-separated token. *)
let header_line ?(base = 0) label =
  (match label with
  | Some l when String.contains l '\n' ->
    invalid_arg "Wal.encode_records: label contains a newline"
  | _ -> ());
  if base < 0 then invalid_arg "Wal.encode_records: negative base";
  String.concat " "
    (List.concat
       [
         [ magic ];
         (match label with None -> [] | Some l -> [ l ]);
         (if base = 0 then [] else [ Printf.sprintf "@%d" base ]);
       ])

(* The one line framer: [records] as lines
   ["<crc32:8 hex> <seq> <record>\n"] numbered from [seq], after
   [prefix].  Every line is rendered once with a placeholder checksum;
   the checksums are then taken over each line's range from the
   sequence number to the end of the record, and written over the
   placeholders. *)
let hex_digits = "0123456789abcdef"

let frame ?(prefix = "") ~seq records =
  let n = List.length records in
  let buf = Buffer.create (String.length prefix + (48 * n)) in
  Buffer.add_string buf prefix;
  let starts = Array.make n 0 in
  List.iteri
    (fun i r ->
      starts.(i) <- Buffer.length buf;
      Buffer.add_string buf "00000000 ";
      Value.write_int buf (seq + i);
      Buffer.add_char buf ' ';
      write_record buf r;
      Buffer.add_char buf '\n')
    records;
  let b = Buffer.to_bytes buf in
  Array.iteri
    (fun i start ->
      let stop = if i + 1 < n then starts.(i + 1) - 1 else Bytes.length b - 1 in
      let crc = crc_bytes b (start + 9) (stop - start - 9) in
      for k = 0 to 7 do
        Bytes.unsafe_set b (start + k) hex_digits.[(crc lsr (28 - (4 * k))) land 0xf]
      done)
    starts;
  Bytes.unsafe_to_string b

let encode_records ?label ?(base = 0) records =
  frame ~prefix:(header_line ~base label ^ "\n") ~seq:base records

let encode h =
  let records = ref [] in
  History.iter (fun e -> records := Event e :: !records) h;
  encode_records (List.rev !records)

(* Header tokens after the magic: an optional label (any tokens) and an
   optional trailing ["@<base>"].  Malformed trailing '@' tokens are
   treated as label text — the seq check will catch a truncated log
   whose base token was damaged. *)
let header_fields header =
  if String.equal header magic then (None, 0)
  else
    let extra =
      String.sub header
        (String.length magic + 1)
        (String.length header - String.length magic - 1)
    in
    let toks = String.split_on_char ' ' extra in
    let base, label_toks =
      match List.rev toks with
      | last :: rev_front
        when String.length last > 1
             && last.[0] = '@'
             && int_of_string_opt (String.sub last 1 (String.length last - 1))
                |> Option.fold ~none:false ~some:(fun n -> n >= 0) ->
        ( int_of_string (String.sub last 1 (String.length last - 1)),
          List.rev rev_front )
      | _ -> (0, toks)
    in
    let label =
      match label_toks with
      | [] | [ "" ] -> None
      | ts -> Some (String.concat " " ts)
    in
    (label, base)

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The checksum field: 8 hex digits at [pos], or -1. *)
let read_hex8 s pos =
  let rec go i acc =
    if i = pos + 8 then acc
    else
      let d = hex_value s.[i] in
      if d < 0 then -1 else go (i + 1) ((acc * 16) + d)
  in
  go pos 0

(* A decimal natural in [lo, hi), or -1 (empty, a non-digit, or past
   [max_int]). *)
let read_nat s lo hi =
  let rec go i acc =
    if i >= hi then acc
    else
      match s.[i] with
      | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc > (max_int - d) / 10 then -1 else go (i + 1) ((acc * 10) + d)
      | _ -> -1
  in
  if lo >= hi then -1 else go lo 0

(* Check the framing of the line [lo, hi) of [s] in place: checksum
   over the line's own content and a readable sequence number.  Returns
   the sequence number and where the record text starts. *)
let check_frame s lo hi =
  let n = hi - lo in
  if n < 10 then Error "record cut short"
  else if s.[lo + 8] <> ' ' then Error "bad framing"
  else
    let crc = read_hex8 s lo in
    if crc < 0 then Error "unreadable checksum field"
    else if crc <> crc32_sub s (lo + 9) (n - 9) then Error "checksum mismatch"
    else
      match String.index_from_opt s (lo + 9) ' ' with
      | Some sp when sp < hi ->
        let found = read_nat s (lo + 9) sp in
        if found < 0 then Error "unreadable sequence number"
        else Ok (found, sp + 1)
      | _ -> Error "missing sequence number"

(* Parse one record line.  [seq] is the index the record must carry for
   the log to be gapless. *)
let parse_record ~seq s lo hi =
  match check_frame s lo hi with
  | Error _ as e -> e
  | Ok (found, _) when found <> seq ->
    Error (Printf.sprintf "sequence gap: expected %d, found %d" seq found)
  | Ok (_, start) -> record_of_sub s start hi

(* A line that checks out structurally (checksum over its own content,
   parseable sequence and record) regardless of where it sits.  Evidence
   that real data exists beyond a damaged record. *)
let well_framed s (lo, hi) =
  match check_frame s lo hi with
  | Error _ -> false
  | Ok (_, start) -> Result.is_ok (record_of_sub s start hi)

let header_ok header =
  String.equal header magic
  || String.length header > String.length magic
     && String.sub header 0 (String.length magic + 1) = magic ^ " "

let label text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl ->
    let header = String.sub text 0 nl in
    if header_ok header then fst (header_fields header) else None

let base text =
  match String.index_opt text '\n' with
  | None -> 0
  | Some nl ->
    let header = String.sub text 0 nl in
    if header_ok header then snd (header_fields header) else 0

(* Record lines run from just past the header's newline to the end of
   the text.  A final trailing newline ends the last line rather than
   opening an empty one; an empty line elsewhere is a (damaged) line. *)
let line_end text lo =
  Option.value (String.index_from_opt text lo '\n') ~default:(String.length text)

let rec line_ranges text lo =
  if lo >= String.length text then []
  else
    let hi = line_end text lo in
    (lo, hi) :: line_ranges text (hi + 1)

let decode_records text =
  let nl = line_end text 0 in
  let header = String.sub text 0 nl in
  if not (header_ok header) then
    Error { record = -1; reason = "bad or missing header" }
  else
    let _, base = header_fields header in
    let rec go seq acc lo =
      if lo >= String.length text then Ok (List.rev acc, Intact)
      else
        let hi = line_end text lo in
        match parse_record ~seq text lo hi with
        | Ok r -> go (seq + 1) (r :: acc) (hi + 1)
        | Error reason ->
          let later = line_ranges text (hi + 1) in
          if List.exists (well_framed text) later then
            Error { record = seq; reason = "mid-log corruption: " ^ reason }
          else Ok (List.rev acc, Torn (List.length later + 1))
    in
    go base [] (nl + 1)

(* Streaming segments: a shipped slice of the record stream is just a
   WAL text whose header base is the slice's absolute start position.
   Unlike a log read back from disk, a segment that arrives damaged is
   refused whole — applying the intact prefix of a torn segment would
   silently diverge the replica from the stream. *)
let segment ?label ~base records = encode_records ?label ~base records

let decode_segment ~expected_base text =
  match decode_records text with
  | Error _ as e -> e
  | Ok (records, Torn n) ->
    Error
      {
        record = base text + List.length records;
        reason = Printf.sprintf "segment torn in flight (%d record(s))" n;
      }
  | Ok (records, Intact) ->
    let b = base text in
    if b <> expected_base then
      Error
        {
          record = -1;
          reason =
            Printf.sprintf "segment base mismatch: expected %d, found %d"
              expected_base b;
        }
    else Ok records

let rec drop_n n = function _ :: tl when n > 0 -> drop_n (n - 1) tl | l -> l

let records_from ~pos text =
  match decode_records text with
  | Error _ as e -> e
  | Ok (records, _) ->
    let b = base text in
    if pos < b then
      Error
        {
          record = -1;
          reason =
            Printf.sprintf
              "position %d is behind the log's base %d (truncated away)" pos b;
        }
    else Ok (drop_n (pos - b) records)

let decode text =
  match decode_records text with
  | Error e -> Error e
  | Ok (records, status) ->
    let events =
      List.filter_map (function Event e -> Some e | Control _ -> None) records
    in
    Ok (History.of_list events, status)

(* Append/sync decoupling for group commit.  [append] buffers a framed
   record in volatile memory; [sync] moves everything buffered into the
   durable image in one device operation.  The durable image after a
   crash is exactly [synced_text] — appended-but-unsynced records are
   gone, which is why a commit must not be acknowledged before the sync
   that covers it returns. *)
module Writer = struct
  type t = {
    m : Mutex.t;
    durable : Buffer.t; (* header + synced records *)
    mutable tail : record list; (* appended, unsynced (newest first) *)
    mutable next_seq : int;
    mutable synced_records : int;
    mutable appends : int;
    mutable syncs : int;
    sync_cost : unit -> unit; (* paid inside every [sync] *)
  }

  let create ?label ?(sync_cost = Fun.id) () =
    let durable = Buffer.create 256 in
    Buffer.add_string durable (header_line label ^ "\n");
    {
      m = Mutex.create ();
      durable;
      tail = [];
      next_seq = 0;
      synced_records = 0;
      appends = 0;
      syncs = 0;
      sync_cost;
    }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let append t r =
    locked t (fun () ->
        t.tail <- r :: t.tail;
        t.appends <- t.appends + 1)

  let append_list t rs = List.iter (append t) rs

  let sync t =
    let batch =
      locked t (fun () ->
          let batch = List.rev t.tail in
          let n = List.length batch in
          Buffer.add_string t.durable (frame ~seq:t.next_seq batch);
          t.next_seq <- t.next_seq + n;
          t.tail <- [];
          t.synced_records <- t.synced_records + n;
          t.syncs <- t.syncs + 1;
          n)
    in
    (* The device latency is paid outside the lock: syncs on different
       writers (one per shard) overlap in wall-clock time. *)
    t.sync_cost ();
    batch

  let pending t = locked t (fun () -> List.length t.tail)
  let synced_text t = locked t (fun () -> Buffer.contents t.durable)

  let text t =
    locked t (fun () ->
        Buffer.contents t.durable ^ frame ~seq:t.next_seq (List.rev t.tail))

  let synced_records t = locked t (fun () -> t.synced_records)
  let appends t = locked t (fun () -> t.appends)
  let syncs t = locked t (fun () -> t.syncs)
end

type error = { line : int; message : string }

let pp_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.message

let default_read_only name =
  String.length name > 0
  && (match name.[0] with 'r' | 's' | 't' -> true | _ -> false)

let default_results = [ "ok"; "insufficient_funds"; "empty"; "none" ]

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* The parser reads [s] in place through half-open ranges [lo, hi),
   copying only the names and symbols it returns.  Whitespace is
   [String.trim]'s: the grammar is whitespace-insensitive around every
   field. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_left s lo hi =
  if lo < hi && is_space (String.unsafe_get s lo) then skip_left s (lo + 1) hi
  else lo

let rec skip_right s lo hi =
  if hi > lo && is_space (String.unsafe_get s (hi - 1)) then
    skip_right s lo (hi - 1)
  else hi

let rec index_in s lo hi c =
  if lo >= hi then -1
  else if String.unsafe_get s lo = c then lo
  else index_in s (lo + 1) hi c

let rec rindex_in s lo hi c =
  if hi <= lo then -1
  else if String.unsafe_get s (hi - 1) = c then hi - 1
  else rindex_in s lo (hi - 1) c

let is_lit s lo hi lit =
  hi - lo = String.length lit
  &&
  let rec go i = i >= hi - lo || (s.[lo + i] = lit.[i] && go (i + 1)) in
  go 0

let rec all_ident s lo hi = lo >= hi || (is_ident_char s.[lo] && all_ident s (lo + 1) hi)

(* A field's text as the notation reads it: trimmed, with the
   whitespace around any inner comma dropped ("a , b" reads "a,b"). *)
let squeeze s lo hi =
  let lo = skip_left s lo hi in
  let hi = skip_right s lo hi in
  let text = String.sub s lo (hi - lo) in
  if index_in s lo hi ',' < 0 then text
  else String.concat "," (List.map String.trim (String.split_on_char ',' text))

(* [int_of_string_opt] on the range.  Plain decimals of up to 18
   digits (no overflow) are read in place; every other form an OCaml
   integer literal can take (a sign, a radix prefix, '_' separators,
   longer digit runs) goes through the stdlib. *)
let parse_int s lo hi =
  let rec decimal i acc =
    if i >= hi then Some acc
    else
      match s.[i] with
      | '0' .. '9' as c -> decimal (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> None
  in
  if lo >= hi then None
  else
    match s.[lo] with
    | '0' .. '9' | '-' | '+' -> (
      match if hi - lo <= 18 then decimal lo 0 else None with
      | Some _ as n -> n
      | None -> int_of_string_opt (String.sub s lo (hi - lo)))
    | _ -> None

let parse_value s lo hi =
  let lo = skip_left s lo hi in
  let hi = skip_right s lo hi in
  if is_lit s lo hi "()" then Some Value.Unit
  else if is_lit s lo hi "true" then Some (Value.Bool true)
  else if is_lit s lo hi "false" then Some (Value.Bool false)
  else
    match parse_int s lo hi with
    | Some n -> Some (Value.Int n)
    | None ->
      if lo < hi && all_ident s lo hi then
        Some (Value.Sym (String.sub s lo (hi - lo)))
      else None

(* Comma-separated values in [lo, hi); [None] if any field is not a
   value (an empty field included). *)
let parse_args s lo hi =
  let rec go lo acc =
    let c = index_in s lo hi ',' in
    let fhi = if c < 0 then hi else c in
    match parse_value s lo fhi with
    | None -> None
    | Some v -> if c < 0 then Some (List.rev (v :: acc)) else go (c + 1) (v :: acc)
  in
  go lo []

let parse_timestamp s lo hi =
  match parse_int s (skip_left s lo hi) (skip_right s lo hi) with
  | Some t when t >= 0 -> Some (Timestamp.v t)
  | _ -> None

let expected = Error "expected <body,object,activity>"

let event_of_sub ?(read_only = default_read_only)
    ?(results = default_results) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Notation.event_of_sub: range out of bounds";
  let lo = skip_left s pos (pos + len) in
  let hi = skip_right s lo (pos + len) in
  if hi - lo < 2 || s.[lo] <> '<' || s.[hi - 1] <> '>' then expected
  else
    (* The activity and object are the last two comma-separated fields;
       everything before belongs to the body (operation arguments may
       themselves contain commas). *)
    let ilo = lo + 1 and ihi = hi - 1 in
    let c1 = rindex_in s ilo ihi ',' in
    if c1 < 0 then expected
    else
      let c2 = rindex_in s ilo c1 ',' in
      let alo = skip_left s (c1 + 1) ihi in
      let ahi = skip_right s alo ihi in
      let olo = skip_left s (if c2 < 0 then ilo else c2 + 1) c1 in
      let ohi = skip_right s olo c1 in
      if alo = ahi || olo = ohi then expected
      else
        let blo = if c2 < 0 then ilo else skip_left s ilo c2 in
        let bhi = if c2 < 0 then ilo else skip_right s blo c2 in
        if blo = bhi then Error "empty event body"
        else begin
          let act_name = String.sub s alo (ahi - alo) in
          let activity =
            if read_only act_name then Activity.read_only act_name
            else Activity.update act_name
          in
          let obj = Object_id.v (String.sub s olo (ohi - olo)) in
          if is_lit s blo bhi "()" then Ok (Event.respond activity obj Value.Unit)
          else
            let paren = index_in s blo bhi '(' in
            if paren < 0 then
              (* A bare body is a result if it looks like a literal or is
                 a registered symbolic result; otherwise a no-argument
                 invocation. *)
              if is_lit s blo bhi "commit" then Ok (Event.commit activity obj)
              else if is_lit s blo bhi "abort" then Ok (Event.abort activity obj)
              else if is_lit s blo bhi "initiate" then
                Error "initiate requires a timestamp"
              else
                match parse_value s blo bhi with
                | Some (Value.Sym sym) when not (List.mem sym results) ->
                  Ok (Event.invoke activity obj (Operation.make sym []))
                | Some v -> Ok (Event.respond activity obj v)
                | None -> Error (Fmt.str "cannot parse body %S" (squeeze s blo bhi))
            else if s.[bhi - 1] <> ')' then Error "unbalanced parentheses"
            else
              let name = squeeze s blo paren in
              let alo = paren + 1 and ahi = bhi - 1 in
              match name with
              | "commit" -> (
                match parse_timestamp s alo ahi with
                | Some t -> Ok (Event.commit_ts activity obj t)
                | None -> Error "commit timestamp must be a natural number")
              | "abort" -> Error "abort takes no argument"
              | "initiate" -> (
                match parse_timestamp s alo ahi with
                | Some t -> Ok (Event.initiate activity obj t)
                | None -> Error "initiation timestamp must be a natural number")
              | _ -> (
                match parse_args s alo ahi with
                | Some args -> Ok (Event.invoke activity obj (Operation.make name args))
                | None -> Error (Fmt.str "cannot parse arguments of %s" name))
        end

let event_of_string ?read_only ?results s =
  event_of_sub ?read_only ?results s ~pos:0 ~len:(String.length s)

let history_of_string ?read_only ?results s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (History.of_list (List.rev acc))
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
      else begin
        match event_of_string ?read_only ?results trimmed with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error message -> Error { line = lineno; message }
      end
  in
  go 1 [] lines

let history_to_string h =
  String.concat "\n" (List.map Event.to_string (History.to_list h))

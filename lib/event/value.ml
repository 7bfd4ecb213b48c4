type t =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | List of t list
  | Pair of t * t

let ok = Sym "ok"
let insufficient_funds = Sym "insufficient_funds"

let rec equal v w =
  match v, w with
  | Unit, Unit -> true
  | Bool b, Bool c -> Bool.equal b c
  | Int i, Int j -> Int.equal i j
  | Sym s, Sym t -> String.equal s t
  | List vs, List ws ->
    List.length vs = List.length ws && List.for_all2 equal vs ws
  | Pair (a, b), Pair (c, d) -> equal a c && equal b d
  | (Unit | Bool _ | Int _ | Sym _ | List _ | Pair _), _ -> false

let rec compare v w =
  let tag = function
    | Unit -> 0 | Bool _ -> 1 | Int _ -> 2 | Sym _ -> 3 | List _ -> 4
    | Pair _ -> 5
  in
  match v, w with
  | Unit, Unit -> 0
  | Bool b, Bool c -> Bool.compare b c
  | Int i, Int j -> Int.compare i j
  | Sym s, Sym t -> String.compare s t
  | List vs, List ws -> List.compare compare vs ws
  | Pair (a, b), Pair (c, d) ->
    let c0 = compare a c in
    if c0 <> 0 then c0 else compare b d
  | _, _ -> Int.compare (tag v) (tag w)

(* Decimal digits straight into the buffer, as [string_of_int] writes
   them.  Digits are produced from the non-positive value, so [min_int]
   needs no special case. *)
let write_int buf n =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if n < 0 then (
    Buffer.add_char buf '-';
    digits n)
  else digits (-n)

let rec write buf = function
  | Unit -> Buffer.add_string buf "()"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> write_int buf i
  | Sym s -> Buffer.add_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf "; ";
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Pair (a, b) ->
    Buffer.add_char buf '(';
    write buf a;
    Buffer.add_string buf ", ";
    write buf b;
    Buffer.add_char buf ')'

let to_string v =
  let buf = Buffer.create 16 in
  write buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

type t = { name : string; args : Value.t list }

let make name args = { name; args }
let name op = op.name
let args op = op.args

let equal a b =
  String.equal a.name b.name
  && List.length a.args = List.length b.args
  && List.for_all2 Value.equal a.args b.args

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else List.compare Value.compare a.args b.args

let write buf op =
  Buffer.add_string buf op.name;
  match op.args with
  | [] -> ()
  | v :: vs ->
    Buffer.add_char buf '(';
    Value.write buf v;
    List.iter
      (fun v ->
        Buffer.add_string buf ", ";
        Value.write buf v)
      vs;
    Buffer.add_char buf ')'

let to_string op =
  let buf = Buffer.create 16 in
  write buf op;
  Buffer.contents buf

(* One string token: an operation always prints on one line, whatever
   the enclosing formatter's margin, so the notation (and the WAL built
   on it) round-trips. *)
let pp ppf op = Format.pp_print_string ppf (to_string op)

(** Operation invocations: a named operation together with its actual
    arguments, e.g. [insert(3)] or [withdraw(4)]. *)

type t = { name : string; args : Value.t list }

val make : string -> Value.t list -> t
(** [make name args] builds an operation.  The empty-argument form
    [make "dequeue" []] corresponds to the paper's [<dequeue,x,c>]. *)

val name : t -> string
val args : t -> Value.t list
val equal : t -> t -> bool
val compare : t -> t -> int
val write : Buffer.t -> t -> unit
(** Appends [name] alone, or [name(v1, v2)] with the arguments in
    {!Value.write} form.  {!pp} and {!to_string} print the same text. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

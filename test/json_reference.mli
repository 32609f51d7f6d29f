(** The JSON encoder and parser before the fast codec, retained as the
    executable specification for differential testing of
    {!Cocheck_obs.Json}. It works on the same tree type. Test-only. *)

type t = Cocheck_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape_string : string -> string
val to_string : t -> string
val to_string_pretty : t -> string
val of_string : string -> (t, string) result

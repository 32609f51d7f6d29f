(** Dependency-free JSON values, serialization and parsing.

    The observability layer emits JSONL event logs and run manifests and
    reads manifests back for reproducibility checks; the container carries
    no JSON library, so this implements the small subset the layer needs:
    the full value type, lossless float round-trips, string escaping, a
    recursive-descent parser, and accessor helpers. Numbers are kept as
    floats ([Int] is a printing convenience preserving integer rendering);
    non-finite floats serialize as the strings ["nan"], ["inf"], ["-inf"]
    (JSON has no literals for them) and parse back.

    The bytes are a contract: store cell keys are MD5 digests of
    {!to_string}, and stores, traces and manifests already written must
    keep matching. Every rendering and every parse result (tree or error
    string) is checked against the original codec in the test suite. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape_string : string -> string
(** The JSON string literal (including surrounding quotes) encoding the
    argument. Escapes quotes, backslashes and control characters; other
    bytes pass through untouched (UTF-8 transparency). *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Compact, single-line rendering (safe for JSONL). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for human-facing manifests. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (trailing whitespace allowed). Errors carry a
    character offset. *)

(** {2 Accessors} — total functions returning [option]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** Numbers, plus the non-finite encodings produced by {!to_string}. *)

val to_int_opt : t -> int option
(** Ints, and integral floats inside OCaml's int range; [None] for any
    other value, so an out-of-range number is refused, not wrapped. *)

val to_bool_opt : t -> bool option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option

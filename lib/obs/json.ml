type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Every line the campaign service reads or writes, and every store key
   digest, goes through this codec, so it is written for speed. Its bytes
   are a contract: records, traces and cell keys written by earlier
   versions must stay byte-identical, so the output of [to_buffer] and
   [to_string_pretty] and the trees and error strings of [of_string] are
   checked against the original codec (test/json_reference.ml). *)

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c ->
      let code = Char.code c in
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[code lsr 4];
      Buffer.add_char buf hex_digits.[code land 15]

(* Runs of bytes that need no escaping are copied with one blit each; a
   string with nothing to escape is a single run. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec run start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s start (i - start);
          add_escape buf c;
          run (i + 1) (i + 1)
      | _ -> run start (i + 1)
  in
  run 0 0;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* The digits of [n <= 0], most significant first. Working on the
   negative side reaches [min_int]. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* The bytes of [string_of_int i], written in place. *)
let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

(* The C primitive that [Printf]'s [%.12g] and [%.17g] end in
   (CamlinternalFormat.convert_float), called without rebuilding the
   format on every float: the same bytes, several times faster. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal that round-trips; integers render without exponent,
   as [%.0f] renders them (so -0.0 is "-0"), and are written in place. *)
let add_float buf x =
  if Float.is_nan x then Buffer.add_string buf "\"nan\""
  else if x = infinity then Buffer.add_string buf "\"inf\""
  else if x = neg_infinity then Buffer.add_string buf "\"-inf\""
  else if Float.is_integer x && Float.abs x < 1e15 then begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_neg_digits buf (-Float.to_int (Float.abs x))
  end
  else
    let s = format_float "%.12g" x in
    Buffer.add_string buf (if float_of_string s = x then s else format_float "%.17g" x)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float x -> add_float buf x
  | String s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (v :: rest) ->
      Buffer.add_char buf '[';
      to_buffer buf v;
      add_items buf rest;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: rest) ->
      Buffer.add_char buf '{';
      add_field buf field;
      add_fields buf rest;
      Buffer.add_char buf '}'

and add_items buf = function
  | [] -> ()
  | v :: rest ->
      Buffer.add_char buf ',';
      to_buffer buf v;
      add_items buf rest

and add_field buf (k, v) =
  add_escaped buf k;
  Buffer.add_char buf ':';
  to_buffer buf v

and add_fields buf = function
  | [] -> ()
  | field :: rest ->
      Buffer.add_char buf ',';
      add_field buf field;
      add_fields buf rest

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> to_buffer buf v
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            go (depth + 1) v)
          items;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            add_escaped buf k;
            Buffer.add_string buf ": ";
            go (depth + 1) v)
          fields;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

type reader = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Parse_error (msg, r.pos))
let advance r = r.pos <- r.pos + 1

(* The byte under the cursor, or the sentinel ['\000'] at the end of the
   input. A NUL byte in the text reads the same, so a caller to which the
   difference matters also checks [r.pos < r.n]. *)
let peek r = if r.pos < r.n then String.unsafe_get r.s r.pos else '\000'

let skip_ws r =
  while
    r.pos < r.n
    && match String.unsafe_get r.s r.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance r
  done

(* [c] is never the sentinel. *)
let expect r c = if peek r = c then advance r else fail r (Printf.sprintf "expected %C" c)

let literal r word v =
  let l = String.length word in
  let rec matches i = i = l || (r.s.[r.pos + i] = word.[i] && matches (i + 1)) in
  if r.pos + l <= r.n && matches 0 then begin
    r.pos <- r.pos + l;
    v
  end
  else fail r ("expected " ^ word)

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The four bytes at [i] as the code point of a [\u] escape, or -1. They
   are read as [int_of_string ("0x" ^ bytes)] reads them, which is what
   the codec has always accepted: a hex digit, then hex digits or
   underscores. *)
let hex4 s i =
  let rec go acc k =
    if k = i + 4 then acc
    else
      match s.[k] with
      | '_' -> go acc (k + 1)
      | c ->
          let d = hex_value c in
          if d < 0 then -1 else go ((acc * 16) + d) (k + 1)
  in
  let d0 = hex_value s.[i] in
  if d0 < 0 then -1 else go d0 (i + 1)

(* The rest of a string literal whose first backslash is under the
   cursor; [buf] holds the bytes before it. *)
let rec parse_escaped r buf =
  if r.pos >= r.n then fail r "unterminated string"
  else
    match r.s.[r.pos] with
    | '"' ->
        advance r;
        Buffer.contents buf
    | '\\' ->
        advance r;
        (if r.pos >= r.n then fail r "unterminated escape"
         else
           match r.s.[r.pos] with
           | '"' -> Buffer.add_char buf '"'; advance r
           | '\\' -> Buffer.add_char buf '\\'; advance r
           | '/' -> Buffer.add_char buf '/'; advance r
           | 'n' -> Buffer.add_char buf '\n'; advance r
           | 'r' -> Buffer.add_char buf '\r'; advance r
           | 't' -> Buffer.add_char buf '\t'; advance r
           | 'b' -> Buffer.add_char buf '\b'; advance r
           | 'f' -> Buffer.add_char buf '\012'; advance r
           | 'u' ->
               if r.pos + 4 >= r.n then fail r "truncated \\u escape";
               let code = hex4 r.s (r.pos + 1) in
               if code < 0 then fail r "bad \\u escape";
               r.pos <- r.pos + 5;
               (* Encode the code point as UTF-8 (BMP only: surrogate
                  pairs from escapes are passed through unpaired). *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
           | c -> fail r (Printf.sprintf "bad escape \\%c" c));
        parse_escaped r buf
    | c ->
        Buffer.add_char buf c;
        advance r;
        parse_escaped r buf

(* A literal without a backslash is one [String.sub] of the input. *)
let parse_string r =
  expect r '"';
  let start = r.pos in
  let rec scan i =
    if i >= r.n then begin
      r.pos <- r.n;
      fail r "unterminated string"
    end
    else
      match String.unsafe_get r.s i with
      | '"' ->
          r.pos <- i + 1;
          String.sub r.s start (i - start)
      | '\\' ->
          r.pos <- i;
          let buf = Buffer.create (i - start + 16) in
          Buffer.add_substring buf r.s start (i - start);
          parse_escaped r buf
      | _ -> scan (i + 1)
  in
  scan start

(* A number is the longest run of number bytes under the cursor. A run
   with no ['.'], ['e'] or ['E'] is read as an int, falling back to a
   float when it overflows; any other run is read as a float. An
   optionally signed run of at most 18 digits cannot overflow and is
   read in place. *)
let parse_number r =
  let start = r.pos in
  let fractional = ref false in
  while
    r.pos < r.n
    &&
    match String.unsafe_get r.s r.pos with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        fractional := true;
        true
    | _ -> false
  do
    advance r
  done;
  let stop = r.pos in
  let first = if stop > start then r.s.[start] else '\000' in
  let digits = if first = '-' || first = '+' then start + 1 else start in
  let rec all_digits i =
    i = stop && stop > digits
    || (i < stop && match r.s.[i] with '0' .. '9' -> all_digits (i + 1) | _ -> false)
  in
  if (not !fractional) && stop - digits <= 18 && all_digits digits then begin
    let v = ref 0 in
    for i = digits to stop - 1 do
      v := (!v * 10) + (Char.code r.s.[i] - Char.code '0')
    done;
    Int (if first = '-' then - !v else !v)
  end
  else
    let body = String.sub r.s start (stop - start) in
    match if !fractional then None else int_of_string_opt body with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt body with
        | Some f -> Float f
        | None -> fail r (Printf.sprintf "bad number %S" body))

let rec parse_value r =
  skip_ws r;
  match peek r with
  | '{' ->
      advance r;
      skip_ws r;
      if peek r = '}' then begin
        advance r;
        Obj []
      end
      else Obj (parse_fields r [])
  | '[' ->
      advance r;
      skip_ws r;
      if peek r = ']' then begin
        advance r;
        List []
      end
      else List (parse_items r [])
  | '"' -> String (parse_string r)
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | _ -> if r.pos >= r.n then fail r "unexpected end of input" else parse_number r

and parse_fields r acc =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  let v = parse_value r in
  skip_ws r;
  match peek r with
  | ',' ->
      advance r;
      parse_fields r ((k, v) :: acc)
  | '}' ->
      advance r;
      List.rev ((k, v) :: acc)
  | _ -> fail r "expected ',' or '}'"

and parse_items r acc =
  let v = parse_value r in
  skip_ws r;
  match peek r with
  | ',' ->
      advance r;
      parse_items r (v :: acc)
  | ']' ->
      advance r;
      List.rev (v :: acc)
  | _ -> fail r "expected ',' or ']'"

let of_string s =
  let r = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value r in
    skip_ws r;
    if r.pos < r.n then fail r "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | String "nan" -> Some Float.nan
  | String "inf" -> Some infinity
  | String "-inf" -> Some neg_infinity
  | _ -> None

(* Only integral floats inside OCaml's int range convert: beyond it
   [int_of_float] is unspecified, and 1e300 used to read as 0. The bounds
   are -2^62 and 2^62, both exact floats. *)
let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= Float.of_int min_int && f < -.Float.of_int min_int
    ->
      Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

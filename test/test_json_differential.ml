(* Differential oracle for the JSON codec: Cocheck_obs.Json against the
   original encoder and parser (json_reference.ml). Store records, cell
   keys, traces and protocol lines are its bytes, so the shipped codec
   must render every tree to the same bytes, compact and pretty, and
   parse every text, well-formed or not, to the same tree or the same
   error string. The generators lean on the cases where a faster codec
   could drift: subnormals, signed zeros, integral floats either side of
   the 1e15 integer-rendering cut, floats that need all 17 digits,
   strings in every escape class, ints at the edges of the int range,
   and numbers, escapes and literals cut or mutated anywhere. *)

module Json = Cocheck_obs.Json
module R = Json_reference

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (* any bit pattern: NaNs, infinities, subnormals, 17-digit values *)
        (4, map Int64.float_of_bits ui64);
        (* subnormals *)
        (2, map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 1 max_int));
        (1, oneofl [ 0.0; -0.0; Float.min_float; -.Float.min_float; Float.max_float ]);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; Float.epsilon ]);
        (* integral values either side of the 1e15 integer-rendering cut *)
        (3, map2 (fun k s -> s *. (1e15 +. float_of_int k)) (int_range (-2000) 2000)
              (oneofl [ 1.0; -1.0 ]));
        (1, map (fun k -> Float.of_int k) int);
        (* short decimals, which the 12-digit form renders *)
        (2, map2 (fun m e -> float_of_int m *. (10.0 ** float_of_int e))
              (int_range (-99999) 99999) (int_range (-320) 300));
        (* neighbours of short decimals, which need 17 digits *)
        (2, map (fun m -> Float.succ (float_of_int m /. 1000.0)) (int_range (-99999) 99999));
      ])

let int_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-1000) 1000);
        (2, int);
        (1, oneofl [ 0; min_int; max_int; min_int + 1; max_int - 1 ]);
      ])

(* Plain bytes, one byte of every escape class, and bytes the encoder
   passes through untouched: '/', DEL and UTF-8. *)
let char_gen =
  QCheck.Gen.(
    frequency
      [
        (6, char_range 'a' 'z');
        (2, oneofl [ ' '; '0'; '9'; '/'; '\127' ]);
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012' ]);
        (1, map Char.chr (int_range 0 31));
        (1, map Char.chr (int_range 128 255));
      ])

let string_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (4, string_size ~gen:char_gen (int_range 1 12));
        (2, string_size ~gen:(char_range 'a' 'z') (int_range 1 12));
      ])

let tree_gen =
  QCheck.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self depth ->
        let leaf =
          frequency
            [
              (1, return Json.Null);
              (1, map (fun b -> Json.Bool b) bool);
              (3, map (fun i -> Json.Int i) int_gen);
              (4, map (fun f -> Json.Float f) float_gen);
              (3, map (fun s -> Json.String s) string_gen);
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun l -> Json.List l) (list_size (int_range 0 5) (self (depth - 1))));
              ( 1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (int_range 0 5) (pair string_gen (self (depth - 1)))) );
            ]))

(* Texts: rendered trees, then cut and mutated with bytes that matter to
   the parser, so most of them exercise an error path part way in. *)
type mutation = Cut of int | Drop of int | Insert of int * char | Replace of int * char

let parser_byte =
  QCheck.Gen.oneofl
    [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; 'u'; 'n'; 't'; 'f'; '_'; '0'; '7'; 'a'; 'F';
      '-'; '+'; '.'; 'e'; 'E'; ' '; '\n'; '\000'; 'x' ]

let mutation_gen =
  QCheck.Gen.(
    let pos = int_range 0 10_000 in
    frequency
      [
        (1, map (fun p -> Cut p) pos);
        (2, map (fun p -> Drop p) pos);
        (2, map2 (fun p c -> Insert (p, c)) pos parser_byte);
        (2, map2 (fun p c -> Replace (p, c)) pos parser_byte);
      ])

let mutate text m =
  let n = String.length text in
  if n = 0 then text
  else
    match m with
    | Cut p -> String.sub text 0 (p mod n)
    | Drop p ->
        let p = p mod n in
        String.sub text 0 p ^ String.sub text (p + 1) (n - p - 1)
    | Insert (p, c) ->
        let p = p mod (n + 1) in
        String.sub text 0 p ^ String.make 1 c ^ String.sub text p (n - p)
    | Replace (p, c) -> String.mapi (fun i b -> if i = p mod n then c else b) text

let text_gen =
  QCheck.Gen.(
    let* tree = tree_gen in
    let* pretty = bool in
    let text = if pretty then Json.to_string_pretty tree else Json.to_string tree in
    let+ mutations = list_size (int_range 0 3) mutation_gen in
    List.fold_left mutate text mutations)

(* Short texts from parser tokens alone: numbers, escapes and literals in
   every state of completion. *)
let token_text_gen =
  QCheck.Gen.(
    let token =
      oneofl
        [ "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u"; "\\u00e9"; "\\u1_2_"; "\\u_123";
          "\\uD83D"; "\\x"; "true"; "tru"; "false"; "null"; "nul"; "0"; "-"; "+"; "12";
          "-0"; "007"; "1.5"; "1e5"; "1E-3"; "."; "e"; "99999999999999999999";
          "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
          "123456789012345678"; "1e999"; " "; "\t"; "a"; "\000" ]
    in
    map (String.concat "") (list_size (int_range 0 8) token))

(* ------------------------------------------------------------------ *)
(* Comparison                                                           *)
(* ------------------------------------------------------------------ *)

(* Trees compare with floats by bit pattern: -0.0 must stay -0.0. *)
let rec same a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, x) (k', y) -> String.equal k k' && same x y) xs ys
  | (Json.Float _ | Json.List _ | Json.Obj _), _ | _, (Json.Float _ | Json.List _ | Json.Obj _)
    ->
      false
  | a, b -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let show_result = function
  | Ok v -> "Ok " ^ R.to_string v
  | Error e -> "Error " ^ e

let parses_as_reference text =
  let got = Json.of_string text and want = R.of_string text in
  same_result got want
  || QCheck.Test.fail_reportf "text %S:@ codec %s@ reference %s" text (show_result got)
       (show_result want)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let arb_tree = QCheck.make ~print:R.to_string tree_gen

let test_compact =
  QCheck.Test.make ~name:"to_string = reference" ~count:2000 arb_tree (fun t ->
      String.equal (Json.to_string t) (R.to_string t))

let test_pretty =
  QCheck.Test.make ~name:"to_string_pretty = reference" ~count:1000 arb_tree (fun t ->
      String.equal (Json.to_string_pretty t) (R.to_string_pretty t))

let test_floats =
  QCheck.Test.make ~name:"floats render as the reference" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun f -> String.equal (Json.to_string (Json.Float f)) (R.to_string (Json.Float f)))

let test_escapes =
  QCheck.Test.make ~name:"escape_string = reference" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") string_gen)
    (fun s -> String.equal (Json.escape_string s) (R.escape_string s))

let test_parse_rendered =
  QCheck.Test.make ~name:"of_string = reference on rendered and mutated texts" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") text_gen)
    parses_as_reference

let test_parse_tokens =
  QCheck.Test.make ~name:"of_string = reference on token texts" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") token_text_gen)
    parses_as_reference

(* Edge texts pinned by hand, each naming a branch of the parser. *)
let test_edge_texts () =
  List.iter
    (fun text ->
      if not (same_result (Json.of_string text) (R.of_string text)) then
        Alcotest.failf "text %S: codec %s, reference %s" text
          (show_result (Json.of_string text))
          (show_result (R.of_string text)))
    [ ""; " "; "\000"; "x"; "-"; "+5"; "-0"; "007"; "1-2"; "1e"; ".5"; "1.";
      "99999999999999999999"; "999999999999999999"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905"; "1e999";
      "\"abc"; "\"a\\"; "\"\\u12\""; "\"\\u1_23\""; "\"\\u_123\""; "\"\\uzzzz\"";
      "\"\\uFFFF\""; "\"\\u0000\""; "\"\\q\""; "\"a\\nb\""; "\"\\/\""; "[1,]"; "[1 2]";
      "{\"a\":}"; "{\"a\" 1}"; "{1:2}"; "{\"a\":1,}"; "{ }"; "[ ]"; "tru"; "nul"; "nulll";
      "falsey"; "1 2"; "[1,\000]"; "{\"k\":\"v\"}  \n" ]

let () =
  Alcotest.run "cocheck.json-differential"
    [
      ( "encode",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ test_compact; test_pretty; test_floats; test_escapes ] );
      ( "parse",
        Alcotest.test_case "edge texts" `Quick test_edge_texts
        :: List.map
             (QCheck_alcotest.to_alcotest ~long:false)
             [ test_parse_rendered; test_parse_tokens ] );
    ]

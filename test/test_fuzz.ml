(* Byte-level fuzzing of the decoders that read outside bytes: request
   frames ([Protocol.request_of_json] behind [Json.of_string]), campaign
   specs ([Spec.of_json]) and store records ([Store.find] on a record file
   holding arbitrary bytes). Inputs are random bytes and mutations of valid
   encodings — byte flips, insertions, deletions and truncations of the
   text, and subtree replacements in the parsed tree, which reach past the
   parser into the field decoders. Every outcome must be an [Error] or a
   miss (or a success); an exception escaping a decoder would end a
   connection thread or a campaign. *)

module Json = Cocheck_obs.Json
module E = Cocheck_experiments
module Strategy = Cocheck_core.Strategy
module Platform = Cocheck_model.Platform
module Config = Cocheck_sim.Config

(* ------------------------------------------------------------------ *)
(* Valid seeds                                                          *)
(* ------------------------------------------------------------------ *)

let small_spec =
  E.Spec.make ~name:"fuzz" ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
    ~axis:(E.Spec.Bandwidth_gbs [ 40.0; 80.0 ])
    ~reps:3 ~seed:7 ~days:2.0
    ~failure_dist:(Cocheck_sim.Failure_trace.Weibull { shape = 0.7 })
    ~interference_alpha:0.5
    ~multilevel:
      {
        Config.levels =
          [
            Config.Snapshot
              {
                Config.sl_period_s = 600.0;
                sl_cost_s = 5.0;
                sl_recovery_s = 30.0;
                sl_survival = 0.5;
              };
            Config.Buffer
              {
                Config.bl_capacity_gb = 1000.0;
                bl_bandwidth_gbs = 100.0;
                bl_flush_gbs = Some 20.0;
                bl_survival = 1.0;
              };
          ];
      }
    ()

let specs = [ E.Fig1.spec; E.Fig2.spec; small_spec ]

let requests =
  E.Protocol.
    [
      Ping;
      Stats;
      Shutdown;
      Campaign { spec = small_spec; progress = true };
      Campaign { spec = E.Fig1.spec; progress = false };
      Status { spec = E.Fig2.spec };
      Bound { platform = Platform.prospective ~bandwidth_gbs:40.0 () };
    ]

let request_texts =
  List.mapi (fun id r -> Json.to_string (E.Protocol.request_to_json ~id r)) requests

let spec_texts = List.map (fun s -> Json.to_string (E.Spec.to_json s)) specs

(* ------------------------------------------------------------------ *)
(* Mutations                                                            *)
(* ------------------------------------------------------------------ *)

(* Bytes that steer a JSON parser: structure, quotes, escapes, digits and
   number syntax, plus a few arbitrary ones. *)
let interesting = "{}[]\":,\\-+.eE0123456789tfnu \n\x00\xff"

let byte_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map Char.chr (int_range 0 255));
        (2, map (String.get interesting) (int_bound (String.length interesting - 1)));
      ])

type edit = Flip of int * char | Insert of int * char | Delete of int | Truncate of int

let edit_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i c -> Flip (i, c)) nat byte_gen);
        (2, map2 (fun i c -> Insert (i, c)) nat byte_gen);
        (2, map (fun i -> Delete i) nat);
        (1, map (fun i -> Truncate i) nat);
      ])

let apply_edit s = function
  | _ when s = "" -> s
  | Flip (i, c) ->
      let b = Bytes.of_string s in
      Bytes.set b (i mod String.length s) c;
      Bytes.to_string b
  | Insert (i, c) ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)
  | Delete i ->
      let i = i mod String.length s in
      String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | Truncate i -> String.sub s 0 (i mod String.length s)

(* JSON values of every shape, small. *)
let json_gen =
  let open QCheck.Gen in
  let number =
    oneof [ float; oneofl [ nan; infinity; neg_infinity; -0.0; 1e308; 5e-324 ] ]
  in
  let text n = string_size ~gen:printable (int_bound n) in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]));
        (2, map (fun f -> Json.Float f) number);
        (2, map (fun s -> Json.String s) (text 8));
      ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         let member n = pair (text 6) (self n) in
         if n = 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 3) (self (n - 1))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 3) (member (n - 1))));
             ])

(* Replace the [k]-th subtree (pre-order, modulo the tree's size) with
   [v]: the document still parses, so the field decoders see it. *)
let replace_subtree tree k v =
  let rec size = function
    | Json.List l -> 1 + List.fold_left (fun n x -> n + size x) 0 l
    | Json.Obj l -> 1 + List.fold_left (fun n (_, x) -> n + size x) 0 l
    | _ -> 1
  in
  let target = k mod size tree in
  let rec go i t =
    (* [i] is the pre-order index of [t]; returns the rewritten tree and
       the index after its subtree. *)
    if i = target then (v, i + size t)
    else
      match t with
      | Json.List l ->
          let l, next =
            List.fold_left
              (fun (acc, j) x ->
                let x, j = go j x in
                (x :: acc, j))
              ([], i + 1) l
          in
          (Json.List (List.rev l), next)
      | Json.Obj l ->
          let l, next =
            List.fold_left
              (fun (acc, j) (key, x) ->
                let x, j = go j x in
                ((key, x) :: acc, j))
              ([], i + 1) l
          in
          (Json.Obj (List.rev l), next)
      | leaf -> (leaf, i + 1)
  in
  fst (go 0 tree)

type input = Random of string | Edited of int * edit list | Replaced of int * int * Json.t

let show_input seeds = function
  | Random s -> Printf.sprintf "random %S" s
  | Edited (i, edits) ->
      Printf.sprintf "seed %d with %d edits: %S" i (List.length edits)
        (List.fold_left apply_edit (List.nth seeds i) edits)
  | Replaced (i, k, v) -> Printf.sprintf "seed %d, subtree %d := %s" i k (Json.to_string v)

let input_gen seeds =
  let n = List.length seeds in
  QCheck.Gen.(
    frequency
      [
        (2, map (fun s -> Random s) (string_size ~gen:byte_gen (int_bound 64)));
        ( 3,
          map2
            (fun i e -> Edited (i, e))
            (int_bound (n - 1))
            (list_size (int_range 1 6) edit_gen) );
        (3, map3 (fun i k v -> Replaced (i, k, v)) (int_bound (n - 1)) nat json_gen);
      ])

let text_of seeds = function
  | Random s -> s
  | Edited (i, edits) -> List.fold_left apply_edit (List.nth seeds i) edits
  | Replaced (i, k, v) -> (
      match Json.of_string (List.nth seeds i) with
      | Ok tree -> Json.to_string (replace_subtree tree k v)
      | Error e -> failwith ("valid seed does not parse: " ^ e))

let arb seeds = QCheck.make ~print:(show_input seeds) (input_gen seeds)

(* The property: decoding the text returns, whatever it returns. *)
let total ~what decode seeds input =
  let text = text_of seeds input in
  match Json.of_string text with
  | Error _ -> true
  | Ok j -> (
      match decode j with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s raised %s on %S" what (Printexc.to_string e) text)

let test_request_of_json =
  QCheck.Test.make ~name:"request_of_json_never_raises" ~count:3000 (arb request_texts)
    (total ~what:"Protocol.request_of_json" E.Protocol.request_of_json request_texts)

let test_spec_of_json =
  QCheck.Test.make ~name:"spec_of_json_never_raises" ~count:3000 (arb spec_texts)
    (total ~what:"Spec.of_json" E.Spec.of_json spec_texts)

(* The valid seeds decode to what was encoded: the mutations start from
   real frames, not from text the decoder already rejects. *)
let test_seeds_decode () =
  List.iter2
    (fun text r ->
      match Result.bind (Json.of_string text) E.Protocol.request_of_json with
      | Ok (_, r') -> Alcotest.(check bool) "request round-trips" true (r' = r)
      | Error e -> Alcotest.failf "seed request rejected: %s" e)
    request_texts requests;
  List.iter
    (fun text ->
      match Result.bind (Json.of_string text) E.Spec.of_json with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed spec rejected: %s" e)
    spec_texts

(* ------------------------------------------------------------------ *)
(* Store records                                                        *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let store_dir =
  lazy
    (let dir = Filename.temp_file "cocheck-fuzz-store" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o755;
     at_exit (fun () -> if Sys.file_exists dir then rm_rf dir);
     dir)

let record_key = String.make 32 'a'

let record_text =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "cocheck.cell-result");
         ("key", Json.String record_key);
         ("waste_ratio", Json.Float 0.4321);
       ])

(* Each case writes its bytes as the key's record file and reads it
   through a freshly opened store, so the index never answers for the
   disk. *)
let test_store_find =
  QCheck.Test.make ~name:"store_find_is_a_value_or_a_miss" ~count:1000 (arb [ record_text ])
    (fun input ->
      let text = text_of [ record_text ] input in
      let dir = Lazy.force store_dir in
      let store = E.Store.open_ dir in
      let path = E.Store.path_of_key store record_key in
      let shard = Filename.dirname path in
      if not (Sys.file_exists shard) then Sys.mkdir shard 0o755;
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      match E.Store.find (E.Store.open_ dir) record_key with
      | Some _ | None -> true
      | exception e ->
          QCheck.Test.fail_reportf "Store.find raised %s on %S" (Printexc.to_string e) text)

let () =
  Alcotest.run "cocheck.fuzz"
    [
      ( "decoders",
        Alcotest.test_case "valid seeds decode" `Quick test_seeds_decode
        :: List.map (QCheck_alcotest.to_alcotest ~long:false)
             [ test_request_of_json; test_spec_of_json; test_store_find ] );
    ]

(* Golden-trace regression: every paper strategy on three fixed seeds must
   reproduce the stored [Simulator.result] fixtures field-by-field (floats
   compared as hexadecimal literals, i.e. bit-exactly). The fixture was
   generated from the pre-decomposition monolithic simulator, so a green
   run proves the arbiter/lifecycle/checkpoint/failure split is
   behavior-preserving. Appended blocks run Oblivious-Fixed and Least-Waste
   with a 400 TB / 1 TB/s burst buffer on two seeds; they pin the storage
   hierarchy's semantics for that buffer level. The last blocks run
   Least-Waste, Ordered-NB-Daly and Ordered-Daly on two seeds with one
   node-local snapshot level, then with a snapshot level above a
   flush-edge burst buffer; they pin the snapshot path. Regenerate (only on an intentional behavior
   change) with:

     dune exec test/golden/gen_golden.exe > test/golden_results.txt *)

(* dune runtest runs with cwd = the test build dir; `dune exec
   test/test_golden.exe` (the CI step) runs from the project root. *)
let fixture_path () =
  if Sys.file_exists "golden_results.txt" then "golden_results.txt"
  else "test/golden_results.txt"

let read_fixture path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let first_diff expected actual =
  let e = String.split_on_char '\n' expected
  and a = String.split_on_char '\n' actual in
  let rec go i = function
    | [], [] -> None
    | eh :: _, [] -> Some (i, eh, "<missing>")
    | [], ah :: _ -> Some (i, "<missing>", ah)
    | eh :: et, ah :: at -> if String.equal eh ah then go (i + 1) (et, at) else Some (i, eh, ah)
  in
  go 1 (e, a)

let test_golden () =
  let expected = read_fixture (fixture_path ()) in
  let actual = Golden_format.all_runs () in
  match first_diff expected actual with
  | None -> ()
  | Some (line, e, a) ->
      Alcotest.failf
        "golden trace diverged at line %d:@\n  expected: %s@\n  actual:   %s" line e a

let () =
  Alcotest.run "golden"
    [
      ( "paper-seven",
        [ Alcotest.test_case "bit-identical on 3 seeds" `Quick test_golden ] );
    ]

(* Tests for the sharded results store: concurrent writers racing on the
   same keys, corrupt/truncated records demoting to a miss under a live
   reader, records outside the shards reading as misses, index eviction
   bounds, and orphan-tmp compaction. *)

module Json = Cocheck_obs.Json
module E = Cocheck_experiments

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "cocheck-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* 32-hex keys shaped like Spec.cell_key digests. *)
let key_of i = Printf.sprintf "%032x" (i * 0x9e3779b9)
let ratio_of i = 0.01 *. float_of_int (i mod 97)

let record ~key ratio =
  Json.Obj
    [
      ("schema", Json.String "cocheck.cell-result");
      ("key", Json.String key);
      ("waste_ratio", Json.Float ratio);
    ]

let add store i =
  let key = key_of i in
  E.Store.add store ~key ~ratio:(ratio_of i) (record ~key (ratio_of i))

(* ------------------------------------------------------------------ *)

let test_sharded_layout () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      let key = key_of 1 in
      let path = E.Store.path_of_key store key in
      Alcotest.(check string) "record lands in its 2-hex shard"
        (Filename.concat (Filename.concat dir (String.sub key 0 2)) (key ^ ".json"))
        path;
      Alcotest.(check bool) "record file exists" true (Sys.file_exists path);
      Alcotest.(check (option (float 0.0))) "find returns the ratio" (Some (ratio_of 1))
        (E.Store.find store key);
      Alcotest.(check int) "one record on disk" 1 (E.Store.record_count store);
      (* A fresh open (cold index) reads the same record from disk. *)
      let reopened = E.Store.open_ dir in
      Alcotest.(check (option (float 0.0))) "fresh open reads it back" (Some (ratio_of 1))
        (E.Store.find reopened key);
      Alcotest.(check int) "disk read counted as a load" 1 (E.Store.stats reopened).E.Store.loads)

let test_racing_writers () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      let n_keys = 25 and n_threads = 8 in
      (* Every thread writes every key: maximal same-key contention. The
         records are deterministic, so whichever rename lands last must
         leave the canonical bytes. *)
      let worker _ = for i = 0 to n_keys - 1 do add store i done in
      let threads = List.init n_threads (fun t -> Thread.create worker t) in
      List.iter Thread.join threads;
      Alcotest.(check int) "one record per key survives the race" n_keys
        (E.Store.record_count store);
      Alcotest.(check int) "no orphan temps after clean writers" 0 (E.Store.compact store);
      (* Read everything back through a cold index: every surviving file
         must be intact JSON with the deterministic ratio. *)
      let cold = E.Store.open_ dir in
      for i = 0 to n_keys - 1 do
        Alcotest.(check (option (float 0.0)))
          (Printf.sprintf "key %d intact after racing writers" i)
          (Some (ratio_of i))
          (E.Store.find cold (key_of i))
      done)

let test_corrupt_record_demotes_live_reader () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      add store 2;
      (* A separate reading process: fresh store, cold index. *)
      let reader = E.Store.open_ dir in
      (* A live reader hammers a healthy key while we corrupt another. *)
      let stop = Atomic.make false in
      let healthy_ok = Atomic.make true in
      let th =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              if E.Store.find reader (key_of 1) <> Some (ratio_of 1) then
                Atomic.set healthy_ok false;
              Thread.yield ()
            done)
          ()
      in
      let corrupt path bytes =
        let oc = open_out path in
        output_string oc bytes;
        close_out oc
      in
      (* Truncated JSON. *)
      corrupt (E.Store.path_of_key reader (key_of 2)) "{\"waste_ratio\": 0.1";
      Alcotest.(check (option (float 0.0))) "truncated record is a miss" None
        (E.Store.find reader (key_of 2));
      (* Valid JSON, wrong shape. *)
      corrupt (E.Store.path_of_key reader (key_of 2)) "{\"schema\": \"nope\"}";
      Alcotest.(check (option (float 0.0))) "shape-less record is a miss" None
        (E.Store.find reader (key_of 2));
      Alcotest.(check bool) "misses counted" true
        ((E.Store.stats reader).E.Store.misses >= 2);
      (* Re-simulation overwrites the corpse and the key heals. *)
      add reader 2;
      Alcotest.(check (option (float 0.0))) "rewrite heals the key" (Some (ratio_of 2))
        (E.Store.find reader (key_of 2));
      Atomic.set stop true;
      Thread.join th;
      Alcotest.(check bool) "live reader never saw the healthy key corrupted" true
        (Atomic.get healthy_ok))

let test_root_record_is_miss () =
  with_temp_dir (fun dir ->
      (* Records live only in shards: a record at the store root (the old
         flat layout) is neither read nor seen. *)
      let key = key_of 7 in
      let oc = open_out (Filename.concat dir (key ^ ".json")) in
      output_string oc (Json.to_string_pretty (record ~key (ratio_of 7)));
      close_out oc;
      let store = E.Store.open_ dir in
      Alcotest.(check bool) "contains misses a root record" false (E.Store.contains store key);
      Alcotest.(check (option (float 0.0))) "find misses a root record" None
        (E.Store.find store key);
      Alcotest.(check int) "root record not counted" 0 (E.Store.record_count store);
      Alcotest.(check bool) "root record left in place" true
        (Sys.file_exists (Filename.concat dir (key ^ ".json")));
      Alcotest.(check bool) "no shard written" false
        (Sys.file_exists (E.Store.path_of_key store key)))

let test_eviction_bounds () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ ~capacity:4 dir in
      for i = 0 to 9 do add store i done;
      Alcotest.(check bool) "index stays within capacity" true (E.Store.indexed store <= 4);
      Alcotest.(check int) "overflow evicted FIFO" 6 (E.Store.stats store).E.Store.evictions;
      (* Evicted keys are still served — from disk, re-entering the index. *)
      for i = 0 to 9 do
        Alcotest.(check (option (float 0.0)))
          (Printf.sprintf "evicted key %d falls back to disk" i)
          (Some (ratio_of i)) (E.Store.find store (key_of i))
      done;
      Alcotest.(check bool) "index still bounded after re-loads" true
        (E.Store.indexed store <= 4))

let test_compact_removes_orphans () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      add store 2;
      (* Litter from crashed writers: at the root and inside a shard. *)
      let orphan path =
        let oc = open_out path in
        output_string oc "{\"half\": ";
        close_out oc
      in
      orphan (E.Store.path_of_key store (key_of 1) ^ ".4242-0.tmp");
      orphan (Filename.concat dir "stale.tmp");
      Alcotest.(check int) "both orphans swept" 2 (E.Store.compact store);
      Alcotest.(check int) "records survive compaction" 2 (E.Store.record_count store);
      Alcotest.(check int) "second sweep finds nothing" 0 (E.Store.compact store))

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "sharded layout and reopen" `Quick test_sharded_layout;
          Alcotest.test_case "racing writers stay atomic" `Quick test_racing_writers;
          Alcotest.test_case "corrupt record demotes under a live reader" `Quick
            test_corrupt_record_demotes_live_reader;
          Alcotest.test_case "root record is a miss" `Quick test_root_record_is_miss;
          Alcotest.test_case "index eviction bounds" `Quick test_eviction_bounds;
          Alcotest.test_case "compact removes orphan temps" `Quick
            test_compact_removes_orphans;
        ] );
    ]

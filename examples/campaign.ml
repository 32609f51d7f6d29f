(* The campaign engine in one sitting: describe an experiment as a typed
   spec, run it cold against a results store, then run it again and watch
   every point load from cache instead of re-simulating.

     dune exec examples/campaign.exe *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module E = Cocheck_experiments

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  (* One value holds the whole experiment: platform, strategy set, swept
     axis, replication protocol. It serializes exactly — save it next to
     the results and the run is reproducible from the file alone. *)
  let spec =
    E.Spec.make ~name:"example"
      ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
      ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
      ~axis:(E.Spec.Mtbf_years [ 2.0; 10.0 ])
      ~reps:2 ~seed:42 ~days:2.0 ()
  in
  (* The spec file and the results store share one scratch directory,
     removed at exit. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cocheck-example" in
  if Sys.file_exists dir then rm_rf dir;
  Sys.mkdir dir 0o755;
  let store = Filename.concat dir "store" in
  E.Spec.save ~path:(Filename.concat dir "campaign.json") spec;
  Printf.printf "spec digest: %s\n%!" (E.Spec.digest spec);
  Pool.with_pool (fun pool ->
      let report label (o : E.Runner.outcome) =
        Printf.printf "%-10s simulated=%d baselines=%d loaded=%d\n%!" label
          o.E.Runner.simulated o.E.Runner.baselines o.E.Runner.loaded
      in
      let store = E.Store.open_ store in
      let cold = E.Runner.run ~pool ~store spec in
      report "cold:" cold;
      (* Every (cell, strategy, replication) landed as one digest-keyed
         JSON record; a re-run — or a run resumed after a crash — loads
         them instead of simulating. *)
      let warm = E.Runner.run ~pool ~store spec in
      report "warm:" warm;
      print_string (E.Figures.render (E.Runner.to_figure cold)));
  rm_rf dir

let hours = Cocheck_util.Units.hours

(* Table 1 of the paper (APEX Workflows report, LANL subset), cores mapped
   to nodes at 8 cores/node to match the paper's system-MTBF arithmetic. *)

let eap =
  App_class.make ~name:"EAP" ~workload_pct:66.0 ~walltime_s:(hours 262.4) ~nodes:2048
    ~input_pct:3.0 ~output_pct:105.0 ~ckpt_pct:160.0 ()

let lap =
  App_class.make ~name:"LAP" ~workload_pct:5.5 ~walltime_s:(hours 64.0) ~nodes:512
    ~input_pct:5.0 ~output_pct:220.0 ~ckpt_pct:185.0 ()

let silverton =
  App_class.make ~name:"Silverton" ~workload_pct:16.5 ~walltime_s:(hours 128.0) ~nodes:4096
    ~input_pct:70.0 ~output_pct:43.0 ~ckpt_pct:350.0 ()

let vpic =
  App_class.make ~name:"VPIC" ~workload_pct:12.0 ~walltime_s:(hours 157.2) ~nodes:3750
    ~input_pct:10.0 ~output_pct:270.0 ~ckpt_pct:85.0 ()

let lanl_workload = [ eap; lap; silverton; vpic ]

let cielo_nodes = (Platform.cielo ()).Platform.nodes

let scaled_workload ~target =
  let factor = float_of_int target.Platform.nodes /. float_of_int cielo_nodes in
  List.map (App_class.scale_nodes ~factor) lanl_workload

let default_workload platform =
  if platform.Platform.name = "Cielo" then lanl_workload
  else scaled_workload ~target:platform

let table1 =
  let open Cocheck_util in
  let t =
    Table.create
      ~headers:
        [
          "Workflow";
          "Workload %";
          "Work time (h)";
          "Cores";
          "Input (% mem)";
          "Output (% mem)";
          "Ckpt (% mem)";
        ]
  in
  List.iter
    (fun (c : App_class.t) ->
      Table.add_row t
        [
          c.name;
          Printf.sprintf "%.1f" c.workload_pct;
          Printf.sprintf "%.1f" (Units.to_hours c.walltime_s);
          string_of_int (c.nodes * 8);
          Printf.sprintf "%.0f" c.input_pct;
          Printf.sprintf "%.0f" c.output_pct;
          Printf.sprintf "%.0f" c.ckpt_pct;
        ])
    lanl_workload;
  t

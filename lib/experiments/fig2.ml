module Platform = Cocheck_model.Platform

let spec =
  {
    Fig1.spec with
    Spec.name = "fig2";
    platform = Platform.cielo ~bandwidth_gbs:40.0 ();
    axis = Spec.Mtbf_years [ 2.0; 3.0; 5.0; 10.0; 20.0; 35.0; 50.0 ];
  }

let run ~pool ?(reps = spec.reps) ?(seed = spec.seed) ?(days = spec.days) () =
  Runner.to_figure (Runner.run ~pool { spec with reps; seed; days })

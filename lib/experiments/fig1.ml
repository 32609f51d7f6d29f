module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy

let spec =
  Spec.make ~name:"fig1"
    ~platform:(Platform.cielo ~node_mtbf_years:2.0 ())
    ~strategies:Strategy.paper_seven
    ~axis:(Spec.Bandwidth_gbs [ 40.0; 60.0; 80.0; 100.0; 120.0; 140.0; 160.0 ])
    ~reps:100 ~seed:42 ~days:60.0 ()

let run ~pool ?(reps = spec.reps) ?(seed = spec.seed) ?(days = spec.days) () =
  Runner.to_figure (Runner.run ~pool { spec with reps; seed; days })

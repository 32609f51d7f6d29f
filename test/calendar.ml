(* Test-side shorthands over the calendar's surviving API: a closure
   scheduled as a freshly registered source, and a heap pop that reads the
   root piecewise as [(priority, tag, payload)]. *)

let at e ?(kind = 0) ~time f =
  Cocheck_des.Engine.schedule_src e ~kind ~time (Cocheck_des.Engine.source e f)

let pop q =
  let module P = Cocheck_util.Pqueue in
  if P.is_empty q then None
  else
    let root = (P.min_priority q, P.min_tag q, P.min_value q) in
    P.drop_min q;
    Some root

(* Equations (1) and (2) share one shape: W_i = v × Σ_{j ≠ i} term(j),
   where v is the service time of the selected candidate and term(j)
   depends on which pool j belongs to. Every candidate's term is affine both in the selected service time [v]
   and in the evaluation instant [now] once the time-dependent inputs are
   written against absolute clocks (w_j = now − at_j for IO waits,
   e_j = now − last_commit_end_j for checkpoint exposure):

     Io   j:  n_j·(now − at_j + v)               = n_j·now − n_j·at_j + n_j·v
     Ckpt j:  q_j²/M·(r_j + now − lce_j + v/2)   = k_j·now + k_j·(r_j − lce_j) + k_j/2·v

   with k_j = q_j²/M. So the pool-wide sum collapses to three scalars

     Σ_j term_j(now, v) = A·now + B + S1·v

   maintained in O(1) on every add/remove, and the Eq. (1)/(2) waste of
   candidate i is recovered by self-exclusion:

     W_i = v_i · (A·now + B + S1·v_i − term_i(now, v_i)).

   Each key's per-term evaluation keeps the exact float expression of the
   list oracle's direct sum; only the summation order differs, which is
   why the arbiter ships with a differential oracle (see
   test/lw_reference.ml). *)
module Aggregate = struct
  (* Members live in a struct-of-arrays pool: float inputs and the scalars
     each member contributed at add time sit in flat [float array]s (reads
     and writes unbox), tags and node counts in [int array]s, and the
     key → slot index is a flat [int array] — keys are small and dense
     (the simulator keys by request-record build number) — so the
     simulator-facing [add_io]/[add_ckpt]/[remove]/[waste] cycle allocates
     nothing and probes no hash. The contribution scalars are stored, not
     recomputed, so [remove] subtracts exactly what was added; removal
     swaps the last slot into the hole, keeping slots dense. *)

  (* Each running sum is Kahan–Babuška compensated: adds and removals of
     large members would otherwise leave ulp-sized residue behind a
     now-small pool, and the drift (≈ ops × ulp(historical max)) can reach
     the magnitude of a small survivor's waste. Compensation pushes the
     drift to second order; the drain-point reset clears even that. The
     six scalars live in [acc] — (sum, compensation) pairs at (0,1) for A
     the coefficient of [now], (2,3) for B the constant part, (4,5) for S1
     the coefficient of [v] — as float-array stores, unlike mutable float
     fields on this mixed record, don't box. *)
  type t = {
    node_mtbf_s : float;
    mutable index : int array;  (* key → slot, -1 when absent *)
    mutable n : int;  (* live slots: 0..n-1 are dense *)
    mutable e_key : int array;
    mutable e_tag : int array;  (* tag_io | tag_ckpt *)
    mutable e_nodes : int array;
    mutable e_service : float array;  (* service_s (io) | ckpt_s (ckpt) *)
    mutable e_x1 : float array;  (* enqueued_at (io) | recovery_s (ckpt) *)
    mutable e_x2 : float array;  (* unused (io) | last_commit_end (ckpt) *)
    mutable e_da : float array;  (* contribution to A recorded at add *)
    mutable e_db : float array;  (* … to B *)
    mutable e_ds1 : float array;  (* … to S1 *)
    acc : float array;
  }

  let tag_io = 0
  let tag_ckpt = 1

  let create ~node_mtbf_s =
    if node_mtbf_s <= 0.0 then
      invalid_arg "Least_waste.Aggregate.create: MTBF must be positive";
    {
      node_mtbf_s;
      index = [||];
      n = 0;
      e_key = [||];
      e_tag = [||];
      e_nodes = [||];
      e_service = [||];
      e_x1 = [||];
      e_x2 = [||];
      e_da = [||];
      e_db = [||];
      e_ds1 = [||];
      acc = Array.make 6 0.0;
    }

  let grow t =
    let cap = Array.length t.e_key in
    let cap' = if cap = 0 then 16 else 2 * cap in
    let gi a = Array.append a (Array.make (cap' - cap) 0) in
    let gf a = Array.append a (Array.make (cap' - cap) 0.0) in
    t.e_key <- gi t.e_key;
    t.e_tag <- gi t.e_tag;
    t.e_nodes <- gi t.e_nodes;
    t.e_service <- gf t.e_service;
    t.e_x1 <- gf t.e_x1;
    t.e_x2 <- gf t.e_x2;
    t.e_da <- gf t.e_da;
    t.e_db <- gf t.e_db;
    t.e_ds1 <- gf t.e_ds1

  (* One Kahan–Babuška (Neumaier) step on the (sum, compensation) pair at
     [acc.(i), acc.(i+1)] — the float expression of the retired
     tuple-returning step, verbatim. *)
  let[@inline] kstep acc i x =
    let sum = acc.(i) in
    let comp = acc.(i + 1) in
    let s = sum +. x in
    let comp =
      if Float.abs sum >= Float.abs x then comp +. (sum -. s +. x)
      else comp +. (x -. s +. sum)
    in
    acc.(i) <- s;
    acc.(i + 1) <- comp

  let[@inline] slot_of t key =
    if key >= 0 && key < Array.length t.index then t.index.(key) else -1

  let alloc_slot t ~key =
    if key < 0 then invalid_arg "Least_waste.Aggregate: negative key";
    let cap = Array.length t.index in
    if key >= cap then begin
      let bigger = Array.make (max 16 (2 * (key + 1))) (-1) in
      Array.blit t.index 0 bigger 0 cap;
      t.index <- bigger
    end
    else if t.index.(key) >= 0 then invalid_arg "Least_waste.Aggregate: duplicate key";
    if t.n = Array.length t.e_key then grow t;
    let slot = t.n in
    t.n <- slot + 1;
    t.e_key.(slot) <- key;
    t.index.(key) <- slot;
    slot

  let[@inline] add_io t ~key ~nodes ~service_s ~enqueued_at =
    let slot = alloc_slot t ~key in
    t.e_tag.(slot) <- tag_io;
    t.e_nodes.(slot) <- nodes;
    t.e_service.(slot) <- service_s;
    t.e_x1.(slot) <- enqueued_at;
    t.e_x2.(slot) <- 0.0;
    let n = float_of_int nodes in
    let da = n and db = -.(n *. enqueued_at) and ds1 = n in
    t.e_da.(slot) <- da;
    t.e_db.(slot) <- db;
    t.e_ds1.(slot) <- ds1;
    kstep t.acc 0 da;
    kstep t.acc 2 db;
    kstep t.acc 4 ds1

  let[@inline] add_ckpt t ~key ~nodes ~ckpt_s ~recovery_s ~last_commit_end =
    let slot = alloc_slot t ~key in
    t.e_tag.(slot) <- tag_ckpt;
    t.e_nodes.(slot) <- nodes;
    t.e_service.(slot) <- ckpt_s;
    t.e_x1.(slot) <- recovery_s;
    t.e_x2.(slot) <- last_commit_end;
    let q = float_of_int nodes in
    let k = q *. q /. t.node_mtbf_s in
    let da = k and db = k *. (recovery_s -. last_commit_end) and ds1 = 0.5 *. k in
    t.e_da.(slot) <- da;
    t.e_db.(slot) <- db;
    t.e_ds1.(slot) <- ds1;
    kstep t.acc 0 da;
    kstep t.acc 2 db;
    kstep t.acc 4 ds1

  let remove t ~key =
    let slot = slot_of t key in
    if slot >= 0 then begin
      let da = t.e_da.(slot) in
      let db = t.e_db.(slot) in
      let ds1 = t.e_ds1.(slot) in
      t.index.(key) <- -1;
      let last = t.n - 1 in
      if slot < last then begin
        t.e_key.(slot) <- t.e_key.(last);
        t.e_tag.(slot) <- t.e_tag.(last);
        t.e_nodes.(slot) <- t.e_nodes.(last);
        t.e_service.(slot) <- t.e_service.(last);
        t.e_x1.(slot) <- t.e_x1.(last);
        t.e_x2.(slot) <- t.e_x2.(last);
        t.e_da.(slot) <- t.e_da.(last);
        t.e_db.(slot) <- t.e_db.(last);
        t.e_ds1.(slot) <- t.e_ds1.(last);
        t.index.(t.e_key.(slot)) <- slot
      end;
      t.n <- last;
      if t.n = 0 then begin
        (* Drain point: reset exactly, so not even second-order drift
           from a long add/remove history outlives a busy period. *)
        t.acc.(0) <- 0.0;
        t.acc.(1) <- 0.0;
        t.acc.(2) <- 0.0;
        t.acc.(3) <- 0.0;
        t.acc.(4) <- 0.0;
        t.acc.(5) <- 0.0
      end
      else begin
        kstep t.acc 0 (-.da);
        kstep t.acc 2 (-.db);
        kstep t.acc 4 (-.ds1)
      end
    end

  (* The slot's own Eq. (1)/(2) term, with the same float expression the
     list oracle evaluates (waited/exposed materialized as now − clock).
     [waste] and its two helpers are inlined into the arbiter's grant
     loop: a float returned across a call boxes, one allocation per
     candidate scored. *)
  let[@inline] term_at t ~now ~service_s slot =
    if t.e_tag.(slot) = tag_io then
      float_of_int t.e_nodes.(slot) *. (now -. t.e_x1.(slot) +. service_s)
    else
      let q = float_of_int t.e_nodes.(slot) in
      q *. q /. t.node_mtbf_s
      *. (t.e_x1.(slot) +. (now -. t.e_x2.(slot)) +. (service_s /. 2.0))

  (* A·now + B + S1·v: the term summed over every member. *)
  let[@inline] total_term t ~now ~service_s =
    (((t.acc.(0) +. t.acc.(1)) *. now) +. (t.acc.(2) +. t.acc.(3)))
    +. ((t.acc.(4) +. t.acc.(5)) *. service_s)

  let[@inline] waste t ~now ~key =
    let slot = slot_of t key in
    if slot < 0 then
      invalid_arg "Least_waste.Aggregate.waste: unknown key"
    else
      let v = t.e_service.(slot) in
      v *. (total_term t ~now ~service_s:v -. term_at t ~now ~service_s:v slot)
end

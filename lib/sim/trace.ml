type kind =
  | Job_started of { restarts : int; nodes : int }
  | Input_done
  | Ckpt_requested
  | Ckpt_started
  | Ckpt_committed of { work : float }
  | Ckpt_aborted
  | Token_granted of { wait : float }
  | Io_done of { dilation : float }
  | Work_completed
  | Job_completed
  | Job_killed of { lost_work : float }
  | Node_failure of { node : int }

type event = { time : float; job : int; inst : int; kind : kind }

type t = {
  capacity : int;
  buffer : event option array;
  mutable next : int;  (* ring write position *)
  mutable total : int;  (* events ever recorded *)
}

let create ?(capacity = 100_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; buffer = Array.make capacity None; next = 0; total = 0 }

let record t event =
  t.buffer.(t.next) <- Some event;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let events t =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun i ->
      match t.buffer.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let for_job t ~job = List.filter (fun e -> e.job = job) (events t)
let of_kind t ~f = List.filter (fun e -> f e.kind) (events t)

let kind_name = function
  | Job_started _ -> "job-started"
  | Input_done -> "input-done"
  | Ckpt_requested -> "ckpt-requested"
  | Ckpt_started -> "ckpt-started"
  | Ckpt_committed _ -> "ckpt-committed"
  | Ckpt_aborted -> "ckpt-aborted"
  | Token_granted _ -> "token-granted"
  | Io_done _ -> "io-done"
  | Work_completed -> "work-completed"
  | Job_completed -> "job-completed"
  | Job_killed _ -> "job-killed"
  | Node_failure _ -> "node-failure"

let pp_event ppf e =
  Format.fprintf ppf "%12.1f job=%-4d inst=%-5d %s" e.time e.job e.inst (kind_name e.kind);
  match e.kind with
  | Job_started { restarts; nodes } ->
      Format.fprintf ppf " (%d nodes%s)" nodes
        (if restarts > 0 then Printf.sprintf ", restart #%d" restarts else "")
  | Ckpt_committed { work } -> Format.fprintf ppf " (work %.0f s)" work
  | Token_granted { wait } -> Format.fprintf ppf " (waited %.0f s)" wait
  | Io_done { dilation } -> Format.fprintf ppf " (dilation %.3g)" dilation
  | Job_killed { lost_work } -> Format.fprintf ppf " (lost %.0f s)" lost_work
  | Node_failure { node } -> Format.fprintf ppf " (node %d)" node
  | Input_done | Ckpt_requested | Ckpt_started | Ckpt_aborted | Work_completed
  | Job_completed ->
      ()

let dump ?limit t =
  let evs = events t in
  let evs = match limit with Some n -> List.filteri (fun i _ -> i < n) evs | None -> evs in
  let buf = Buffer.create 4096 in
  if dropped t > 0 then
    Buffer.add_string buf (Printf.sprintf "(%d earlier events dropped)\n" (dropped t));
  List.iter (fun e -> Buffer.add_string buf (Format.asprintf "%a@." pp_event e)) evs;
  Buffer.contents buf

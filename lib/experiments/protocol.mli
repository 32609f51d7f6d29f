(** The campaign service's typed wire protocol: one JSON object per line
    ({!Cocheck_obs.Wire}), each frame carrying a client-chosen [id] that
    the reply — and every streamed progress frame — echoes, so a client
    can correlate frames however it pipelines requests.

    Requests: [{"id":N,"op":"campaign","spec":{...},"progress":true}] and
    friends. Replies: [{"id":N,"reply":"campaign",...}], with zero or
    more [{"id":N,"reply":"progress","event":{...}}] frames (the
    {!Runner.progress_event} JSON, verbatim) streamed before the final
    reply when the request asked for progress. Unknown ops and malformed
    frames produce an ["error"] reply, never a closed connection. *)

type request =
  | Ping
  | Stats  (** store + admission counters *)
  | Shutdown  (** stop accepting, drain, exit the serve loop *)
  | Campaign of { spec : Spec.t; progress : bool }
      (** run (or warm-load) a campaign; [progress] streams per-point frames *)
  | Status of { spec : Spec.t }  (** store coverage without running *)
  | Bound of { platform : Cocheck_model.Platform.t }
      (** Theorem 1 lower bound for a platform (steady-state APEX mix) *)

type cell_summary = {
  x : float option;
  strategy : string;
  mean : float;
  median : float;
  q1 : float;
  q3 : float;
}
(** One (cell, strategy) aggregate of a campaign reply — the candlestick
    core, enough to draw the paper's figures client-side. *)

type response =
  | Pong
  | Bye
  | Overload of { inflight : int; limit : int }
      (** admission refused: [inflight] points already queued against a
          bound of [limit]; retry later (explicit backpressure instead of
          unbounded buffering) *)
  | Error of string
  | Progress of Runner.progress_event
  | Campaign_result of {
      elapsed_s : float;
      simulated : int;
      baselines : int;
      loaded : int;
      total_points : int;
      cells : cell_summary list;
    }
  | Status_result of { total : int; cached : int; missing : int }
  | Bound_result of {
      waste : float;
      lambda : float;
      io_fraction : float;
      outside : string option;
          (** why the bound lies outside the first-order model
              ({!Runner.outside_model}); [None] inside it *)
    }
  | Stats_result of {
      store : Store.stats;
      indexed : int;
      inflight : int;
      served : int;
    }

val request_to_json : id:int -> request -> Cocheck_obs.Json.t
val request_of_json : Cocheck_obs.Json.t -> (int * request, string) result
val response_to_json : id:int -> response -> Cocheck_obs.Json.t
val response_of_json : Cocheck_obs.Json.t -> (int * response, string) result

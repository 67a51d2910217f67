(* morphqpv serve — a long-running verification daemon speaking
   line-delimited JSON over a Unix-domain or loopback TCP socket.

   Protocol: the client sends one request object per line —
     {"id": 1, "method": "verify", "params": {"qasm": "...", ...}}
   and the server answers with zero or more event lines
     {"id": 1, "event": "accepted" | "expect" | "verdict", ...}
   followed by exactly one terminal line carrying either
     {"id": 1, "result": {...}}  or  {"id": 1, "error": "..."}.

   Methods: ping, stats, verify, shutdown. The verify handler mirrors
   the CLI's verify subcommand (expect pragmas, --assume/--guarantee
   specs, Theorem-2 default sample count) but shares one process-wide
   content-addressed cache across requests, so re-verifying a program
   the daemon has seen — under any qubit labeling — performs zero
   characterization shots. Requests are handled sequentially on the
   accept loop; the characterization inside each request parallelizes
   on the global domain pool as usual.

   [handle_line] is pure with respect to the transport (it only calls
   [emit]), so the protocol is unit-testable without sockets. *)

open Morphcore

(* [server] is this library's main module: siblings are invisible
   outside unless re-exported here *)
module Jsonx = Jsonx
module Spec = Spec
module Recorder = Recorder

type addr = Unix_path of string | Tcp of int

type verb_stat = { mutable vcount : int; mutable verrors : int }

type state = {
  cache : Cache.t option;
  certify : bool;
      (* force translation validation of the transpile pipeline on every
         verify request, even when the request doesn't ask for it *)
  started : float;
  mutable requests : int;
  recorder : Recorder.t;
  mutable next_rid : int;
      (* generator for server-assigned request ids (req-1, req-2, ...) *)
  by_verb : (string, verb_stat) Hashtbl.t;
      (* request/error tallies per RPC verb; kept outside the obs
         registry so `stats` reports them even with obs disabled *)
}

let make_state ?cache ?(certify = false) ?recorder_capacity () =
  {
    cache;
    certify;
    started = Unix.gettimeofday ();
    requests = 0;
    recorder = Recorder.create ?capacity:recorder_capacity ();
    next_rid = 0;
    by_verb = Hashtbl.create 8;
  }

let recorder state = state.recorder

(* ----------------------------- responses ------------------------------ *)

let event id fields = Jsonx.Obj (("id", id) :: fields)

let error_line ?rid id msg =
  let rid_field =
    match rid with None -> [] | Some r -> [ ("request_id", Jsonx.Str r) ]
  in
  Jsonx.Obj ([ ("id", id) ] @ rid_field @ [ ("error", Jsonx.Str msg) ])

let result_line ~rid id result =
  Jsonx.Obj
    [ ("id", id); ("request_id", Jsonx.Str rid); ("result", result) ]

let cache_json = function
  | None -> Jsonx.Null
  | Some c ->
      let s : Cache.stats = Cache.stats c in
      Jsonx.Obj
        [
          ("hits", Jsonx.int s.hits);
          ("misses", Jsonx.int s.misses);
          ("stores", Jsonx.int s.stores);
          ("evictions", Jsonx.int s.evictions);
          ("entries", Jsonx.int s.entries);
          ("bytes", Jsonx.int s.bytes);
        ]

(* per-request view: hit/miss/store deltas, resident totals *)
let cache_delta_json before cache =
  match (before, cache) with
  | Some (b : Cache.stats), Some c ->
      let a : Cache.stats = Cache.stats c in
      Jsonx.Obj
        [
          ("hits", Jsonx.int (a.hits - b.hits));
          ("misses", Jsonx.int (a.misses - b.misses));
          ("stores", Jsonx.int (a.stores - b.stores));
          ("entries", Jsonx.int a.entries);
          ("bytes", Jsonx.int a.bytes);
        ]
  | _ -> Jsonx.Null

(* ------------------------------ verify -------------------------------- *)

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

let get_or_fail = function Ok v -> v | Error e -> raise (Fail e)

let string_list params key =
  match Jsonx.member key params with
  | None -> []
  | Some (Jsonx.List l) ->
      List.map
        (fun v ->
          match Jsonx.to_str v with
          | Some s -> s
          | None -> failf "%S entries must be strings" key)
        l
  | Some (Jsonx.Str s) -> [ s ]
  | Some _ -> failf "%S must be a list of strings" key

let check_expects ~emit ~id ~budget ~rng program expects =
  List.for_all
    (fun (e : Qasm.expect_pragma) ->
      let line, col = e.Qasm.expect_loc in
      let base =
        [
          ("event", Jsonx.Str "expect");
          ("line", Jsonx.int line);
          ("col", Jsonx.int col);
        ]
      in
      match
        Assertion.Dist.make ?significance:e.Qasm.significance e.Qasm.expected
      with
      | exception Invalid_argument msg ->
          emit
            (event id
               (base
               @ [ ("holds", Jsonx.Bool false); ("error", Jsonx.Str msg) ]));
          false
      | dist ->
          let input =
            Qstate.Statevec.basis (Program.num_input_qubits program) 0
          in
          let r = Verify.check_counts ~budget ~rng program dist ~input in
          emit
            (event id
               (base
               @ [
                   ("holds", Jsonx.Bool r.Verify.counts_hold);
                   ("statistic", Jsonx.Num r.Verify.test.Stats.Tests.statistic);
                   ("pvalue", Jsonx.Num r.Verify.test.Stats.Tests.pvalue);
                   ("shots", Jsonx.int r.Verify.shots_used);
                   ("early_stop", Jsonx.Bool r.Verify.early_stop);
                 ]));
          r.Verify.counts_hold)
    expects

let verify_result ~t0 ~stats0 ~cache ~verified ~expects_ok ~executions ~shots =
  Jsonx.Obj
    [
      ("ok", Jsonx.Bool true);
      ("verified", Jsonx.Bool verified);
      ("expects_ok", Jsonx.Bool expects_ok);
      ("executions", Jsonx.int executions);
      ("shots", Jsonx.int shots);
      ("cache", cache_delta_json stats0 cache);
      ("seconds", Jsonx.Num (Unix.gettimeofday () -. t0));
    ]

let verify_request state ~emit ~id ~rid params =
  let t0 = Unix.gettimeofday () in
  let qasm =
    match Jsonx.mem_str "qasm" params with
    | Some s -> s
    | None -> failf "missing %S param" "qasm"
  in
  let full =
    try Qasm.parse_full qasm with
    | Qasm.Parse_error { line; column; message; _ } ->
        failf "parse error at %d:%d: %s" line column message
    | Circuit.Error { code; message; _ } -> failf "[%s] %s" code message
  in
  let c = full.Qasm.circuit in
  let seed = Option.value ~default:2024 (Jsonx.mem_int "seed" params) in
  let count = Option.value ~default:0 (Jsonx.mem_int "count" params) in
  let solver =
    Spec.parse_solver (Option.value ~default:"qp" (Jsonx.mem_str "solver" params))
  in
  let budget =
    get_or_fail
      (Spec.parse_budget
         (Option.value ~default:"fixed:2048" (Jsonx.mem_str "budget" params)))
  in
  let mode =
    get_or_fail
      (Spec.parse_mode
         (Option.value ~default:"exact" (Jsonx.mem_str "mode" params)))
  in
  let assumes = string_list params "assume" in
  let guarantees = string_list params "guarantee" in
  let rng = Stats.Rng.make seed in
  let program = Program.make c in
  let n_in = Program.num_input_qubits program in
  let stats0 = Option.map Cache.stats state.cache in
  emit
    (event id
       [
         ("event", Jsonx.Str "accepted");
         ("qubits", Jsonx.int (Circuit.num_qubits c));
         ("gates", Jsonx.int (Circuit.gate_count c));
         ("tracepoints", Jsonx.int (List.length (Circuit.tracepoints c)));
         ("expects", Jsonx.int (List.length full.Qasm.expects));
       ]);
  (* translation validation: transpile through the certificate-emitting
     pass variants and re-check the chain with the independent checker.
     The certified plan is cached under its own key prefix, so a daemon
     asked to certify never serves a plan that skipped certification. *)
  let want_certify =
    state.certify
    || Option.value ~default:false
         (Option.bind (Jsonx.member "certify" params) Jsonx.to_bool)
  in
  if want_certify then begin
    let report = Verify.certify_transpile ~locs:full.Qasm.locs c in
    let summary = report.Verify.cert_summary in
    emit
      (event id
         [
           ("event", Jsonx.Str "certify");
           ("certified", Jsonx.Bool report.Verify.certified);
           ("steps", Jsonx.int summary.Transpile.Certify.chain_steps);
           ( "obligations",
             Jsonx.int (Transpile.Certify.total_obligations summary) );
         ]);
    if not report.Verify.certified then begin
      let msg =
        match report.Verify.cert_failures with
        | f :: _ -> Transpile.Certify.failure_message f
        | [] -> "transpile certificate check failed"
      in
      Obs.Log.emit Obs.Log.Error "certify.fail"
        [
          ("code", Obs.Log.S "MQ021");
          ("reason", Obs.Log.S msg);
          ( "steps",
            Obs.Log.I report.Verify.cert_summary.Transpile.Certify.chain_steps
          );
        ];
      failf "MQ021: %s" msg
    end
  end;
  let expects_ok =
    check_expects ~emit ~id ~budget ~rng program full.Qasm.expects
  in
  let parse_all specs =
    List.fold_left
      (fun acc spec ->
        match (acc, Spec.parse_predicate c n_in spec) with
        | Error e, _ -> Error e
        | Ok l, Ok p -> Ok (p :: l)
        | Ok _, Error e -> Error e)
      (Ok []) specs
    |> Result.map List.rev
  in
  match (parse_all assumes, parse_all guarantees) with
  | Error e, _ | _, Error e -> raise (Fail e)
  | Ok _, Ok [] when full.Qasm.expects <> [] ->
      (* distribution-only verification via the expect pragmas *)
      emit
        (result_line ~rid id
           (verify_result ~t0 ~stats0 ~cache:state.cache ~verified:expects_ok
              ~expects_ok ~executions:0 ~shots:0))
  | Ok _, Ok [] ->
      raise
        (Fail
           "at least one guarantee (or an expect pragma in the program) is \
            required")
  | Ok assumes, Ok guarantees ->
      let assertion = Assertion.make ~name:"rpc" ~assumes ~guarantees () in
      let count =
        if count > 0 then count else Approx.samples_for_full_accuracy ~n_in
      in
      let ch =
        Characterize.run ?cache:state.cache ~rng ~mode program ~count
      in
      let approx = Approx.of_characterization ch in
      let options = { Verify.default_options with solver } in
      let verdict =
        Verify.validate ~options ~rng ~confirm:program ?cache:state.cache
          approx assertion
      in
      let verified =
        match verdict with
        | Verify.Verified { confidence; max_objective } ->
            emit
              (event id
                 [
                   ("event", Jsonx.Str "verdict");
                   ("verified", Jsonx.Bool true);
                   ("max_objective", Jsonx.Num max_objective);
                   ( "confidence",
                     Jsonx.Num confidence.Confidence.confidence );
                   ("epsilon", Jsonx.Num confidence.Confidence.epsilon);
                 ]);
            true
        | Verify.Violated { objective; _ } ->
            emit
              (event id
                 [
                   ("event", Jsonx.Str "verdict");
                   ("verified", Jsonx.Bool false);
                   ("objective", Jsonx.Num objective);
                 ]);
            false
      in
      emit
        (result_line ~rid id
           (verify_result ~t0 ~stats0 ~cache:state.cache
              ~verified:(verified && expects_ok) ~expects_ok
              ~executions:ch.Characterize.cost.Sim.Cost.executions
              ~shots:ch.Characterize.cost.Sim.Cost.shots))

(* ------------------------- request summaries --------------------------- *)

(* flat [name{k=v,...}] keys, matching the bench harness's counter-delta
   naming so a recorder summary reads like a BENCH_results entry *)
let flat_counter_name name labels =
  match labels with
  | [] -> name
  | ls ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      ^ "}"

let counter_entries () =
  List.filter_map
    (fun (e : Obs.Metrics.entry) ->
      match e.Obs.Metrics.data with
      | Obs.Metrics.Counter v ->
          Some (flat_counter_name e.Obs.Metrics.name e.Obs.Metrics.labels, v)
      | _ -> None)
    (Obs.Metrics.snapshot ())

let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let b = Option.value ~default:0 (List.assoc_opt name before) in
      if v <> b then Some (name, v - b) else None)
    after

(* RED latency histogram edges (seconds): a warm cache hit lands in the
   first buckets, a cold multi-qubit characterization in the last *)
let latency_buckets = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.; 10. |]

let trace_event_jsonx (ev : Obs.Span.event) =
  let args =
    match ev.Obs.Span.attrs with
    | [] -> []
    | attrs ->
        [ ("args", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) attrs)) ]
  in
  Jsonx.Obj
    ([
       ("name", Jsonx.Str ev.Obs.Span.name);
       ("cat", Jsonx.Str "morphqpv");
       ( "ph",
         Jsonx.Str
           (match ev.Obs.Span.ph with Obs.Span.B -> "B" | Obs.Span.E -> "E") );
       ("ts", Jsonx.Num ev.Obs.Span.ts_us);
       ("pid", Jsonx.int 1);
       ("tid", Jsonx.int ev.Obs.Span.tid);
     ]
    @ args)

let summary_jsonx (s : Recorder.summary) =
  Jsonx.Obj
    ([
       ("request_id", Jsonx.Str s.Recorder.rid);
       ("verb", Jsonx.Str s.Recorder.verb);
       ("ok", Jsonx.Bool s.Recorder.ok);
       ("seconds", Jsonx.Num s.Recorder.seconds);
       ("events", Jsonx.int (List.length s.Recorder.events));
       ( "counters",
         Jsonx.Obj
           (List.map (fun (k, v) -> (k, Jsonx.int v)) s.Recorder.counters) );
     ]
    @
    match s.Recorder.error with
    | None -> []
    | Some e -> [ ("error", Jsonx.Str e) ])

let bump_verb state verb ~ok =
  let st =
    match Hashtbl.find_opt state.by_verb verb with
    | Some st -> st
    | None ->
        let st = { vcount = 0; verrors = 0 } in
        Hashtbl.add state.by_verb verb st;
        st
  in
  st.vcount <- st.vcount + 1;
  if not ok then st.verrors <- st.verrors + 1

let by_verb_jsonx state =
  Jsonx.Obj
    (Hashtbl.fold
       (fun verb st acc ->
         ( verb,
           Jsonx.Obj
             [
               ("requests", Jsonx.int st.vcount);
               ("errors", Jsonx.int st.verrors);
             ] )
         :: acc)
       state.by_verb []
    |> List.sort (fun (a, _) (b, _) -> compare a b))

(* ----------------------------- dispatch ------------------------------- *)

let stats_result state =
  Jsonx.Obj
    [
      ("ok", Jsonx.Bool true);
      ("uptime_s", Jsonx.Num (Unix.gettimeofday () -. state.started));
      ("requests", Jsonx.int state.requests);
      ("cache", cache_json state.cache);
      ("by_verb", by_verb_jsonx state);
      ( "recent",
        Jsonx.List (List.map summary_jsonx (Recorder.recent state.recorder)) );
      ("recorded", Jsonx.int (Recorder.recorded state.recorder));
      ("span_dropped", Jsonx.int (Obs.Span.dropped ()));
      ("obs_enabled", Jsonx.Bool (Obs.enabled ()));
    ]

let trace_request state ~emit ~id ~rid params =
  let target =
    match Jsonx.mem_str "request_id" params with
    | Some s -> s
    | None -> failf "missing %S param" "request_id"
  in
  match Recorder.find state.recorder target with
  | None -> failf "unknown request id %S" target
  | Some s ->
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [
                ("ok", Jsonx.Bool true);
                ("request_id", Jsonx.Str s.Recorder.rid);
                ("verb", Jsonx.Str s.Recorder.verb);
                ("request_ok", Jsonx.Bool s.Recorder.ok);
                ("seconds", Jsonx.Num s.Recorder.seconds);
                ("events", Jsonx.int (List.length s.Recorder.events));
                ( "trace",
                  Jsonx.List
                    (List.map trace_event_jsonx s.Recorder.events) );
              ]))

let dispatch state ~emit ~id ~rid meth params =
  match meth with
  | Some "ping" ->
      emit (result_line ~rid id (Jsonx.Obj [ ("ok", Jsonx.Bool true) ]));
      `Continue
  | Some "stats" ->
      emit (result_line ~rid id (stats_result state));
      `Continue
  | Some "metrics" ->
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [
                ("ok", Jsonx.Bool true);
                ("prometheus", Jsonx.Str (Obs.Export.prometheus ()));
              ]));
      `Continue
  | Some "trace" ->
      trace_request state ~emit ~id ~rid params;
      `Continue
  | Some "verify" ->
      verify_request state ~emit ~id ~rid params;
      `Continue
  | Some "shutdown" ->
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [ ("ok", Jsonx.Bool true); ("stopping", Jsonx.Bool true) ]));
      `Stop
  | Some m -> failf "unknown method %S" m
  | None -> raise (Fail "missing \"method\"")

(* Wrap one RPC with the observability envelope: request-scoped context
   (so every span/log line below carries the id), RED metrics, the flight-
   recorder entry (with mark-bounded span capture — pool-worker events
   land between the two marks even though the context slot is domain-
   local), and mark-based ring reclaim so the daemon's span rings never
   saturate across requests. *)
let handle_request state ~emit ~id ~rid ~verb meth params =
  let t0 = Unix.gettimeofday () in
  let mark0 = Obs.Span.mark () in
  let counters0 = if Obs.enabled () then counter_entries () else [] in
  Obs.Log.emit Obs.Log.Info "request.start"
    [ ("req", Obs.Log.S rid); ("verb", Obs.Log.S verb) ];
  let failed = ref None in
  let ret =
    Obs.Context.with_request rid (fun () ->
        Obs.Span.with_ ~name:"server.request" ~attrs:[ ("verb", verb) ]
          (fun () ->
            try dispatch state ~emit ~id ~rid meth params with
            | Fail msg ->
                failed := Some msg;
                emit (error_line ~rid id msg);
                `Continue
            | exn ->
                let msg = Printexc.to_string exn in
                failed := Some msg;
                emit (error_line ~rid id msg);
                `Continue))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let mark1 = Obs.Span.mark () in
  let ok = Option.is_none !failed in
  let counters =
    if Obs.enabled () then counter_delta counters0 (counter_entries ()) else []
  in
  bump_verb state verb ~ok;
  Obs.Metrics.counter_add ~labels:[ ("verb", verb) ] "requests_total" 1;
  if not ok then
    Obs.Metrics.counter_add ~labels:[ ("verb", verb) ] "request_errors_total" 1;
  Obs.Metrics.observe ~labels:[ ("verb", verb) ] ~buckets:latency_buckets
    "request_seconds" seconds;
  (match state.cache with
  | Some c ->
      let s : Cache.stats = Cache.stats c in
      let total = s.hits + s.misses in
      if total > 0 then
        Obs.Metrics.gauge_set "cache_hit_ratio"
          (float_of_int s.hits /. float_of_int total)
  | None -> ());
  let events =
    if Obs.enabled () then Obs.Span.events ~since:mark0 ~until:mark1 ()
    else []
  in
  Recorder.record state.recorder
    { Recorder.rid; verb; seconds; ok; error = !failed; counters; events };
  if Obs.enabled () then Obs.Span.reclaim ~before:mark1 ();
  Obs.Log.emit
    (if ok then Obs.Log.Info else Obs.Log.Warn)
    "request.finish"
    ([
       ("req", Obs.Log.S rid);
       ("verb", Obs.Log.S verb);
       ("ok", Obs.Log.B ok);
       ("seconds", Obs.Log.F seconds);
       ("events", Obs.Log.I (List.length events));
     ]
    @
    match !failed with
    | None -> []
    | Some e -> [ ("error", Obs.Log.S e) ]);
  ret

let handle_line state ~emit line =
  if String.trim line = "" then `Continue
  else
    match Jsonx.parse line with
    | Error e ->
        emit (error_line Jsonx.Null ("bad request json: " ^ e));
        `Continue
    | Ok req ->
        let id = Option.value ~default:Jsonx.Null (Jsonx.member "id" req) in
        let params =
          Option.value ~default:(Jsonx.Obj []) (Jsonx.member "params" req)
        in
        let meth = Jsonx.mem_str "method" req in
        let verb = Option.value ~default:"unknown" meth in
        let rid =
          (* client-supplied (top-level "request_id") or generated *)
          match Jsonx.mem_str "request_id" req with
          | Some r when String.trim r <> "" -> r
          | _ ->
              state.next_rid <- state.next_rid + 1;
              Printf.sprintf "req-%d" state.next_rid
        in
        state.requests <- state.requests + 1;
        handle_request state ~emit ~id ~rid ~verb meth params

(* ------------------------------ transport ----------------------------- *)

let bind_socket = function
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      sock
  | Tcp port ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      sock

let handle_connection state stop fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let emit v =
    output_string oc (Jsonx.to_string v);
    output_char oc '\n';
    flush oc
  in
  (try
     let rec loop () =
       if not !stop then
         match input_line ic with
         | exception End_of_file -> ()
         | line -> (
             match handle_line state ~emit line with
             | `Continue -> loop ()
             | `Stop -> stop := true)
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?cache ?certify ?(on_ready = fun () -> ()) addr =
  let state = make_state ?cache ?certify () in
  let stop = ref false in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
  in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sock = bind_socket addr in
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (match addr with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally (fun () ->
      Unix.listen sock 16;
      on_ready ();
      while not !stop do
        (* short select timeout keeps the loop responsive to SIGINT /
           SIGTERM even when no client ever connects *)
        match Unix.select [ sock ] [] [] 0.25 with
        | [], _, _ -> ()
        | _ :: _, _, _ ->
            let fd, _ = Unix.accept sock in
            handle_connection state stop fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

module Client = struct
  let connect = function
    | Unix_path path ->
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_UNIX path);
        s
    | Tcp port ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        s

  let request ?(on_event = fun _ -> ()) addr req =
    match connect addr with
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect: %s" (Unix.error_message e))
    | fd ->
        let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
        Fun.protect ~finally (fun () ->
            let oc = Unix.out_channel_of_descr fd in
            let ic = Unix.in_channel_of_descr fd in
            output_string oc (Jsonx.to_string req);
            output_char oc '\n';
            flush oc;
            let rec read () =
              match input_line ic with
              | exception End_of_file ->
                  Error "connection closed before a result"
              | line -> (
                  match Jsonx.parse line with
                  | Error e -> Error ("bad response json: " ^ e)
                  | Ok v ->
                      if
                        Option.is_some (Jsonx.member "result" v)
                        || Option.is_some (Jsonx.member "error" v)
                      then Ok v
                      else begin
                        on_event v;
                        read ()
                      end)
            in
            read ())
end

(* The repository benchmark. One closed-loop client in one process drives
   whole verifies through the public entry points — [Server.handle_line]
   for cold-verify and warm-serve, the Qasm -> Characterize -> Approx ->
   Verify library pipeline for wide-characterize — and checks every
   verdict against the one fixed by construction in [Gen].

   --trace 0 prints the end-to-end metrics. --trace 1 replays the same
   requests layer by layer, with spans taken around the public calls (no
   instrumentation inside the library), and prints the per-layer metrics.
   The last stdout line is the result object; the line before it holds
   the run facts (host, seed, sample count, missed and false verdicts). *)

open Morphcore
module Spec = Server.Spec
module Jsonx = Server.Jsonx

(* seconds on the monotonic clock, to the nanosecond: warm-serve requests
   take a tenth of a millisecond *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* a seed never used while tuning the benchmark; confirm claims on it *)
let held_out_seed = 9001

(* The p-quantile of a run's latencies. Up to 5000 samples it is the
   Harrell-Davis estimate, a Beta-weighted mean of all order statistics:
   cold-verify and wide-characterize runs hold tens of requests from a few
   cost classes, and one or two order statistics would jump between
   classes from run to run. Above that, linear interpolation between the
   closest ranks, which is as steady there and cheaper. *)
let percentile p = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n <= 5000 then begin
        let fn = float_of_int n in
        let cdf i = Stats.Special.betainc (p *. (fn +. 1.)) ((1. -. p) *. (fn +. 1.)) (float_of_int i /. fn) in
        let acc = ref 0. and prev = ref 0. in
        for i = 1 to n do
          let c = cdf i in
          acc := !acc +. ((c -. !prev) *. a.(i - 1));
          prev := c
        done;
        !acc
      end
      else
        let h = p *. float_of_int (n - 1) in
        let i = int_of_float h in
        if i + 1 >= n then a.(i) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

(* unboxed, growable: warm-serve records about 10^5 latencies a run, and a
   list of boxed floats would move peak_rss_mb with the request count *)
type samples = { mutable data : Float.Array.t; mutable len : int }

let push b x =
  if b.len = Float.Array.length b.data then begin
    let d = Float.Array.create (2 * b.len) in
    Float.Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Float.Array.set b.data b.len x;
  b.len <- b.len + 1

let to_list b = List.init b.len (Float.Array.get b.data)
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match Scanf.sscanf (input_line ic) "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception Scanf.Scan_failure _ -> find ()
      in
      find ())

(* -------------------------------- spans -------------------------------- *)

(* Spans stay in memory and are written once, when the run ends. *)
type span = { name : string; req : int; start : float; stop : float }

let spans : span list ref = ref []
let span_ms s = (s.stop -. s.start) *. 1e3

let span ~req name f =
  let start = now () in
  let x = f () in
  spans := { name; req; start; stop = now () } :: !spans;
  x

(* Chrome trace_event JSON; warm-serve runs thousands of requests, so
   only the first [max_req] are written *)
let write_trace ~max_req path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"req\":%d}}"
        (if i = 0 then "" else ",")
        s.name (s.start *. 1e6) ((s.stop -. s.start) *. 1e6) s.req)
    (List.filter (fun s -> s.req < max_req) (List.rev !spans));
  output_string oc "\n]\n";
  close_out oc

(* ------------------------------ requests ------------------------------- *)

let rpc_line id (r : Gen.request) =
  let strs l = Jsonx.List (List.map (fun s -> Jsonx.Str s) l) in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.int id);
         ("method", Jsonx.Str "verify");
         ( "params",
           Jsonx.Obj
             [
               ("qasm", Jsonx.Str r.qasm);
               ("assume", strs r.assumes);
               ("guarantee", strs r.guarantees);
               ("mode", Jsonx.Str r.mode);
             ] );
       ])

(* the verdict of one request sent to the daemon; [None] on an error line *)
let send state line =
  let verdict = ref None in
  let emit v =
    match Jsonx.member "result" v with
    | Some res -> verdict := Option.bind (Jsonx.member "verified" res) Jsonx.to_bool
    | None -> ()
  in
  ignore (Server.handle_line state ~emit line);
  !verdict

let get = function Ok v -> v | Error e -> failwith e

let solver_evals () =
  List.fold_left
    (fun acc (e : Obs.Metrics.entry) ->
      match e.data with
      | Obs.Metrics.Counter n when e.name = "solver_evals_total" -> acc + n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

type replay = { verdict : bool; ch : Characterize.t option; evals : int }

(* The verify pipeline as the daemon's verify handler runs it — same
   defaults, generator seed and call order — through the public calls.
   With [traced], each call runs inside a span, [line] (the RPC request)
   is decoded as the daemon decodes it, and observability is switched on
   around [Verify.validate] only, to read the solver's eval counter. *)
let replay ~traced ~req ?line ?cache (r : Gen.request) =
  let span name f = if traced then span ~req name f else f () in
  Option.iter (fun l -> ignore (span "server.decode" (fun () -> Jsonx.parse l))) line;
  let full = span "qasm.parse" (fun () -> Qasm.parse_full r.qasm) in
  let c = full.circuit in
  let program = Program.make ?input_qubits:r.inputs c in
  let n_in = Program.num_input_qubits program in
  let rng = Stats.Rng.make 2024 in
  let budget = get (Spec.parse_budget "fixed:2048") in
  let mode = get (Spec.parse_mode r.mode) in
  let expects_ok =
    List.for_all
      (fun (e : Qasm.expect_pragma) ->
        span "verify.expect" (fun () ->
            match Assertion.Dist.make ?significance:e.significance e.expected with
            | exception Invalid_argument _ -> false
            | dist ->
                let input = Qstate.Statevec.basis n_in 0 in
                (Verify.check_counts ~budget ~rng program dist ~input).counts_hold))
      full.expects
  in
  if r.guarantees = [] then { verdict = expects_ok; ch = None; evals = 0 }
  else
    let assertion =
      span "spec.parse" (fun () ->
          let preds l = List.map (fun s -> get (Spec.parse_predicate c n_in s)) l in
          Assertion.make ~name:"rpc" ~assumes:(preds r.assumes)
            ~guarantees:(preds r.guarantees) ())
    in
    let count = Approx.samples_for_full_accuracy ~n_in in
    let ch =
      span "characterize" (fun () -> Characterize.run ?cache ~rng ~mode program ~count)
    in
    let approx = span "approx" (fun () -> Approx.of_characterization ch) in
    if traced then Obs.configure ~enabled:true;
    let evals0 = solver_evals () in
    let verdict =
      Fun.protect
        ~finally:(fun () -> Obs.configure ~enabled:false)
        (fun () ->
          span "verify.validate" (fun () ->
              Verify.validate ~rng ~confirm:program ?cache approx assertion))
    in
    let evals = solver_evals () - evals0 in
    if traced then Obs.Span.reset ();
    let ok = match verdict with Verify.Verified _ -> true | Verify.Violated _ -> false in
    { verdict = ok && expects_ok; ch = Some ch; evals }

(* the spans that make up a request; [sim.engine] re-runs samples after
   the request and is not one of them *)
let layer_names =
  [ "server.decode"; "qasm.parse"; "verify.expect"; "spec.parse"; "characterize"; "approx"; "verify.validate" ]

(* ------------------------------ workloads ------------------------------ *)

type ctx = {
  reqs : Gen.request array;
  lines : string array;  (** the RPC line of each request *)
  pick : int -> int;  (** request index -> corpus index *)
  state : unit -> Server.state * Cache.t option;
      (** the daemon state a request is sent to, and its cache *)
  fresh : bool;  (** every request gets a fresh daemon state *)
  rpc : bool;  (** through [handle_line]; otherwise the library pipeline *)
  cycle : int;  (** requests per cycle of request classes *)
}

let cold_setup seed =
  (* more distinct programs than a run can verify *)
  let reqs = Gen.corpus Gen.cold ~seed (Gen.cold_cycle * 100) in
  let state () =
    let cache = Cache.create () in
    (Server.make_state ~cache (), Some cache)
  in
  let len = Array.length reqs in
  {
    reqs;
    lines = Array.mapi rpc_line reqs;
    pick = (fun i -> i mod len);
    state;
    fresh = true;
    rpc = true;
    cycle = Gen.cold_cycle;
  }

let warm_setup seed =
  let reqs = Gen.corpus Gen.warm ~seed Gen.warm_corpus in
  let lines = Array.mapi rpc_line reqs in
  let cache = Cache.create () in
  let state = Server.make_state ~cache () in
  Array.iter (fun l -> ignore (send state l)) lines;
  (* a seeded draw per request index, kept in no table: a run issues
     about 10^5 of them *)
  let pick i = Hashtbl.hash (seed, i) mod Array.length reqs in
  { reqs; lines; pick; state = (fun () -> (state, Some cache)); fresh = false; rpc = true; cycle = 1 }

(* the library path sends no RPC; its daemon state is never used *)
let wide_setup seed =
  let reqs = Gen.corpus Gen.wide ~seed (Gen.wide_cycle * 20) in
  let state = Server.make_state () in
  let len = Array.length reqs in
  {
    reqs;
    lines = [||];
    pick = (fun i -> i mod len);
    state = (fun () -> (state, None));
    fresh = false;
    rpc = false;
    cycle = Gen.wide_cycle;
  }

(* name, set-up, set-ups before each pass (the pass uses the last), and
   the seconds one cycle of requests takes on the 2-core host the
   benchmark was tuned on *)
let workloads =
  [
    ("cold-verify", (cold_setup, 3, 2.2));
    ("warm-serve", (warm_setup, 1, 2e-4));
    ("wide-characterize", (wide_setup, 3, 6.0));
  ]

(* An untraced run makes [passes] passes over the same requests, each
   after its own set-ups. The host this benchmark was tuned on changes
   speed by a third over tens of seconds, as other tenants come and go,
   and a run's median follows it; the fastest of several repeats spread
   across the run does not. So a request's latency is the fastest of its
   [passes] repeats, and [setup_s] the fastest set-up, as timeit reports
   the best of its repeats.

   A pass is a fixed number of whole cycles, the number that takes
   [--seconds / passes] on that host, so every seed runs the same mix of
   request classes: a pass cut by a clock would hold one cycle more or
   less from run to run. A run that passes [overrun] times [--seconds]
   stops early. *)
let passes = 4
let overrun = 2.

(* one untraced request: its corpus index, verdict ([None] = error) and
   latency in ms *)
let run_request ctx i =
  let j = ctx.pick i in
  let t0 = now () in
  let v =
    try
      if ctx.rpc then send (fst (ctx.state ())) ctx.lines.(j)
      else Some (replay ~traced:false ~req:i ctx.reqs.(j)).verdict
    with _ -> None
  in
  (j, v, (now () -. t0) *. 1e3)

type traced = {
  t_req : float;  (** traced request wall time, ms *)
  t_plain : float;  (** the same request untraced, ms *)
  layers : (string * float) list;  (** replay span totals by name, ms *)
  r : replay;
  hits : int;
  misses : int;
  bytes : int;  (** the request's cache after it *)
  same : bool;  (** request, untraced request and replay agree *)
}

(* One traced request: the untraced request (the overhead baseline), the
   request again inside a span, then its layer-by-layer replay with the
   cache the request saw — a fresh one when the request went to a fresh
   daemon state, the primed one otherwise. *)
let trace_request ctx i =
  let j, plain_v, t_plain = run_request ctx i in
  let r = ctx.reqs.(j) in
  let state, cache = ctx.state () in
  let stats () = Option.map Cache.stats cache in
  let s0 = stats () in
  let before = !spans in
  let req_v, s1, rp, t_req =
    if ctx.rpc then begin
      let v = span ~req:i "server.handle_line" (fun () -> send state ctx.lines.(j)) in
      let t_req = span_ms (List.hd !spans) in
      let s1 = stats () in
      let rcache = if ctx.fresh then Some (Cache.create ()) else cache in
      (v, s1, replay ~traced:true ~req:i ~line:ctx.lines.(j) ?cache:rcache r, t_req)
    end
    else begin
      let t0 = now () in
      let rp = replay ~traced:true ~req:i r in
      let t1 = now () in
      spans := { name = "request"; req = i; start = t0; stop = t1 } :: !spans;
      (Some rp.verdict, stats (), rp, (t1 -. t0) *. 1e3)
    end
  in
  (* the spans this request pushed onto the list since [before] *)
  let rec since = function l when l == before -> [] | s :: l -> s :: since l | [] -> [] in
  let mine = since !spans in
  let layers =
    List.map
      (fun n -> (n, sum (List.filter_map (fun s -> if s.name = n then Some (span_ms s) else None) mine)))
      layer_names
  in
  (match rp.ch with
  | Some ch ->
      Array.iteri
        (fun k (s : Characterize.sample) ->
          if k < 2 then
            ignore
              (span ~req:i "sim.engine" (fun () -> Program.run_traces ch.program ~input:s.input_state)))
        ch.samples
  | None -> ());
  let hits, misses, bytes =
    match (s0, s1) with
    | Some (a : Cache.stats), Some (b : Cache.stats) -> (b.hits - a.hits, b.misses - a.misses, b.bytes)
    | _ -> (0, 0, 0)
  in
  ( j,
    plain_v,
    { t_req; t_plain; layers; r = rp; hits; misses; bytes; same = req_v = Some rp.verdict && plain_v = req_v } )

(* -------------------------------- output -------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " m)

let per_layer ~rpc (tr : traced list) =
  let n = float_of_int (max 1 (List.length tr)) in
  let mean f = sum (List.map f tr) /. n in
  let layer name = median (List.map (fun t -> List.assoc name t.layers) tr) in
  let layer_total name = sum (List.map (fun t -> List.assoc name t.layers) tr) in
  let cost f = mean (fun t -> match t.r.ch with Some ch -> float_of_int (f ch.Characterize.cost) | None -> 0.) in
  let evals = sum (List.map (fun t -> float_of_int t.r.evals) tr) in
  let hits = float_of_int (List.fold_left (fun a t -> a + t.hits) 0 tr) in
  let misses = float_of_int (List.fold_left (fun a t -> a + t.misses) 0 tr) in
  let layer_sum t = sum (List.map snd t.layers) in
  let req_med = median (List.map (fun t -> t.t_req) tr) in
  let engine = List.filter_map (fun s -> if s.name = "sim.engine" then Some (span_ms s) else None) !spans in
  [
    ("qasm.parse_ms", "ms", layer "qasm.parse");
    ("server.envelope_ms", "ms", if rpc then median (List.map (fun t -> t.t_req -. layer_sum t) tr) else 0.);
    ("verify.expect_ms", "ms", layer "verify.expect");
    ("characterize.ms", "ms", layer "characterize");
    ("characterize.executions", "count", cost (fun c -> c.Sim.Cost.executions));
    ("characterize.shots", "count", cost (fun c -> c.Sim.Cost.shots));
    ("characterize.ops", "count", cost (fun c -> c.Sim.Cost.gate_ops));
    ("sim.engine_ms_per_sample", "ms", median engine);
    ("approx.ms", "ms", layer "approx");
    ("verify.validate_ms", "ms", layer "verify.validate");
    ("optimize.evals", "count", evals /. n);
    ("optimize.ms_per_eval", "ms", ratio (layer_total "verify.validate") evals);
    ("cache.hit_ratio", "ratio", ratio hits (hits +. misses));
    ("cache.bytes", "bytes", mean (fun t -> float_of_int t.bytes));
    ("layers.coverage", "ratio", ratio (sum (List.map layer_sum tr)) (sum (List.map (fun t -> t.t_req) tr)));
    ("trace.overhead", "ratio", ratio req_med (median (List.map (fun t -> t.t_plain) tr)));
  ]

let log_request (r : Gen.request) v ms =
  Printf.eprintf "%-12s %-9s expected=%-5b got=%-5s %9.2f ms  %s\n%!" r.family r.mode r.holds
    (match v with Some b -> string_of_bool b | None -> "error")
    ms r.why

type tally = {
  mutable agree : int;
  mutable missed : (string * int) list;  (** missed violations by family *)
  mutable false_alarm : int;
  mutable errors : int;
}

let score tally (r : Gen.request) = function
  | None -> tally.errors <- tally.errors + 1
  | Some v when v = r.holds -> tally.agree <- tally.agree + 1
  | Some true ->
      let n = Option.value ~default:0 (List.assoc_opt r.family tally.missed) in
      tally.missed <- (r.family, n + 1) :: List.remove_assoc r.family tally.missed
  | Some false -> tally.false_alarm <- tally.false_alarm + 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and verbose = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " cold-verify | warm-serve | wide-characterize");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured run length");
      ("--trace", Arg.Set_int trace, " 1 = traced replay, per-layer metrics");
      ("--verbose", Arg.Set verbose, " one stderr line per untraced request");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let setup, setups, cycle_s =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  (* each set-up starts from a compacted heap, so it does not pay for
     collecting the one before it *)
  let setup_times = ref [] in
  let set_up () =
    let ctx = ref None in
    for _ = 1 to setups do
      Gc.compact ();
      let t0 = now () in
      ctx := Some (setup !seed);
      setup_times := (now () -. t0) :: !setup_times
    done;
    Option.get !ctx
  in
  let tally = { agree = 0; missed = []; false_alarm = 0; errors = 0 } in
  let attempted = ref 0 in
  let request ctx i =
    let j, v, ms = run_request ctx i in
    incr attempted;
    score tally ctx.reqs.(j) v;
    if !verbose then log_request ctx.reqs.(j) v ms;
    if v = None then Float.infinity else ms
  in
  (* the fastest latency of each request over the passes, ms; infinity
     when it failed every time *)
  let best = { data = Float.Array.create 1024; len = 0 } and traced = ref [] in
  let ctx = set_up () in
  let t0 = now () in
  if !trace = 0 then begin
    let cycles = max 1 (Float.to_int (Float.round (!seconds /. float_of_int passes /. cycle_s))) in
    let len = cycles * ctx.cycle and deadline = t0 +. (overrun *. !seconds) in
    let pass ctx update =
      let i = ref 0 in
      while !i < len && now () < deadline do
        update !i (request ctx !i);
        incr i
      done
    in
    pass ctx (fun _ ms -> push best ms);
    for _ = 2 to passes do
      if now () < deadline then
        let ctx = set_up () in
        pass ctx (fun i ms -> Float.Array.set best.data i (Float.min (Float.Array.get best.data i) ms))
    done
  end
  else
    while now () -. t0 < !seconds do
      let j, v, tr = trace_request ctx !attempted in
      incr attempted;
      score tally ctx.reqs.(j) v;
      traced := tr :: !traced
    done;
  if !verbose then List.iter (Printf.eprintf "setup %.4f s\n") (List.rev !setup_times);
  let rss = peak_rss_mb () in
  let attempted = !attempted in
  let lat = List.filter Float.is_finite (to_list best) in
  let completed = List.length lat in
  (* p99 only when at least ten samples lie beyond it *)
  let p99 =
    if completed >= 1000 then Printf.sprintf ", \"verify_p99_ms\": %s" (json_num (percentile 0.99 lat))
    else ""
  in
  let missed =
    String.concat ", "
      (List.map (fun (f, n) -> Printf.sprintf "%S: %d" f n) (List.sort compare tally.missed))
  in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"held_out_seed\": %d, \"nproc\": %d, \"domains\": %d, \"ocaml\": %S, \
     \"samples\": %d, \"passes\": %d, \"agree\": %d, \"missed\": {%s}, \"false_alarms\": %d, \"errors\": %d%s}\n"
    !workload !seed held_out_seed
    (Domain.recommended_domain_count ())
    (Parallel.Pool.domains (Parallel.Pool.global ()))
    Sys.ocaml_version completed
    (if !trace = 0 then passes else 1)
    tally.agree missed tally.false_alarm tally.errors p99;
  (* A VIOLATED verdict on an assertion that holds is a verifier bug: the
     counter-example was confirmed on the real program. A missed violation
     is the "no counter-example found" gap that verdict_agreement counts. *)
  let correct = tally.errors = 0 && tally.false_alarm = 0 in
  if !trace = 0 then
    print_result ~correct ~attempted ~failed:tally.errors
      [
        ("verify_p50_ms", "ms", percentile 0.5 lat);
        ("verify_p90_ms", "ms", percentile 0.9 lat);
        (* one client in a closed loop: requests per second when each
           takes its fastest time *)
        ("verifies_per_s", "1/s", float_of_int completed /. (sum lat /. 1e3));
        ("verdict_agreement", "ratio", float_of_int tally.agree /. float_of_int (max 1 attempted));
        ("setup_s", "s", List.fold_left Float.min Float.infinity !setup_times);
        ("peak_rss_mb", "MB", rss);
      ]
  else begin
    let metrics = per_layer ~rpc:ctx.rpc !traced in
    let coverage = match List.find (fun (n, _, _) -> n = "layers.coverage") metrics with _, _, v -> v in
    let same = List.for_all (fun t -> t.same) !traced in
    if coverage < 0.9 then Printf.eprintf "layer spans cover %.3f of the request wall time, below 0.9\n" coverage;
    if not same then prerr_endline "a replay reached another verdict than its request";
    let out = Filename.concat "perfbench" "out" in
    (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    write_trace ~max_req:2000 (Filename.concat out (Printf.sprintf "%s-seed%d.json" !workload !seed));
    let ok = correct && same && coverage >= 0.9 in
    print_result ~correct:ok ~attempted ~failed:tally.errors metrics;
    if not ok then exit 1
  end

open Linalg

type mode =
  | Exact
  | Tomography of { shots : int; project : bool }
  | Probs_only of { shots : int }

type sample = {
  input_state : Qstate.Statevec.t;
  input_dm : Cmat.t;
  traces : (int * Cmat.t) list;
}

type t = {
  program : Program.t;
  samples : sample array;
  mode : mode;
  cost : Sim.Cost.t;
  obs : Obs.Span.summary;
}


let degrade ?budget rng mode cost circuit (id, exact) =
  match mode with
  | Exact ->
      Sim.Cost.record_many cost circuit ~circuits:1 ~shots_each:1;
      (id, exact)
  | Tomography { shots; project } ->
      let tomo =
        Tomography.State_tomo.run ~project ?budget rng ~shots ~truth:exact ()
      in
      Sim.Cost.record_total cost circuit
        ~executions:tomo.Tomography.State_tomo.settings
        ~total_shots:tomo.Tomography.State_tomo.shots_used;
      (id, tomo.Tomography.State_tomo.rho)
  | Probs_only { shots } ->
      let tomo =
        Tomography.State_tomo.probs_only ?budget rng ~shots ~truth:exact ()
      in
      Sim.Cost.record_total cost circuit ~executions:1
        ~total_shots:tomo.Tomography.State_tomo.shots_used;
      (id, tomo.Tomography.State_tomo.rho)

(* the explicit [inputs] (size-checked), or [count] fresh draws from [rng] *)
let draw_inputs ~rng ~kind ~count program inputs =
  let k = Program.num_input_qubits program in
  match inputs with
  | Some states ->
      List.iter
        (fun st ->
          if Qstate.Statevec.num_qubits st <> k then
            invalid_arg "Characterize.run: input size mismatch")
        states;
      states
  | None ->
      List.init count (fun index -> Clifford.Sampling.state rng kind k ~index)

let run_uncached ?pool ?rng ?(kind = Clifford.Sampling.Clifford) ?(mode = Exact)
    ?budget ?noise ?trajectories ?inputs ?wall program ~count =
  (* watermark first, so the summary covers the [characterize.run] span
     itself once it closes — plus everything nested under it *)
  let since = Obs.Span.mark () in
  let result =
    Obs.Span.with_ ~name:"characterize.run"
      ~attrs:[ ("count", string_of_int count) ]
    @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 7 in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let input_states = draw_inputs ~rng ~kind ~count program inputs in
  (* fan sampled inputs across the pool: one split child generator and one
     private cost meter per sample, derived/merged in index order so the
     characterization is bit-identical for any domain count *)
  let inputs_arr = Array.of_list input_states in
  let n = Array.length inputs_arr in
  let rngs = Array.init n (Stats.Rng.split rng) in
  let ideal = match noise with None -> true | Some nz -> Sim.Noise.is_ideal nz in
  (* Scalable-engine auto-routing: with basis-state inputs on an ideal
     program, [Sim.Engine.auto_route] may send each sample to the
     stabilizer tableau (Clifford programs), the sparse coordinate
     engine (provably low-occupancy programs) or the sum-over-
     stabilizers engine (near-Clifford programs) — each a lightcone-
     restricted run per tracepoint instead of a full state-vector pass.
     The decision is purely static — never a function of sampled
     values — and explicit [inputs] are never routed; everything else
     takes the per-sample [Program.run_traces] path. Basis inputs are
     exact one-hot amplitudes, so recovering the preparation index below
     is exact — and sidesteps [Program.embed]'s dense allocation, which
     cannot exist at 28+ qubits. *)
  let route =
    if Option.is_none inputs && kind = Clifford.Sampling.Basis && ideal
    then Sim.Engine.auto_route ?wall program.Program.circuit
    else None
  in
  let basis_index st =
    let d = Qstate.Statevec.dim st in
    let rec go k found =
      if k = d then found
      else
        match Qstate.Statevec.amplitude st k with
        | { Complex.re = 1.0; im = 0.0 } -> (
            match found with None -> go (k + 1) (Some k) | Some _ -> None)
        | { Complex.re = 0.0; im = 0.0 } -> go (k + 1) found
        | _ -> None
    in
    go 0 None
  in
  (* full-register preparation index for a one-hot [k]-qubit input:
     bit [j] of the input index sits on [input_qubits.(j)], exactly as
     [Program.embed] would place it *)
  let route_prep st =
    match basis_index st with
    | None -> None
    | Some a ->
        Some
          (List.fold_left
             (fun (acc, j) q ->
               ((if (a lsr j) land 1 = 1 then acc lor (1 lsl q) else acc), j + 1))
             (0, 0) program.Program.input_qubits
          |> fst)
  in
  let samples =
    Parallel.Pool.map_init pool n (fun i ->
        Obs.Span.with_ ~name:"characterize.sample" @@ fun () ->
        let rng = rngs.(i) in
        let sample_cost = Sim.Cost.create () in
        let input_state = inputs_arr.(i) in
        let prep =
          match route with Some _ -> route_prep input_state | None -> None
        in
        let traces =
          match (route, prep) with
          | Some engine, Some prep ->
              let v = Qstate.Statevec.to_cvec input_state in
              let circuit = program.Program.circuit in
              (0, Cmat.outer v v)
              ::
              (match engine with
              | `Stabilizer -> Sim.Engine.stabilizer_traces ~prep circuit
              | `Sparse -> Sim.Engine.sparse_traces ~prep circuit
              | `Rank -> Sim.Engine.rank_traces ~prep circuit)
          | _ ->
              Program.run_traces ~pool ?noise ?trajectories ~rng program
                ~input:input_state
        in
        let traces =
          List.map
            (fun (id, m) ->
              if id = 0 then (id, m)
              else
                degrade ?budget rng mode sample_cost program.Program.circuit
                  (id, m))
            traces
        in
        (* both branches put the input's density matrix first, as id 0 *)
        let input_dm = snd (List.hd traces) in
        ({ input_state; input_dm; traces }, sample_cost))
  in
  let cost = Sim.Cost.create () in
  Array.iter (fun (_, c) -> Sim.Cost.add cost c) samples;
  { program; samples = Array.map fst samples; mode; cost; obs = [] }
  in
  { result with obs = Obs.Span.summary ~since () }

(* ----------------- content-addressed incremental path ----------------- *)

(* The cache invariant every entry obeys: the stored value is a pure
   function of its key. Keys fold in every run parameter the value
   depends on — canonical unit bytes (or exact circuit bytes), the input
   fingerprint, the entry generator fingerprint, mode/budget — so a hit
   is bit-indistinguishable from recomputation, across eviction and
   persistence reload. *)

let ns_characterize = "characterize"

(* per-unit dense simulation allocates [2^width] amplitudes; past this
   width the incremental path would defeat the scalable-engine routing,
   so such programs fall back to the uncached path (Basis-routed scale
   programs) or whole-result caching *)
let unit_width_cap = 22

let statevec_fp st = Marshal.to_string (st : Qstate.Statevec.t) []

let inputs_fingerprint ~kind ~count inputs =
  match inputs with
  | None -> "kind" ^ Marshal.to_string (kind, count) []
  | Some states ->
      "explicit"
      ^ Cache.Canon.digest (String.concat "" (List.map statevec_fp states))

(* one degraded trace per sample for one cone, simulated in the unit's
   canonical qubit order so the computation is literally a function of the
   unit bytes. Tomography degradation draws from a generator derived from
   (cache key, sample index): independent of which other cones hit the
   cache, and of the caller's stream. *)
let compute_unit ~pool ~cost ~mode ~budget ~key circuit
    (cone : Analysis.Lightcone.cone) (u : Cache.Canon.unit_circuit) inputs_arr =
  let n = Array.length inputs_arr in
  let k = if n = 0 then 0 else Qstate.Statevec.num_qubits inputs_arr.(0) in
  let embed_input input =
    let st = Qstate.Statevec.zero u.Cache.Canon.width in
    for a = 0 to Qstate.Statevec.dim input - 1 do
      let idx = ref 0 in
      for j = 0 to k - 1 do
        if (a lsr j) land 1 = 1 then
          idx := !idx lor (1 lsl u.Cache.Canon.embed.(j))
      done;
      Qstate.Statevec.set_amplitude st !idx (Qstate.Statevec.amplitude input a)
    done;
    st
  in
  let results =
    Parallel.Pool.map_init pool n (fun i ->
        Obs.Span.with_ ~name:"characterize.unit" @@ fun () ->
        let meter = Sim.Cost.create () in
        let out =
          Sim.Engine.run ~initial:(embed_input inputs_arr.(i))
            u.Cache.Canon.circuit
        in
        let exact = List.assoc cone.Analysis.Lightcone.id out.Sim.Engine.traces in
        let drng =
          Stats.Rng.make
            (Cache.Fnv.seed_of_string (Printf.sprintf "%s#%d" key i))
        in
        let _, dm =
          degrade ?budget drng mode meter circuit
            (cone.Analysis.Lightcone.id, exact)
        in
        (dm, meter))
  in
  Array.iter (fun (_, m) -> Sim.Cost.add cost m) results;
  Array.map fst results

let run_cached cache ?pool ?rng ?(kind = Clifford.Sampling.Clifford)
    ?(mode = Exact) ?budget ?noise ?trajectories ?inputs ?wall program ~count =
  let since = Obs.Span.mark () in
  let result =
    Obs.Span.with_ ~name:"characterize.run"
      ~attrs:[ ("count", string_of_int count); ("cache", "1") ]
    @@ fun () ->
    let rng = match rng with Some r -> r | None -> Stats.Rng.make 7 in
    let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
    let circuit = program.Program.circuit in
    let ideal =
      match noise with None -> true | Some nz -> Sim.Noise.is_ideal nz
    in
    let deterministic = Sim.Engine.is_deterministic circuit in
    (* fingerprints taken before any generator consumption *)
    let rng_fp = string_of_int (Stats.Rng.fingerprint rng) in
    let inputs_fp = inputs_fingerprint ~kind ~count inputs in
    let mode_fp = Marshal.to_string (mode, budget) [] in
    let sample_inputs () = draw_inputs ~rng ~kind ~count program inputs in
    let cones = Analysis.Lightcone.cones circuit in
    let units =
      if ideal && deterministic then
        List.map
          (Cache.Canon.cone_unit circuit
             ~input_qubits:program.Program.input_qubits)
          cones
      else []
    in
    let incremental =
      ideal && deterministic
      && List.for_all
           (fun u -> u.Cache.Canon.width <= unit_width_cap)
           units
    in
    (* the uncached path's scalable-engine route: when it would fire, the
       incremental unit simulation is the wrong tool (dense per-unit
       passes past the wall) — run uncached, no caching *)
    let routed =
      Option.is_none inputs
      && kind = Clifford.Sampling.Basis && ideal
      && Sim.Engine.auto_route ?wall circuit <> None
    in
    if incremental then begin
      (* consume the caller's generator exactly as the uncached path
         would — sampled inputs plus one split child per sample — so the
         caller's stream continues from the same position on hits *)
      let inputs_arr = Array.of_list (sample_inputs ()) in
      let n = Array.length inputs_arr in
      let _children = Array.init n (Stats.Rng.split rng) in
      let cost = Sim.Cost.create () in
      let per_cone =
        List.map2
          (fun (cone : Analysis.Lightcone.cone) (u : Cache.Canon.unit_circuit) ->
            let key =
              Cache.Canon.digest
                (String.concat "\x00"
                   [ "unit-v1"; u.Cache.Canon.bytes; inputs_fp; rng_fp; mode_fp ])
            in
            let values =
              match Cache.find_value cache ~ns:ns_characterize key with
              | Some arr when Array.length arr = n -> arr
              | _ ->
                  let arr =
                    compute_unit ~pool ~cost ~mode ~budget ~key circuit cone u
                      inputs_arr
                  in
                  Cache.store_value cache ~ns:ns_characterize key arr;
                  arr
            in
            (cone.Analysis.Lightcone.id, values))
          cones units
      in
      let samples =
        Array.init n (fun i ->
            let input_state = inputs_arr.(i) in
            let v = Qstate.Statevec.to_cvec input_state in
            let input_dm = Cmat.outer v v in
            let traces =
              (0, input_dm) :: List.map (fun (id, arr) -> (id, arr.(i))) per_cone
            in
            { input_state; input_dm; traces })
      in
      { program; samples; mode; cost; obs = [] }
    end
    else if routed then
      (* scale programs past the dense wall: the routed engines are
         already lightcone-restricted and cheap — pass through *)
      run_uncached ~pool ~rng ~kind ~mode ?budget ?noise ?trajectories ?inputs
        ?wall program ~count
    else begin
      (* stochastic, noisy or too-wide programs: whole-result memo keyed
         by the exact (unrenumbered) circuit bytes and every parameter *)
      let key =
        Cache.Canon.digest
          (String.concat "\x00"
             [
               "whole-v2";
               Cache.Canon.exact_bytes circuit;
               Marshal.to_string
                 (program.Program.input_qubits, noise, trajectories)
                 [];
               inputs_fp;
               rng_fp;
               mode_fp;
             ])
      in
      match Cache.find_value cache ~ns:ns_characterize key with
      | Some samples ->
          (* replay the uncached path's generator consumption *)
          let states = sample_inputs () in
          let _children =
            Array.init (List.length states) (Stats.Rng.split rng)
          in
          { program; samples; mode; cost = Sim.Cost.create (); obs = [] }
      | None ->
          let t =
            run_uncached ~pool ~rng ~kind ~mode ?budget ?noise ?trajectories
              ?inputs ?wall program ~count
          in
          Cache.store_value cache ~ns:ns_characterize key t.samples;
          t
    end
  in
  { result with obs = Obs.Span.summary ~since () }

let run ?pool ?rng ?kind ?mode ?budget ?noise ?trajectories ?inputs ?cache
    ?wall program ~count =
  match cache with
  | None ->
      run_uncached ?pool ?rng ?kind ?mode ?budget ?noise ?trajectories ?inputs
        ?wall program ~count
  | Some cache ->
      run_cached cache ?pool ?rng ?kind ?mode ?budget ?noise ?trajectories
        ?inputs ?wall program ~count

let tracepoint_ids t =
  if Array.length t.samples = 0 then []
  else List.map fst t.samples.(0).traces

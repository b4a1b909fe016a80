(* Reference answers and the per-layer split of a request's work.

   The replica recomputes every answer in-process through the same public
   library calls the daemon and the CLI make — bypassing [Server], [Json]
   and [Service] — and times each call on the request's exact inputs.
   A daemon's cache and breaker state is modelled, so a layer is charged
   only where the daemon would have run it (a warm hit builds no BDD).
   Expensive results are memoized across daemons and phases together with
   their measured charges, so a key that recurs costs its work once here. *)

open Hlp_logic
module P = Hlp_power.Probprop
module J = Hlp_util.Json
module Bdd = Hlp_bdd.Bdd
module Engine = Hlp_sim.Engine

(* per-request amounts by per-layer metric name *)
type charges = (string * float) list

let timed f =
  let t0 = Proc.now () in
  let r = f () in
  (r, Proc.now () -. t0)

let ms s = s *. 1e3
let us s = s *. 1e6

(* library counters moved by a call, as charges of the same name *)
let counted_names =
  [ "parsim.mc_units"; "parsim.maps"; "parsim.shards"; "funcsim.gate_evals" ]

let counting f =
  let read () =
    List.map
      (fun n -> Hlp_util.Telemetry.count (Hlp_util.Telemetry.counter n))
      counted_names
  in
  let before = read () in
  let r = f () in
  let deltas =
    List.map2
      (fun n (a, b) -> (n, float_of_int (b - a)))
      counted_names
      (List.combine before (read ()))
  in
  (r, List.filter (fun (_, d) -> d <> 0.0) deltas)

let generator c = List.assoc c Hlp_power.Service.circuits

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

(* --- exact symbolic estimate: Probprop.symbolic's own calls, timed --- *)

type symbolic = Exact of float | Trip

let symbolic_memo : (string * int * int, symbolic * charges) Hashtbl.t =
  Hashtbl.create 64

let symbolic ~node_limit (c, w) =
  memo symbolic_memo (c, w, node_limit) @@ fun () ->
  let net = generator c w in
  let m = Bdd.manager ~node_limit () in
  let order = Bdd.first_use_order net in
  let t0 = Proc.now () in
  match Bdd.of_netlist_all ~order m net with
  | exception Hlp_util.Err.Error (Hlp_util.Err.Budget_exceeded _) ->
      ( Trip,
        [ ("bdd.attempts", 1.0); ("bdd.budget_trips", 1.0);
          ("bdd.wasted_ms", ms (Proc.now () -. t0)) ] )
  | funcs ->
      let build = Proc.now () -. t0 in
      let nodes = Bdd.node_count m in
      let prob, pt =
        timed (fun () -> Array.map (Bdd.probability m ~p:(fun _ -> 0.5)) funcs)
      in
      let activity = Array.map (fun p -> 2.0 *. p *. (1.0 -. p)) prob in
      ( Exact (P.estimate_capacitance net { P.prob; activity }),
        [ ("bdd.attempts", 1.0); ("bdd.finished", 1.0);
          ("bdd.build_ms", ms build); ("bdd.probability_ms", ms pt);
          ("bdd.nodes", float_of_int nodes) ] )

(* --- Monte Carlo at the estimate defaults (batch 30, 100k-cycle cap) --- *)

let mc_memo :
    (string * int * string * int * float * int option, P.monte_carlo * charges) Hashtbl.t =
  Hashtbl.create 256

let monte_carlo ?max_cycles ~engine ~seed ~rp (c, w) net =
  memo mc_memo (c, w, engine, seed, rp, max_cycles) @@ fun () ->
  let engine = Option.get (Engine.of_string engine) in
  let (r, dt), counts =
    counting (fun () ->
        timed (fun () ->
            P.monte_carlo ~seed ~engine ~relative_precision:rp ?max_cycles
              ~guard:(Hlp_util.Guard.create ()) net))
  in
  ( r,
    [ ("probprop.mc_ms", ms dt);
      ("probprop.batches", float_of_int r.P.batches);
      ("probprop.mc_cycles", float_of_int r.P.cycles_used) ]
    @ counts )

(* --- the daemon's estimate op --- *)

let fbits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* the result object the service serializes for this request *)
let result_json (e : Gen.est) ~cap ~estimator ~engine_used ~fallback ~batches
    ~cycles ~half =
  let engine = Engine.to_string (Option.get (Engine.of_string e.engine)) in
  J.Obj
    [ ("op", J.Str "estimate"); ("circuit", J.Str e.circuit);
      ("width", J.Int e.width); ("engine", J.Str engine);
      ("seed", J.Int e.seed); ("relative_precision", J.Float e.rp);
      ("capacitance", J.Float cap); ("capacitance_bits", J.Str (fbits cap));
      ("estimator", J.Str estimator);
      ("engine_used", match engine_used with Some s -> J.Str s | None -> J.Null);
      ("symbolic_fallback", J.Bool fallback); ("batches", J.Int batches);
      ("cycles_used", J.Int cycles);
      ("half_interval", match half with Some h -> J.Float h | None -> J.Null) ]

(* What one fresh daemon has done so far: netlists built, exact results
   cached, answers cached, and its symbolic breaker (3 consecutive trips
   open it; runs end before the 30 s cooldown). *)
type model = {
  nets : (string * int, Netlist.t) Hashtbl.t;
  exact : (string * int, float) Hashtbl.t;
  answers : (Gen.est, J.t) Hashtbl.t;
  mutable failures : int;
  mutable opened : bool;
}

let fresh_daemon () =
  { nets = Hashtbl.create 16; exact = Hashtbl.create 16;
    answers = Hashtbl.create 256; failures = 0; opened = false }

let breaker_threshold = 3

(* The answer this daemon owes [e], and the work it did for it. The calls
   made only to time a layer (parse, framing, fingerprint, emit) run when
   [charge] is set; the charges are empty otherwise. *)
let serve ~charge model ~payload ~reply (e : Gen.est) =
  let key = (e.circuit, e.width) in
  let time f = if charge then snd (timed f) else 0.0 in
  let parse = time (fun () -> ignore (J.parse payload)) in
  let frame =
    time (fun () ->
        ignore (Hlp_util.Journal.frame payload);
        ignore (Hlp_util.Journal.frame reply))
  in
  let net, built =
    match Hashtbl.find_opt model.nets key with
    | Some n -> (n, [])
    | None ->
        let n, dt = timed (fun () -> generator e.circuit e.width) in
        Hashtbl.replace model.nets key n;
        (n, [ ("netlist.build_ms", ms dt) ])
  in
  let fp = time (fun () -> ignore (Netlist.fingerprint net)) in
  let base =
    if not charge then []
    else
      [ ("json.parse_us", us parse); ("server.frame_us", us frame);
        ("netlist.fingerprint_us", us fp);
        ("netlist.gates", float_of_int (Netlist.num_gates net)) ]
      @ built
  in
  match Hashtbl.find_opt model.answers e with
  | Some r -> (r, base)
  | None ->
      let node_limit = Option.value ~default:P.default_node_limit e.node_limit in
      let exact, fallback, sym_charges =
        if model.opened then (None, false, [])
        else
          match Hashtbl.find_opt model.exact key with
          | Some cap ->
              model.failures <- 0;
              (Some cap, false, [])
          | None -> (
              match symbolic ~node_limit key with
              | Exact cap, ch ->
                  Hashtbl.replace model.exact key cap;
                  model.failures <- 0;
                  (Some cap, false, ch)
              | Trip, ch ->
                  model.failures <- model.failures + 1;
                  if model.failures >= breaker_threshold then model.opened <- true;
                  (None, true, ch))
      in
      let r, mc_charges =
        match exact with
        | Some cap ->
            ( result_json e ~cap ~estimator:"symbolic" ~engine_used:None ~fallback
                ~batches:0 ~cycles:0 ~half:None,
              [] )
        | None ->
            let mc, ch =
              monte_carlo ?max_cycles:e.max_cycles ~engine:e.engine ~seed:e.seed
                ~rp:e.rp key net
            in
            ( result_json e ~cap:mc.P.estimate ~estimator:"monte_carlo"
                ~engine_used:(Some e.engine) ~fallback ~batches:mc.P.batches
                ~cycles:mc.P.cycles_used ~half:(Some mc.P.half_interval),
              ch )
      in
      let emit = time (fun () -> ignore (J.to_string ~compact:true r)) in
      Hashtbl.replace model.answers e r;
      ( r,
        if charge then base @ sym_charges @ mc_charges @ [ ("json.emit_us", us emit) ]
        else [] )

(* --- the CLI's estimate subcommand, at its defaults --- *)

let cli_cycles = 2000

let cli_memo : (string * int * int, string * charges) Hashtbl.t = Hashtbl.create 16

(* The exact stdout of [hlpower estimate --circuit c --width w --seed s]
   (2000 uniform cycles, bitparallel engine), and the work behind it. *)
let cli_expected (c, w, seed) =
  memo cli_memo (c, w, seed) @@ fun () ->
  let b = Buffer.create 512 in
  let line fmt = Printf.bprintf b fmt in
  let net, build = timed (fun () -> generator c w) in
  line "circuit: %s\n" (Netlist.stats_string net);
  let nin = Array.length net.Netlist.inputs in
  let trace =
    Hlp_sim.Streams.uniform (Hlp_util.Prng.create seed) ~width:nin ~n:cli_cycles
  in
  let vector i = Array.init nin (fun k -> Hlp_util.Bits.bit trace.(i) k) in
  let guard = Hlp_util.Guard.create () in
  let (replay, replay_s), replay_counts =
    counting (fun () ->
        timed (fun () ->
            match
              Hlp_sim.Parsim.replay_guarded ~guard ~engine:Engine.Bitparallel net
                ~vector ~n:cli_cycles
            with
            | Ok d -> d.Hlp_sim.Parsim.value
            | Error e -> raise (Hlp_util.Err.Error e)))
  in
  line "gate-level reference:   %10.1f cap units/cycle  [bitparallel engine]\n"
    (Hlp_util.Stats.mean replay.Hlp_sim.Parsim.transition_caps);
  let entropy_s = ref 0.0 in
  let (), entropy_counts =
    counting (fun () ->
        List.iter
          (fun (name, model) ->
            let est, dt =
              timed (fun () ->
                  Hlp_power.Entropy.estimate_netlist ~model net ~input_trace:trace)
            in
            entropy_s := !entropy_s +. dt;
            line "%-22s %10.1f cap units/cycle\n" name
              (est.Hlp_power.Entropy.c_tot *. est.Hlp_power.Entropy.e_avg))
          [ ("entropy (Marculescu):", Hlp_power.Entropy.Marculescu);
            ("entropy (Nemani-Najm):", Hlp_power.Entropy.Nemani_najm) ])
  in
  let ces, ces_s =
    timed (fun () ->
        Hlp_power.Complexity.ces_switched_capacitance_estimate
          Hlp_power.Complexity.ces_default net)
  in
  line "%-22s %10.1f cap units/cycle\n" "gate-equivalents (CES):" ces;
  let mc, mc_charges =
    monte_carlo ~engine:"bitparallel" ~seed ~rp:0.05 (c, w) net
  in
  line
    "monte carlo (t-CI):     %10.1f cap units/cycle  (+/- %.1f, %d batches, %d cycles)\n"
    mc.P.estimate mc.P.half_interval mc.P.batches mc.P.cycles_used;
  (* the guarded line: exact under the default budget, else the same
     Monte Carlo run again *)
  let guarded, guarded_charges =
    match symbolic ~node_limit:P.default_node_limit (c, w) with
    | Exact cap, ch -> (Printf.sprintf "%10.1f cap units/cycle  [symbolic (exact BDD)]" cap, ch)
    | Trip, ch ->
        ( Printf.sprintf
            "%10.1f cap units/cycle  [sampled after BDD budget trip on \
             bitparallel engine, +/- %.1f]"
            mc.P.estimate mc.P.half_interval,
          ch @ mc_charges )
  in
  line "guarded estimate:       %s\n" guarded;
  ( Buffer.contents b,
    [ ("netlist.build_ms", ms build);
      ("netlist.gates", float_of_int (Netlist.num_gates net));
      ("parsim.replay_ms", ms replay_s); ("entropy.estimate_ms", ms !entropy_s);
      ("complexity.ces_ms", ms ces_s) ]
    @ replay_counts @ entropy_counts @ mc_charges @ guarded_charges )

(* --- lane engines on a workload's netlists ---

   One Monte Carlo unit as Parsim runs it (30 steps of 63 lanes from a
   per-unit PRNG stream), split into create / steps / charge sweep. *)

let batch = 30

let unit_words net u =
  let rng = Hlp_util.Prng.create (97 + u) in
  let nin = Array.length net.Netlist.inputs in
  Array.init batch (fun _ ->
      Array.init nin (fun _ -> Int64.to_int (Hlp_util.Prng.bits64 rng)))

let engine_units = 48

(* metrics for the engines [kernel] / [bitsim] over [nets] (means) *)
let engines ~kernel ~bitsim nets =
  let acc = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))
  in
  let lane_cycles = float_of_int (batch * Hlp_sim.Bitsim.lanes * engine_units) in
  List.iter
    (fun net ->
      let units = List.init engine_units (unit_words net) in
      if bitsim then begin
        let caps = Netlist.node_capacitance net in
        let c = ref 0.0 and s = ref 0.0 in
        List.iter
          (fun words ->
            let sim, dc = timed (fun () -> Hlp_sim.Bitsim.create ~caps net) in
            let (), ds = timed (fun () -> Array.iter (Hlp_sim.Bitsim.step sim) words) in
            ignore (Hlp_sim.Bitsim.switched_capacitance sim);
            c := !c +. dc;
            s := !s +. ds)
          units;
        add "bitsim.create_us" (us !c /. float_of_int engine_units);
        add "bitsim.step_ns_per_lane_cycle" (!s *. 1e9 /. lane_cycles)
      end;
      if kernel then begin
        let plan, dp = timed (fun () -> Hlp_sim.Kernel.compile net) in
        let c = ref 0.0 and s = ref 0.0 and w = ref 0.0 in
        List.iter
          (fun words ->
            let sim, dc = timed (fun () -> Hlp_sim.Kernel.create plan) in
            let (), ds = timed (fun () -> Array.iter (Hlp_sim.Kernel.step sim) words) in
            let _, dw = timed (fun () -> Hlp_sim.Kernel.switched_capacitance sim) in
            c := !c +. dc;
            s := !s +. ds;
            w := !w +. dw)
          units;
        add "kernel.compile_ms" (ms dp);
        add "kernel.create_us" (us !c /. float_of_int engine_units);
        add "kernel.step_ns_per_lane_cycle" (!s *. 1e9 /. lane_cycles);
        add "kernel.sweep_us" (us !w /. float_of_int engine_units)
      end)
    nets;
  let n = float_of_int (max 1 (List.length nets)) in
  Hashtbl.fold (fun k v l -> (k, v /. n) :: l) acc []

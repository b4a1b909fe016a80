open Hlp_logic

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let tel_maps = Hlp_util.Telemetry.counter "parsim.maps"
let tel_shards = Hlp_util.Telemetry.counter "parsim.shards"
(* one observation per worker domain per parallel map: the number of shards
   that worker pulled. With perfect load balance every observation of a map
   is ~n/jobs; stragglers show up as outliers. *)
let tel_domain_shards = Hlp_util.Telemetry.series "parsim.domain_shards"
let tel_jobs_clamped = Hlp_util.Telemetry.counter "parsim.jobs_clamped"
let tel_worker_failures = Hlp_util.Telemetry.counter "parsim.worker_failures"
let tel_shard_retries = Hlp_util.Telemetry.counter "parsim.shard_retries"
let tel_engine_fallbacks = Hlp_util.Telemetry.counter "parsim.engine_fallbacks"
let tel_replays = Hlp_util.Telemetry.counter "parsim.replays"
let tel_replay_cycles = Hlp_util.Telemetry.counter "parsim.replay_cycles"
let tel_chunks = Hlp_util.Telemetry.counter "parsim.chunks"
let tel_mc_units = Hlp_util.Telemetry.counter "parsim.mc_units"
let tel_replay_time = Hlp_util.Telemetry.timer "parsim.replay"
let tel_mc_time = Hlp_util.Telemetry.timer "parsim.monte_carlo"

(* An explicit worker count is clamped to both the shard count and the
   recommended domain count: domains beyond either would sit idle (or
   oversubscribe the cores), and the clamp is visible in telemetry instead
   of silently spawning them. *)
let effective_jobs ?jobs n =
  let cap = min (max 1 n) (default_jobs ()) in
  match jobs with
  | None -> cap
  | Some j ->
      let j = max 1 j in
      if j > cap then begin
        Hlp_util.Telemetry.incr tel_jobs_clamped;
        cap
      end
      else j

let backoff_base_s = 0.001

let map ?jobs ?(max_retries = 2) n f =
  if n < 0 then
    raise (Hlp_util.Err.invalid_input ~what:"Parsim.map: n" "must be non-negative");
  if max_retries < 0 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Parsim.map: max_retries"
         "must be non-negative");
  let jobs = effective_jobs ?jobs n in
  if n = 0 then [||]
  else begin
    Hlp_util.Telemetry.incr tel_maps;
    Hlp_util.Telemetry.add tel_shards n;
    let results = Array.make n None in
    let failed = Array.make n None in  (* last attempt's exception, per shard *)
    (* One round computes the given shard subset, work-stealing over it.
       Each shard writes only its own slot, so the result is
       position-determined and independent of the worker count and of
       scheduling. A raising shard is contained: its exception is recorded,
       the worker moves on, and every other shard still completes. *)
    let round ~attempt indices =
      let k = Array.length indices in
      let next = Atomic.make 0 in
      let worker () =
        let mine = ref 0 in
        let rec go () =
          let j = Atomic.fetch_and_add next 1 in
          if j < k then begin
            let i = indices.(j) in
            (* span per shard attempt: in the merged trace, each worker
               domain's track shows exactly which shards it pulled, and a
               retried shard appears again with attempt > 1 *)
            (match
               Hlp_util.Trace.span
                 ~args:(fun () ->
                   [ ("shard", Hlp_util.Json.Int i);
                     ("attempt", Hlp_util.Json.Int attempt) ])
                 "parsim.shard"
                 (fun () ->
                   (* fault-injection point: this worker dying at pickup *)
                   Hlp_util.Faultinject.trip Hlp_util.Faultinject.Domain_kill;
                   f i)
             with
            | v ->
                results.(i) <- Some v;
                failed.(i) <- None;
                Stdlib.incr mine
            | exception e ->
                Hlp_util.Telemetry.incr tel_worker_failures;
                Hlp_util.Trace.instant
                  ~args:(fun () ->
                    [ ("shard", Hlp_util.Json.Int i);
                      ("why", Hlp_util.Json.Str (Printexc.to_string e)) ])
                  "parsim.shard_failed";
                failed.(i) <- Some e);
            go ()
          end
        in
        go ();
        if Hlp_util.Telemetry.enabled () then
          Hlp_util.Telemetry.observe tel_domain_shards (float_of_int !mine)
      in
      let domains =
        Array.init (min jobs k - 1) (fun _ -> Domain.spawn worker)
      in
      worker ();
      Array.iter Domain.join domains
    in
    round ~attempt:1 (Array.init n Fun.id);
    (* failed shards are retried on fresh domains with bounded exponential
       backoff; [f] is deterministic per index, so a retried shard that
       succeeds yields exactly the value the clean run would have *)
    let rec retry attempt =
      let pending =
        Array.of_seq
          (Seq.filter (fun i -> failed.(i) <> None) (Seq.init n Fun.id))
      in
      if Array.length pending > 0 && attempt <= max_retries then begin
        Hlp_util.Telemetry.add tel_shard_retries (Array.length pending);
        Hlp_util.Trace.span
          ~args:(fun () ->
            [ ("pending", Hlp_util.Json.Int (Array.length pending));
              ("attempt", Hlp_util.Json.Int attempt) ])
          "parsim.retry_backoff"
          (fun () ->
            Unix.sleepf (backoff_base_s *. float_of_int (1 lsl (attempt - 1))));
        round ~attempt:(attempt + 1) pending;
        retry (attempt + 1)
      end
    in
    retry 1;
    Array.iteri
      (fun i e ->
        match e with
        | Some e ->
            raise
              (Hlp_util.Err.Error
                 (Hlp_util.Err.Worker_failure
                    { shard = i;
                      attempts = max_retries + 1;
                      why = Printexc.to_string e }))
        | None -> ())
      failed;
    Array.map (function Some v -> v | None -> assert false) results
  end

type replay = {
  out_words : int array;
  transition_caps : float array;
}

(* --- scalar reference implementation: one Funcsim step per cycle --- *)

let replay_scalar net ~vector ~n =
  let sim = Funcsim.create net in
  let outs = net.Netlist.outputs in
  let out_words = Array.make n 0 in
  let gate_cum = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Funcsim.step sim (vector i);
    let v = ref 0 in
    Array.iteri
      (fun k (_, wire) -> if Funcsim.value sim wire then v := !v lor (1 lsl k))
      outs;
    out_words.(i) <- !v;
    gate_cum.(i) <- Funcsim.switched_capacitance sim
  done;
  let transition_caps =
    Array.init (max 0 (n - 1)) (fun i -> gate_cum.(i + 1) -. gate_cum.(i))
  in
  { out_words; transition_caps }

(* --- lane chunk: 63 consecutive cycles per two Kernel steps ---

   A combinational circuit's settled state depends only on the current
   vector, so a serial trace can be transposed: lane j of a chunk starting
   at cycle [lo] first settles at vector lo+j (warm-up step, accounting
   off), then steps to vector lo+j+1 with per-lane accounting on. The
   per-lane switched capacitance of the counted step is exactly the
   capacitance the scalar simulator charges for the transition
   lo+j -> lo+j+1.

   The warm-up settle is a pure function of the warm-up vectors, so the
   state's prior contents are irrelevant and one state can be reused
   across chunks — the result is bit-identical to a freshly created one. *)
let replay_chunk sim ~vector ~n lo =
  let count = min Kernel.lanes (n - lo) in
  Kernel.set_counting sim false;
  (* vectors lo .. lo+63 once: lane j of the counted step is lane j+1 of
     the warm-up step, so the counted words are a lane shift of the warm-up
     words plus vector lo+63 entering at the top lane *)
  let vecs =
    Array.init (Kernel.lanes + 1) (fun j -> vector (min (lo + j) (n - 1)))
  in
  let warm = Bitsim.pack_lanes (Array.sub vecs 0 Kernel.lanes) in
  Kernel.step sim warm;
  let outs = Array.sub (Kernel.output_words sim) 0 count in
  let last = vecs.(Kernel.lanes) in
  let next =
    Array.mapi
      (fun k w -> (w lsr 1) lor (if last.(k) then 1 lsl (Kernel.lanes - 1) else 0))
      warm
  in
  Kernel.reset_counters sim;
  Kernel.set_counting sim true;
  Kernel.step sim next;
  let lane_caps = Kernel.lane_switched_capacitance sim in
  let ntrans = min count (n - 1 - lo) in
  (outs, Array.sub lane_caps 0 (max 0 ntrans))

let replay ?jobs ?max_retries ~engine net ~vector ~n =
  if n < 1 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Parsim.replay: n"
         "need at least one cycle");
  Hlp_util.Telemetry.incr tel_replays;
  Hlp_util.Telemetry.add tel_replay_cycles n;
  Hlp_util.Telemetry.time tel_replay_time @@ fun () ->
  Hlp_util.Trace.span
    ~args:(fun () ->
      [ ("engine", Hlp_util.Json.Str (Engine.to_string engine));
        ("cycles", Hlp_util.Json.Int n) ])
    "parsim.replay"
  @@ fun () ->
  match (engine : Engine.t) with
  | Engine.Scalar -> replay_scalar net ~vector ~n
  | Engine.Bitparallel | Engine.Parallel | Engine.Compiled ->
      if Netlist.num_dffs net > 0 then
        invalid_arg
          "Parsim.replay: bit-parallel trace replay requires a combinational \
           netlist (sequential state cannot be chunked)";
      let nchunks = (n + Kernel.lanes - 1) / Kernel.lanes in
      Hlp_util.Telemetry.add tel_chunks nchunks;
      (* compile once (fingerprint-cached); the plan is immutable and
         shared by every chunk state *)
      let plan = Kernel.of_netlist net in
      let jobs =
        match engine with
        | Engine.Parallel -> (
            match jobs with Some j -> max 1 j | None -> default_jobs ())
        | _ -> 1
      in
      let chunks =
        if jobs <= 1 then begin
          let sim = Kernel.create ~track_lanes:true plan in
          Array.init nchunks (fun c ->
              replay_chunk sim ~vector ~n (c * Kernel.lanes))
        end
        else
          (* one state per chunk: shards run concurrently *)
          map ~jobs ?max_retries nchunks (fun c ->
              replay_chunk
                (Kernel.create ~track_lanes:true plan)
                ~vector ~n (c * Kernel.lanes))
      in
      let out_words = Array.concat (Array.to_list (Array.map fst chunks)) in
      let transition_caps = Array.concat (Array.to_list (Array.map snd chunks)) in
      assert (Array.length out_words = n);
      assert (Array.length transition_caps = n - 1);
      { out_words; transition_caps }

(* --- engine degradation chain --- *)

(* [Compiled] and [Bitparallel] run the same lanes, so retrying one as the
   other would re-run identical code: both fall straight back to the scalar
   oracle. [Parallel] first drops its domains. *)
let degradation_chain = function
  | Engine.Parallel -> [ Engine.Parallel; Engine.Bitparallel; Engine.Scalar ]
  | (Engine.Bitparallel | Engine.Compiled) as e -> [ e; Engine.Scalar ]
  | Engine.Scalar -> [ Engine.Scalar ]

(* Guard trips and input errors must propagate: degrading an estimate past
   its deadline (or past bad input) would return a wrong answer late
   instead of a typed error on time. Everything else — injected faults,
   worker failures that survived their retries, engine-capability
   mismatches — degrades to the next engine. *)
let propagates = function
  | Hlp_util.Err.Error
      (Hlp_util.Err.Deadline_exceeded _ | Hlp_util.Err.Cancelled _
      | Hlp_util.Err.Invalid_input _) ->
      true
  | _ -> false

type 'a degraded = { value : 'a; engine_used : Engine.t; fallbacks : int }

let with_degradation ~what ~guard ~engine f =
  Hlp_util.Err.protect @@ fun () ->
  let rec go fallbacks = function
    | [] -> assert false
    | e :: rest -> (
        Hlp_util.Guard.check ~where:what guard;
        match
          (* one span per engine attempt: a degraded run shows the chain of
             attempts side by side, each hop marked by a fallback instant *)
          Hlp_util.Trace.span
            ~args:(fun () ->
              [ ("what", Hlp_util.Json.Str what);
                ("engine", Hlp_util.Json.Str (Engine.to_string e));
                ("fallbacks", Hlp_util.Json.Int fallbacks) ])
            "parsim.engine_attempt"
            (fun () -> f e)
        with
        | v -> { value = v; engine_used = e; fallbacks }
        | exception exn ->
            if propagates exn then raise exn
            else if rest <> [] then begin
              Hlp_util.Telemetry.incr tel_engine_fallbacks;
              Hlp_util.Trace.instant
                ~args:(fun () ->
                  [ ("from", Hlp_util.Json.Str (Engine.to_string e));
                    ("to",
                     Hlp_util.Json.Str (Engine.to_string (List.hd rest)));
                    ("why", Hlp_util.Json.Str (Printexc.to_string exn)) ])
                "parsim.engine_fallback";
              go (fallbacks + 1) rest
            end
            else begin
              match exn with
              | Hlp_util.Err.Error _ -> raise exn
              | _ ->
                  (* the last engine failed with a raw exception: surface it
                     as a typed whole-pipeline worker failure *)
                  raise
                    (Hlp_util.Err.Error
                       (Hlp_util.Err.Worker_failure
                          { shard = -1;
                            attempts = fallbacks + 1;
                            why = what ^ ": " ^ Printexc.to_string exn }))
            end)
  in
  go 0 (degradation_chain engine)

let replay_guarded ?jobs ?max_retries ?(guard = Hlp_util.Guard.unlimited) ~engine
    net ~vector ~n =
  if n < 1 then
    Error
      (Hlp_util.Err.Invalid_input
         { what = "Parsim.replay: n"; why = "need at least one cycle" })
  else
    with_degradation ~what:"parsim.replay" ~guard ~engine (fun e ->
        replay ?jobs ?max_retries ~engine:e net ~vector ~n)

(* --- Monte Carlo under uniform inputs --- *)

type mc = {
  mean : float;
  unit_means : float array;
  cycles : int;
}

(* Each unit is an independent 63-lane batch whose PRNG stream depends only
   on (seed, unit index) — never on the worker that ran it — which is what
   makes the parallel reduction deterministic in the number of domains.
   [sim] is in the reset condition (fresh or {!Kernel.reset}); [words] is
   the input buffer, refilled every step. *)
let mc_unit sim words ~batch ~seed u =
  let rng = Hlp_util.Prng.create (seed + ((u + 1) * 0x2545F4914F6CDD1D)) in
  for _ = 1 to batch do
    for k = 0 to Array.length words - 1 do
      words.(k) <- Int64.to_int (Hlp_util.Prng.bits64 rng)
    done;
    Kernel.step sim words
  done;
  Kernel.switched_capacitance sim /. float_of_int (batch * Kernel.lanes)

let monte_carlo_units ?jobs ?max_retries ?resume_means ?on_unit ~engine net
    ~batch ~seed ~stop =
  Hlp_util.Telemetry.time tel_mc_time @@ fun () ->
  (* fixed round size, independent of the worker count, so the stopping
     decisions (and therefore the estimate) do not depend on ~jobs *)
  let round = match (engine : Engine.t) with Engine.Parallel -> 8 | _ -> 1 in
  let jobs = match engine with Engine.Parallel -> jobs | _ -> Some 1 in
  let plan = Kernel.of_netlist net in
  let nin = Array.length net.Netlist.inputs in
  let unit_of =
    match engine with
    | Engine.Parallel ->
        (* units of a round run concurrently: one state per unit *)
        fun u -> mc_unit (Kernel.create plan) (Array.make nin 0) ~batch ~seed u
    | _ ->
        (* one worker, the calling domain: every unit (and every retry of
           a unit that raised mid-step) reuses one reset state *)
        let sim = Kernel.create plan and words = Array.make nin 0 in
        fun u ->
          Kernel.reset sim;
          mc_unit sim words ~batch ~seed u
  in
  let resumed =
    match resume_means with
    | None -> [||]
    | Some ms ->
        (* keep only whole rounds so stop-rule evaluation points line up
           with the unit-index boundaries a fresh run would have used —
           the price of a crash mid-round is re-running that round *)
        Array.sub ms 0 (Array.length ms / round * round)
  in
  (* unit means so far, in unit order: a growable buffer holding [!len],
     seeded with the resumed prefix *)
  let buf = ref resumed and len = ref (Array.length resumed) in
  let push m =
    if !len = Array.length !buf then begin
      let b = Array.make (max 16 (2 * !len)) 0.0 in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- m;
    incr len
  in
  let finish means cycles =
    { mean = Hlp_util.Stats.mean means; unit_means = means; cycles }
  in
  let rec go () =
    let nunits = !len in
    let fresh =
      Hlp_util.Trace.span
        ~args:(fun () ->
          [ ("units_done", Hlp_util.Json.Int nunits);
            ("round", Hlp_util.Json.Int round) ])
        "parsim.mc_round"
        (fun () ->
          map ?jobs ?max_retries round (fun r -> unit_of (nunits + r)))
    in
    Hlp_util.Telemetry.add tel_mc_units round;
    (match on_unit with
    | None -> ()
    | Some f -> Array.iteri (fun r m -> f (nunits + r) m) fresh);
    Array.iter push fresh;
    let means = Array.sub !buf 0 !len in
    let cycles = !len * batch * Kernel.lanes in
    if stop ~means ~cycles then finish means cycles else go ()
  in
  let nunits0 = Array.length resumed in
  let cycles0 = nunits0 * batch * Kernel.lanes in
  (* entry stop-check: the previous run may have crashed after the stop
     rule fired but before its final snapshot landed *)
  if nunits0 > 0 && stop ~means:resumed ~cycles:cycles0 then
    finish resumed cycles0
  else go ()

(** Multicore runner for the lane simulator ({!Kernel}).

    [Parsim] shards independent simulation work across OCaml 5 domains. The
    determinism contract, relied on by every consumer: {e results depend
    only on the inputs and shard indices, never on the number of workers or
    on scheduling}. Shards are self-describing (per-shard PRNG streams
    derived from the seed and the shard index), each shard writes a
    pre-assigned slot, and reductions run in shard-index order — so [jobs=1]
    and [jobs=64] produce bit-identical floats.

    Faults are {e contained}, not propagated: a shard whose computation
    raises no longer takes the whole map down. Its exception is recorded,
    every other shard still completes, and failed shards are retried on
    fresh domains with bounded exponential backoff ([max_retries] rounds,
    1 ms base). Because shards are deterministic per index, a retry that
    succeeds yields exactly the value a clean run would have — containment
    does not weaken the determinism contract. Shards that keep failing
    surface as the typed error
    [Hlp_util.Err.Error (Worker_failure _)]. Failure, retry, and clamp
    counts are visible in the ["parsim.worker_failures"],
    ["parsim.shard_retries"], ["parsim.jobs_clamped"], and
    ["parsim.engine_fallbacks"] telemetry counters. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val map : ?jobs:int -> ?max_retries:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [Array.init n f] computed by up to [jobs] domains
    (default {!default_jobs}) pulling shard indices from a shared counter.
    [f] must be safe to run concurrently with itself (pure, or touching
    only shard-local state). Result slot [i] always holds [f i].

    An explicit [jobs] is clamped to [min n (default_jobs ())] — domains
    beyond the shard count or the recommended domain count would idle or
    oversubscribe — with the clamp counted in ["parsim.jobs_clamped"].
    Raising shards are retried up to [max_retries] (default 2) times; a
    shard still failing afterwards raises
    [Hlp_util.Err.Error (Worker_failure {shard; _})]. Raises
    [Invalid_input] on negative [n] or [max_retries]. *)

(** {1 Serial-trace replay} *)

type replay = {
  out_words : int array;
      (** per cycle: settled primary outputs, output index [k] at bit [k] *)
  transition_caps : float array;
      (** per transition [i -> i+1] (length [n-1]): capacitance switched *)
}

val replay :
  ?jobs:int ->
  ?max_retries:int ->
  engine:Engine.t ->
  Hlp_logic.Netlist.t ->
  vector:(int -> bool array) ->
  n:int ->
  replay
(** Simulate the [n]-cycle input trace [vector 0 .. vector (n-1)] and
    return per-cycle outputs plus per-transition switched capacitance (the
    quantities the sampling cosimulator consumes).

    [Scalar] runs one {!Funcsim} step per cycle. The lane engines
    ([Bitparallel], [Compiled], [Parallel]) transpose the trace into
    chunks of 63 consecutive cycles, two {!Kernel} steps per chunk (one
    uncounted warm-up settle, one counted transition) over one plan
    compiled per fingerprint — exact for combinational netlists because the
    settled state depends only on the current vector. [Parallel] shards the
    chunks over domains with {!map} (one state per chunk, [max_retries] as
    in {!map}) and returns the same bits. Lane engines raise
    [Invalid_argument] on netlists with flip-flops (sequential state cannot
    be chunked); [n < 1] raises the typed [Invalid_input]. Output words are
    exact across engines; the per-transition floats can differ from
    [Scalar] only by summation-order round-off. *)

(** {1 Engine degradation} *)

val degradation_chain : Engine.t -> Engine.t list
(** The fallback order {!with_degradation} walks, starting at the given
    engine: [Parallel -> Bitparallel -> Scalar] (drop the domains, then
    the lanes), [Compiled -> Scalar], [Bitparallel -> Scalar], [Scalar]
    alone. Exposed for tests and capacity planning. *)

type 'a degraded = {
  value : 'a;
  engine_used : Engine.t;  (** the first engine in the chain that succeeded *)
  fallbacks : int;  (** degradation hops taken (0 = requested engine ran) *)
}

val with_degradation :
  what:string ->
  guard:Hlp_util.Guard.t ->
  engine:Engine.t ->
  (Engine.t -> 'a) ->
  ('a degraded, Hlp_util.Err.t) result
(** Run an engine-parameterized computation down the degradation chain
    (see {!replay_guarded} for the policy); the building block behind
    {!replay_guarded} and {!Hlp_power.Probprop}'s Monte Carlo fallback. *)

val replay_guarded :
  ?jobs:int ->
  ?max_retries:int ->
  ?guard:Hlp_util.Guard.t ->
  engine:Engine.t ->
  Hlp_logic.Netlist.t ->
  vector:(int -> bool array) ->
  n:int ->
  (replay degraded, Hlp_util.Err.t) result
(** {!replay} behind the degradation chain ({!degradation_chain},
    starting at [engine]): if an
    engine fails — a worker failure that survived its retries, an injected
    fault, or an engine-capability mismatch such as a sequential netlist
    on a bit engine — the next, more conservative engine is tried, with
    each hop counted in ["parsim.engine_fallbacks"]. The lane engines are
    bit-identical to each other, and [Scalar] differs only by
    summation round-off, so degradation never changes the answer beyond
    float noise. Guard trips ([Deadline_exceeded]/[Cancelled]) and
    [Invalid_input] propagate immediately — degrading past a deadline
    would return a late answer instead of a typed error. When the whole
    chain fails the result is the last typed error (a raw last exception
    is wrapped as [Worker_failure {shard = -1; _}]). *)

(** {1 Monte Carlo batches} *)

type mc = {
  mean : float;  (** mean switched capacitance per cycle over all units *)
  unit_means : float array;  (** per-unit batch means, in unit order *)
  cycles : int;  (** total simulated cycles (units x batch x 63) *)
}

val monte_carlo_units :
  ?jobs:int ->
  ?max_retries:int ->
  ?resume_means:float array ->
  ?on_unit:(int -> float -> unit) ->
  engine:Engine.t ->
  Hlp_logic.Netlist.t ->
  batch:int ->
  seed:int ->
  stop:(means:float array -> cycles:int -> bool) ->
  mc
(** Evaluate independent Monte Carlo {e units} — each a 63-lane
    {!Kernel} state of the once-compiled plan in its reset condition,
    stepped [batch] times under uniform random inputs from a PRNG stream
    determined by [(seed, unit index)] — until [stop] says so. The
    single-worker engines run every unit on one state, {!Kernel.reset}
    between units; [Parallel] creates one state per unit, since a round's
    units run concurrently. Either way a unit's mean is the bits a fresh
    state would give. [stop] is consulted on
    unit-index boundaries that do not depend on [jobs] (after every unit,
    or after every fixed-size round of 8 units for [Parallel]), so the
    returned estimate is bit-identical for any number of domains, and unit
    means (hence checkpoints) carry the same bits under every engine name.

    Checkpoint hooks: [resume_means] seeds the run with per-unit means a
    journal recovered — truncated to a whole number of rounds so the
    stop rule is consulted at exactly the unit boundaries a fresh run
    would have used (a crash mid-round re-runs that round), with an entry
    stop-check covering a crash after the stop fired but before the final
    snapshot. [on_unit] is called with [(unit index, unit mean)] for every
    {e freshly computed} unit, in unit order, on the calling domain —
    the journaling hook; resumed units are not re-reported. Because a
    unit's mean depends only on [(seed, unit index)], a resumed run
    returns the byte-identical [mc] a crash-free run would have. *)

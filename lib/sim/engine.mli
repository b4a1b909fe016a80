(** Simulation-engine selector shared by every Monte Carlo / cosimulation
    consumer in the toolkit.

    Four names, two implementations:

    - [Scalar]: one {!Funcsim} step per cycle per vector — the reference
      oracle, bit-exact with the seed implementation.
    - [Bitparallel] and [Compiled] (one engine under two names), and
      [Parallel]: the lanes. {!Kernel} compiles the netlist once per
      fingerprint into a flat struct-of-arrays schedule (levelized,
      specialized per-level closures, no per-gate dispatch or allocation)
      that packs 63 independent vectors into one OCaml [int] per wire;
      toggle accounting is exact and bit-identical to the interpretive
      {!Bitsim} reference. [Parallel] additionally shards the work over
      OCaml 5 domains with {!Parsim.map}, with per-shard PRNG streams and a
      deterministic reduction order, so results are bit-identical
      regardless of the worker count.

    Rule of thumb: [Scalar] for debugging and tiny runs; a lane engine for
    anything longer (it wins as soon as a few hundred cycles are
    simulated); [Parallel] for Monte Carlo style workloads on multicore
    hosts. The names also differ in their degradation chains
    ({!Parsim.degradation_chain}) and in the engine string echoed back. *)

type t = Scalar | Bitparallel | Parallel | Compiled

val all : t list

val to_string : t -> string

val of_string : string -> t option
(** Accepts ["scalar"], ["bitparallel"] (or ["bitpar"]), ["parallel"] (or
    ["par"]), ["compiled"] (or ["kernel"]). *)

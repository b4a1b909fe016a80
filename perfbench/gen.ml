(* Workload inputs. Every request list is a pure function of the workload
   seed: the same seed names the same bytes, and the program under test
   only ever sees the generated requests. *)

module S = Hlp_power.Service
module Prng = Hlp_util.Prng

type est = {
  circuit : string;
  width : int;
  engine : string;
  seed : int;
  rp : float;
  node_limit : int option;
  max_cycles : int option;
}

let payload ~id e =
  S.estimate_request ~id ~rid:(Printf.sprintf "pb-%d" id) ~engine:e.engine
    ~seed:e.seed ~relative_precision:e.rp ?node_limit:e.node_limit
    ?max_cycles:e.max_cycles
    ~circuit:e.circuit ~width:e.width ()

(* one independent stream per (seed, purpose, index) *)
let rng seed tag i = Prng.create ((seed * 1_000_003) + (tag * 7919) + i)

let shuffled seed tag i xs =
  let a = Array.of_list xs in
  Prng.shuffle (rng seed tag i) a;
  a

(* --- mc-cold ---

   Distinct seeds on multiplier 8 (exact value known, so accuracy can be
   scored) and multiplier 16, alternating engines, two multiplier-8
   requests per multiplier-16 one so that neither the median nor the 90th
   percentile sits on the step between the two circuits' costs.
   node_limit 60 trips the BDD stage in microseconds. The precision is
   tighter than [mc_max_cycles] can reach, so every request samples to
   that cap (16 units of 30 x 63 cycles): the work per request is fixed,
   whatever its seed, and a run's figures do not drift with the seeds'
   convergence. *)
let mc_slots =
  [| ("multiplier", 8, "bitparallel"); ("multiplier", 8, "compiled");
     ("multiplier", 16, "bitparallel"); ("multiplier", 8, "compiled");
     ("multiplier", 8, "bitparallel"); ("multiplier", 16, "compiled") |]

let mc_max_cycles = 30_000

let mc_request ~seed i =
  let circuit, width, engine = mc_slots.(i mod Array.length mc_slots) in
  let base = 1 + Prng.int (rng seed 3 0) (1 lsl 30) in
  { circuit; width; engine; seed = base + i; rp = 0.0005; node_limit = Some 60;
    max_cycles = Some mc_max_cycles }

(* --- cli-estimate ---

   [hlpower estimate] with the default engine over fixed circuits; the
   list mixes process-start-bound modules with the BDD-heavy ones. *)
let cli_circuits =
  [ ("adder", 8); ("multiplier", 8); ("max", 8); ("alu", 8); ("comparator", 8);
    ("parity", 8); ("comparator", 12); ("max", 12) ]

(* a run's circuit seeds are fixed by the workload seed; passes reorder *)
let cli_pass ~seed ~pass =
  let r = rng seed 4 0 in
  let seeds = List.map (fun k -> (k, Prng.int r 1_000_000)) cli_circuits in
  Array.map
    (fun ((c, w) as k) -> (c, w, List.assoc k seeds))
    (shuffled seed 5 pass cli_circuits)

let cli_args (c, w, s) =
  [ "estimate"; "--circuit"; c; "--width"; string_of_int w; "--seed";
    string_of_int s ]

(* --- self-check --- *)

(* the leading requests of every workload, as the daemon (or the CLI's
   argument vector) would receive them *)
let listing seed =
  let est = List.mapi (fun id e -> payload ~id e) in
  est (List.init 64 (mc_request ~seed))
  @ List.map
      (fun inv -> String.concat " " (cli_args inv))
      (Array.to_list (cli_pass ~seed ~pass:0) @ Array.to_list (cli_pass ~seed ~pass:1))

(* Same seed -> byte-identical list; another seed -> another list; every
   payload survives Journal framing and recovery, and every daemon payload
   parses as JSON. [scratch] is a file the check may overwrite. *)
let self_check ~scratch seed =
  let a = listing seed in
  let fail what = failwith ("perfbench self-check: " ^ what) in
  if a <> listing seed then fail "same seed gave different request lists";
  if a = listing (seed + 1) then fail "different seeds gave the same list";
  let oc = open_out_bin scratch in
  List.iter (fun p -> output_string oc (Hlp_util.Journal.frame p)) a;
  close_out oc;
  let r = Hlp_util.Journal.recover scratch in
  Sys.remove scratch;
  if r.Hlp_util.Journal.records <> a || r.torn_bytes <> 0 then
    fail "payloads did not round-trip through Journal.frame/recover";
  List.iter
    (fun p ->
      if p <> "" && p.[0] = '{' then
        match Hlp_util.Json.parse p with
        | Ok _ -> ()
        | Error e -> fail ("payload does not parse: " ^ e))
    a;
  List.length a

(* perfbench: end-to-end and per-layer benchmark of hlpower.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root (perfbench/run.sh builds and calls it).
   Prints a human-readable report, then as its last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. Exits 1 on any wrong
   answer, 2 on a benchmark error (without printing a result). *)

open Perfbench
module W = Workloads

let workloads = [ "mc-cold"; "cli-estimate" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (mc-cold|cli-estimate) \
     --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k ->
        Hashtbl.replace tbl k v;
        go tl
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "--trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  (workload, int "--seed", float_of_int seconds, trace = 1)

(* --- statistics --- *)

(* nearest-rank quantile: rank ceil(q n), at least 1 *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      List.nth s (max 1 (int_of_float (ceil (q *. float_of_int n))) - 1)

let latencies_ms (p : W.phase) =
  List.filter_map (fun (s : W.sample) -> if s.timed then Some (s.lat_s *. 1e3) else None) p.samples

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* --- the host and the build --- *)

let read_file f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with Sys_error _ -> None

let commit () =
  match read_file ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read_file (".git/" ^ r) with Some c -> c | None -> "unknown")
  | Some c -> c
  | None -> "unknown (not a git checkout)"

(* (steal, total) jiffies over all CPUs: time a shared VM's hypervisor
   gave to other guests shows as steal *)
let cpu_jiffies () =
  match read_file "/proc/stat" with
  | Some s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
      | "cpu" :: "" :: fields ->
          let v = List.filter_map int_of_string_opt fields in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | None -> (0, 0)

(* Milliseconds for a fixed integer loop: a host-speed probe printed at the
   start and end of a run, so a shared host that changed speed under a
   run (daemon spawn times move with it) shows in the report. *)
let calibration_ms () =
  let t0 = Proc.now () in
  let x = ref 1 in
  for _ = 1 to 20_000_000 do
    x := (!x * 25214903917) + 11
  done;
  ignore (Sys.opaque_identity !x);
  (Proc.now () -. t0) *. 1e3

let stamp ~seed =
  let uptime =
    match read_file "/proc/uptime" with
    | Some s -> (match String.split_on_char ' ' s with u :: _ -> u | [] -> "?")
    | None -> "?"
  in
  Printf.sprintf "nproc=%d uptime_s=%s ocaml=%s commit=%s max_inflight=%d seed=%d"
    (Domain.recommended_domain_count ()) uptime Sys.ocaml_version (commit ())
    (Proc.default_max_inflight ()) seed

(* --- metrics --- *)

type metric = string * string * float  (* name, unit, value *)

let end_to_end (p : W.phase) : metric list =
  let lat = latencies_ms p in
  [ ("setup_s", "s", W.median p.setups);
    ("latency_ms.p50", "ms", quantile lat 0.5);
    ("latency_ms.p90", "ms", quantile lat 0.9);
    ("throughput_rps", "1/s", float_of_int (List.length lat) /. p.wall_s);
    ("peak_rss_mb", "MiB", W.median (List.map float_of_int p.rss_kb) /. 1024.0) ]

(* the end-to-end figures that do not exist on every workload, so they
   travel with the per-layer set *)
let supplements (p : W.phase) (checks : Check.t list) : metric list =
  let c = List.hd checks in
  let sum f = List.fold_left (fun a x -> a + f x) 0 checks in
  let lat = latencies_ms p in
  [ ("latency_ms.p99", "ms", quantile lat 0.99);
    ("latency.samples", "count", float_of_int (List.length lat));
    ( "failed_share", "ratio",
      float_of_int (sum (fun (x : Check.t) -> x.failed))
      /. float_of_int (max 1 (sum (fun (x : Check.t) -> x.attempted))) );
    ("wrong_answers", "count", float_of_int (sum (fun (x : Check.t) -> x.wrong)));
    ("mc.sim_cycles_per_s", "cycles/s", float_of_int c.mc_cycles /. p.wall_s);
    ("mc.rel_error", "ratio", mean c.mc_rel_errors) ]

(* replica charges whose unit is time, and their factor to milliseconds *)
let time_charges =
  [ ("json.parse_us", 1e-3); ("server.frame_us", 1e-3);
    ("netlist.fingerprint_us", 1e-3); ("netlist.build_ms", 1.0);
    ("bdd.build_ms", 1.0); ("bdd.probability_ms", 1.0); ("bdd.wasted_ms", 1.0);
    ("probprop.mc_ms", 1.0); ("json.emit_us", 1e-3); ("parsim.replay_ms", 1.0);
    ("entropy.estimate_ms", 1.0); ("complexity.ces_ms", 1.0) ]

let engine_nets workload =
  let net (c, w) = Replica.generator c w in
  match workload with
  | "mc-cold" ->
      ( true,
        true,
        List.sort_uniq compare
          (Array.to_list (Array.map (fun (c, w, _) -> (c, w)) Gen.mc_slots))
        |> List.map net )
  | "cli-estimate" -> (false, true, List.map net Gen.cli_circuits)
  | _ -> (false, false, [])

let per_layer ~workload (plain : W.phase) (traced : W.phase) (tc : Check.t) : metric list =
  let n = float_of_int (max 1 (List.length tc.charges)) in
  let sum name =
    List.fold_left
      (fun a ch -> List.fold_left (fun a (k, v) -> if k = name then a +. v else a) a ch)
      0.0 tc.charges
  in
  let per_req name = sum name /. n in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let m = traced.daemon_metrics in
  let counter name = float_of_int (Proc.counter m name) in
  let qwait = Proc.hist m "server.queue_wait_ns"
  and service = Proc.hist m "server.op.estimate.service_ns" in
  let lat = latencies_ms traced in
  let hit_ratio cache =
    let h = counter ("server." ^ cache ^ ".cache_hits")
    and mi = counter ("server." ^ cache ^ ".cache_misses") in
    ("netcache." ^ cache ^ ".hit_ratio", "ratio", ratio h (h +. mi))
  in
  let attributed =
    List.fold_left (fun a (k, f) -> a +. (per_req k *. f)) 0.0 time_charges
    +. (qwait.Proc.sum /. 1e6 /. n)
    +. traced.floor_ms
  in
  let kernel, bitsim, nets = engine_nets workload in
  let engines = Replica.engines ~kernel ~bitsim nets in
  let engine k = Option.value ~default:0.0 (List.assoc_opt k engines) in
  let p50_plain = quantile (latencies_ms plain) 0.5 in
  [ ("server.connect_ms", "ms", mean traced.connects *. 1e3);
    ("server.queue_wait_ms.p50", "ms", Proc.hist_quantile qwait 0.5 /. 1e6);
    ("server.queue_wait_ms.p99", "ms", Proc.hist_quantile qwait 0.99 /. 1e6);
    ("server.service_ms.p50", "ms", Proc.hist_quantile service 0.5 /. 1e6);
    ("server.service_ms.p99", "ms", Proc.hist_quantile service 0.99 /. 1e6);
    ( "server.transport_ms.mean", "ms",
      if service.Proc.count = 0 then 0.0
      else mean lat -. (service.Proc.sum /. 1e6 /. float_of_int service.Proc.count) );
    ("server.frame_us", "us", per_req "server.frame_us");
    ("server.sheds", "count", counter "server.sheds");
    ("server.frame_errors", "count", counter "server.frame_errors");
    ("json.parse_us", "us", per_req "json.parse_us");
    ("json.emit_us", "us", per_req "json.emit_us");
    hit_ratio "estimates"; hit_ratio "symbolic"; hit_ratio "netlists";
    ("netcache.estimates.evictions", "count", counter "server.estimates.cache_evictions");
    ("service.coalesced", "count", counter "server.estimates.coalesced");
    ("netlist.build_ms", "ms", per_req "netlist.build_ms");
    ("netlist.fingerprint_us", "us", per_req "netlist.fingerprint_us");
    ("netlist.gates", "count", per_req "netlist.gates");
    ("bdd.build_ms", "ms", per_req "bdd.build_ms");
    ("bdd.probability_ms", "ms", per_req "bdd.probability_ms");
    ("bdd.nodes", "count", ratio (sum "bdd.nodes") (sum "bdd.finished"));
    ("bdd.budget_trips", "count", sum "bdd.budget_trips");
    ("bdd.wasted_ms", "ms", per_req "bdd.wasted_ms");
    ("bdd.useful_share", "ratio", ratio (sum "bdd.finished") (sum "bdd.attempts"));
    ("probprop.mc_ms", "ms", per_req "probprop.mc_ms");
    ("probprop.batches", "count", per_req "probprop.batches");
    ("probprop.mc_cycles", "count", per_req "probprop.mc_cycles");
    ( "probprop.host_ns_per_cycle", "ns",
      ratio (sum "probprop.mc_ms" *. 1e6) (sum "probprop.mc_cycles") );
    ("parsim.mc_units", "count", per_req "parsim.mc_units");
    ("parsim.maps", "count", per_req "parsim.maps");
    ("parsim.shards", "count", per_req "parsim.shards");
    ("parsim.replay_ms", "ms", per_req "parsim.replay_ms");
    ("kernel.compile_ms", "ms", engine "kernel.compile_ms");
    ("kernel.compiles", "count", counter "kernel.compiles");
    ("kernel.create_us", "us", engine "kernel.create_us");
    ("kernel.step_ns_per_lane_cycle", "ns", engine "kernel.step_ns_per_lane_cycle");
    ("kernel.sweep_us", "us", engine "kernel.sweep_us");
    ("bitsim.create_us", "us", engine "bitsim.create_us");
    ("bitsim.step_ns_per_lane_cycle", "ns", engine "bitsim.step_ns_per_lane_cycle");
    ("entropy.estimate_ms", "ms", per_req "entropy.estimate_ms");
    ("funcsim.gate_evals", "count", per_req "funcsim.gate_evals");
    ("complexity.ces_ms", "ms", per_req "complexity.ces_ms");
    ("cli.process_floor_ms", "ms", traced.floor_ms);
    ("unattributed_ms", "ms", mean lat -. attributed);
    ( "trace.overhead_pct", "%",
      if p50_plain = 0.0 then 0.0 else (quantile lat 0.5 -. p50_plain) /. p50_plain *. 100.0 ) ]

(* --- running a workload --- *)

let run_phase env workload ~seed ~seconds ~traced =
  (* both phases send the same inputs, each to fresh daemons *)
  match workload with
  | "mc-cold" -> W.mc_cold env ~seed ~seconds ~traced
  | _ -> W.cli_estimate env ~seed ~seconds ~traced

let json_result ~correct ~attempted ~failed (ms : metric list) =
  let module J = Hlp_util.Json in
  J.to_string ~compact:true
    (J.Obj
       [ ("correct", J.Bool correct); ("attempted", J.Int attempted); ("failed", J.Int failed);
         ( "metrics",
           J.Obj (List.map (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])) ms) ) ])

(* the program under test, as run.sh builds it *)
let exe = "_build/default/bin/hlpower.exe"

let main () =
  let workload, seed, seconds, trace = args () in
  if not (Sys.file_exists exe) then failwith (exe ^ " not found: build it first (perfbench/run.sh does)");
  let dir = "perfbench/_run" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Hlp_util.Telemetry.enable ();
  let listed = Gen.self_check ~scratch:(dir ^ "/selfcheck.wal") seed in
  let env = { W.exe; dir; next = 0 } in
  Printf.printf "perfbench workload=%s seconds=%g trace=%b\n" workload seconds trace;
  Printf.printf "stamp %s\n" (stamp ~seed);
  Printf.printf "self-check: %d generated payloads reproducible and round-trip clean\n%!" listed;
  let phase_s = if trace then seconds /. 2.0 else seconds in
  let steal0, total0 = cpu_jiffies () in
  let calib0 = calibration_ms () in
  let t_run = Proc.now () in
  let plain = run_phase env workload ~seed ~seconds:phase_s ~traced:false in
  let traced =
    if trace then Some (run_phase env workload ~seed ~seconds:phase_s ~traced:true) else None
  in
  let steal1, total1 = cpu_jiffies () in
  Printf.printf "host: steal %.1f%% of CPU time; speed probe %.1f ms before, %.1f ms after\n"
    (if total1 > total0 then 100.0 *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
     else 0.0)
    calib0 (calibration_ms ());
  let t_check = Proc.now () in
  let pc = Check.run ~charge:false plain in
  let tc = Option.map (Check.run ~charge:true) traced in
  Printf.printf "wall: workload %.1f s, answer check %.1f s\n%!" (t_check -. t_run)
    (Proc.now () -. t_check);
  let checks = pc :: Option.to_list tc in
  let print (n, u, v) = Printf.printf "%-34s %14.6g %s\n" n v u in
  Printf.printf "per segment setup_s: %s\nper segment peak_rss_mb: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4g") plain.setups))
    (String.concat " " (List.map (fun k -> Printf.sprintf "%.4g" (float_of_int k /. 1024.0)) plain.rss_kb));
  print_endline "-- end to end (plain run)";
  List.iter print (end_to_end plain);
  List.iter print (supplements plain checks);
  let reported =
    match (traced, tc) with
    | Some t, Some tc ->
        let layers = per_layer ~workload plain t tc @ supplements plain checks in
        print_endline "-- per layer (traced run)";
        List.iter print layers;
        layers
    | _ -> end_to_end plain
  in
  Array.iter
    (fun f -> if Filename.check_suffix f ".trace.json" then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let sum f = List.fold_left (fun a c -> a + f c) 0 checks in
  let wrong = sum (fun (c : Check.t) -> c.wrong) in
  print_endline
    (json_result ~correct:(wrong = 0)
       ~attempted:(sum (fun (c : Check.t) -> c.attempted))
       ~failed:(sum (fun (c : Check.t) -> c.failed))
       reported);
  if wrong > 0 then exit 1

(* a hung daemon must not hang the benchmark *)
let budget_s = 170

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Printf.eprintf "perfbench: run exceeded %d s\n%!" budget_s;
         Proc.kill_all ();
         exit 2));
  ignore (Unix.alarm budget_s);
  match main () with
  | () -> ()
  | exception e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      Proc.kill_all ();
      exit 2

(* The two workloads, each run as a closed loop against the real
   [hlpower] binary. A phase returns raw samples; checking and metrics
   happen afterwards, outside the timed window. *)

module Srv = Hlp_util.Server

type req =
  | Est of { id : int; payload : string; est : Gen.est }
  | Cli of (string * int * int)

type outcome = Reply of string | Lost of string

type sample = {
  daemon : int;  (* which process answered: one fresh model per daemon *)
  timed : bool;  (* false for set-up traffic (the CLI's first invocations) *)
  req : req;
  sent : float;  (* monotonic send time, seconds *)
  lat_s : float;
  outcome : outcome;
}

type phase = {
  samples : sample list;  (* in checking order *)
  wall_s : float;  (* timed wall time *)
  setups : float list;  (* one set-up time per set-up performed *)
  rss_kb : int list;  (* peak resident set per daemon, or the CLI's largest *)
  connects : float list;  (* seconds per client connect *)
  daemon_metrics : Proc.metrics;
      (* traced phases: the daemons' counters and histograms over the
         timed windows only *)
  floor_ms : float;  (* traced cli phase: median [hlpower info] wall *)
}

type env = { exe : string; dir : string; mutable next : int }

let fresh env ext =
  env.next <- env.next + 1;
  Printf.sprintf "%s/p%d.%s" env.dir env.next ext

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* a closed-loop client on one connection; a lost connection is replaced *)
type client = { sock : string; mutable conn : Srv.conn option; mutable connects : float list }

let client sock = { sock; conn = None; connects = [] }

let conn c =
  match c.conn with
  | Some k -> k
  | None ->
      let k, dt = Replica.timed (fun () -> Srv.connect c.sock) in
      c.connects <- dt :: c.connects;
      c.conn <- Some k;
      k

let disconnect c =
  Option.iter Srv.close c.conn;
  c.conn <- None

let send c ~daemon ~timed id est =
  let payload = Gen.payload ~id est in
  let sent = Proc.now () in
  let outcome =
    match Srv.request (conn c) payload with
    | r -> Reply r
    | exception ((Hlp_util.Err.Error _ | Unix.Unix_error _) as ex) ->
        disconnect c;
        Lost (Printexc.to_string ex)
  in
  { daemon; timed; req = Est { id; payload; est }; sent;
    lat_s = Proc.now () -. sent; outcome }

let start env ~traced =
  let trace = if traced then Some (fresh env "trace.json") else None in
  Proc.start_daemon ~exe:env.exe ?trace
    (fresh env "sock")

(* the daemon's metrics across [f] (empty when not traced) *)
let metered ~traced d f =
  let m0 = if traced then Proc.metrics d.Proc.sock else Proc.empty_metrics in
  let r = f () in
  let m1 = if traced then Proc.metrics d.Proc.sock else Proc.empty_metrics in
  (r, Proc.combine (-1) m1 m0)

let empty_phase =
  { samples = []; wall_s = 0.0; setups = []; rss_kb = []; connects = [];
    daemon_metrics = Proc.empty_metrics; floor_ms = 0.0 }

(* Fresh daemons in turn until [seconds] of timed wall have elapsed. Each
   serves one segment of fixed work, so its peak RSS does not depend on
   how fast the host ran. [load k d] is the timed part, returning its
   samples; the daemon's metrics are read around it when traced. One
   worker parks per connection, so [load] closes its connections on
   return. *)
let segments env ~seconds ~traced load =
  let rec go k acc =
    if k > 0 && acc.wall_s >= seconds then acc
    else begin
      let d = start env ~traced in
      let (samples, connects), m =
        metered ~traced d (fun () -> load k d)
      in
      let rss = Proc.stop_daemon d in
      let timed = List.filter (fun s -> s.timed) samples in
      let first = List.fold_left (fun a s -> Float.min a s.sent) infinity timed in
      let last = List.fold_left (fun a s -> Float.max a (s.sent +. s.lat_s)) 0.0 timed in
      go (k + 1)
        { acc with
          samples = acc.samples @ samples;
          wall_s = acc.wall_s +. (last -. first);
          setups = acc.setups @ [ d.Proc.setup_s ];
          rss_kb = acc.rss_kb @ [ rss ];
          connects = acc.connects @ connects;
          daemon_metrics = Proc.combine 1 acc.daemon_metrics m }
    end
  in
  go 0 empty_phase

(* one client sending [ests] in order on one connection *)
let sequence d ~daemon ~timed ests =
  let c = client d.Proc.sock in
  let s =
    List.mapi (fun i e -> send c ~daemon ~timed ((daemon * 10_000) + i) e) ests
  in
  disconnect c;
  (s, c.connects)

(* mc-cold: the same [mc_segment] distinct seeded requests (whole rounds
   of the slot mix) to each fresh daemon, so every segment does the same
   work *)
let mc_segment = 8 * Array.length Gen.mc_slots

let mc_cold env ~seed ~seconds ~traced =
  segments env ~seconds ~traced (fun k d ->
      sequence d ~daemon:k ~timed:true
        (List.init mc_segment (Gen.mc_request ~seed)))

(* cli-estimate: whole passes of sequential [hlpower estimate]
   invocations until [seconds] of timed wall have elapsed. Each pass is
   preceded by one untimed set-up invocation, so set-up time is sampled
   across the run like a daemon workload's per-segment start. *)
let cli_estimate env ~seed ~seconds ~traced =
  let out = env.dir ^ "/cli.out" in
  let trace_args = if traced then [ "--trace"; fresh env "trace.json" ] else [] in
  let invoke ~timed inv =
    let sent = Proc.now () in
    let wall, code, rss, text = Proc.run_cli ~exe:env.exe ~out (Gen.cli_args inv @ trace_args) in
    ( { daemon = 0; timed; req = Cli inv; sent; lat_s = wall;
        outcome = (if code = 0 then Reply text else Lost (Printf.sprintf "exit %d" code)) },
      rss )
  in
  (* set-up always runs the list's first (smallest) circuit, whatever the
     seeded order *)
  let first =
    List.find (fun (c, w, _) -> (c, w) = List.hd Gen.cli_circuits)
      (Array.to_list (Gen.cli_pass ~seed ~pass:0))
  in
  let rec go pass acc setups wall =
    if pass > 0 && wall >= seconds then (List.rev acc, List.rev setups, wall)
    else
      let setup = invoke ~timed:false first in
      let t_pass = Proc.now () in
      let acc =
        Array.fold_left
          (fun acc inv -> invoke ~timed:true inv :: acc)
          (setup :: acc) (Gen.cli_pass ~seed ~pass)
      in
      go (pass + 1) acc ((fst setup).lat_s :: setups) (wall +. (Proc.now () -. t_pass))
  in
  let all, setups, wall = go 0 [] [] 0.0 in
  let floor_ms =
    if traced then
      median
        (List.init 5 (fun _ ->
             let w, _, _, _ = Proc.run_cli ~exe:env.exe ~out [ "info" ] in
             w *. 1e3))
    else 0.0
  in
  { empty_phase with
    samples = List.map fst all;
    wall_s = wall;
    setups;
    rss_kb = [ List.fold_left (fun a (_, r) -> max a r) 0 all ];
    floor_ms }

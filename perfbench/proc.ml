(* The processes under test: [hlpower serve] daemons and [hlpower]
   invocations, spawned from the benchmark and reaped with wait4 so their
   peak resident set is measured, not sampled. *)

module Srv = Hlp_util.Server
module S = Hlp_power.Service
module J = Hlp_util.Json

external wait4 : int -> int * int = "pb_wait4"
(** Block until the child exits: (exit code or 128+signal, peak RSS KiB). *)

let now () = Int64.to_float (Hlp_util.Clock.monotonic_ns ()) /. 1e9

(* the daemon's worker count when run with its default flags *)
let default_max_inflight () = max 1 (Domain.recommended_domain_count () / 2)

let fail fmt = Printf.ksprintf failwith fmt

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* children not yet reaped, so an aborted run can stop them *)
let live = ref []

let spawn ~exe ~stdout args =
  let null = devnull () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) null stdout
          stdout)
  in
  live := pid :: !live;
  pid

let reap pid =
  let r = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  r

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

(* [out]: the read end of the daemon's stdout and stderr *)
type daemon = { pid : int; sock : string; out : Unix.file_descr; setup_s : float }

let ready_line = "hlpower serve: listening on "

(* Spawn [hlpower serve] on [sock] (default flags, plus [--trace] when
   [trace] names a file), block until it prints that it listens, and send
   the first ping; [setup_s] runs from spawn to its answer. Waiting on
   the daemon's own ready line, not polling the socket, keeps timer
   granularity out of [setup_s]. *)
let start_daemon ~exe ?trace sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let out, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let args =
    [ "serve"; "--socket"; sock ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = spawn ~exe ~stdout:w args in
  Unix.close w;
  let abort fmt =
    Printf.ksprintf
      (fun msg ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap pid);
        Unix.close out;
        failwith msg)
      fmt
  in
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec await () =
    let text = Buffer.contents buf in
    let ready =
      List.exists (String.starts_with ~prefix:ready_line) (String.split_on_char '\n' text)
    in
    if not ready then begin
      let left = 60.0 -. (now () -. t0) in
      if left <= 0.0 then abort "hlpower serve did not listen on %s within 60 s" sock;
      match Unix.select [ out ] [] [] left with
      | [], _, _ -> await ()
      | _ -> (
          match Unix.read out chunk 0 (Bytes.length chunk) with
          | 0 -> abort "hlpower serve exited during start-up: %s" text
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              await ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
    end
  in
  await ();
  let c = Srv.connect ~wait_s:0.0 sock in
  let reply = Srv.request c (S.ping_request ~id:0 ~rid:"pb-setup" ()) in
  Srv.close c;
  (match S.parse_response reply with
  | Ok { ok = true; _ } -> ()
  | _ -> fail "hlpower serve answered the set-up ping with %s" reply);
  { pid; sock; out; setup_s = now () -. t0 }

(* VmHWM of a live process, KiB. wait4's maxrss cannot stand in for it:
   Linux carries the spawning process's own peak across exec into the
   child's maxrss. *)
let vm_hwm_kb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> None
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> Some kb
            | None -> go ())
      in
      go ())

(* graceful drain; returns the daemon's peak RSS in KiB, read before the
   drain *)
let stop_daemon d =
  let hwm = try vm_hwm_kb d.pid with Sys_error _ -> None in
  Unix.kill d.pid Sys.sigterm;
  let code, maxrss_kb = reap d.pid in
  Unix.close d.out;
  (* 143 = 128 + SIGTERM: the daemon's documented drained exit *)
  if code <> 143 && code <> 0 then
    fail "hlpower serve exited with %d on SIGTERM" code;
  Option.value ~default:maxrss_kb hwm

(* One [hlpower] invocation with stdout captured in [out]:
   (wall seconds, exit code, peak RSS KiB, stdout). The peak cannot read
   below this process's own peak at spawn time (see [vm_hwm_kb]); CLI
   phases run before the benchmark holds any bulk data, so that floor is
   the benchmark's start-up footprint, well under an estimate's. *)
let run_cli ~exe ~out args =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid = spawn ~exe ~stdout:fd args in
  let code, rss_kb = reap pid in
  let wall = now () -. t0 in
  Unix.close fd;
  let text = In_channel.with_open_bin out In_channel.input_all in
  (wall, code, rss_kb, text)

(* --- the daemon's [metrics] op, as plain numbers --- *)

type hist = { count : int; sum : float; buckets : (float * int) list }

type metrics = {
  counters : (string * int) list;
  hists : (string * hist) list;
}

let metrics sock =
  let c = Srv.connect sock in
  let reply =
    Fun.protect
      ~finally:(fun () -> Srv.close c)
      (fun () -> Srv.request c (S.metrics_request ~rid:"pb-metrics" ()))
  in
  let result =
    match S.parse_response reply with
    | Ok { ok = true; result = Some r; _ } -> r
    | _ -> fail "metrics op failed: %s" reply
  in
  let obj name =
    match J.member name result with Some (J.Obj kv) -> kv | _ -> []
  in
  let num v = Option.value ~default:0.0 (J.to_float_opt v) in
  let hist v =
    let f name = Option.value ~default:J.Null (J.member name v) in
    { count = int_of_float (num (f "count"));
      sum = num (f "sum");
      buckets =
        List.filter_map
          (function J.List [ b; n ] -> Some (num b, int_of_float (num n)) | _ -> None)
          (Option.value ~default:[] (J.to_list_opt (f "buckets"))) }
  in
  { counters =
      List.map (fun (k, v) -> (k, int_of_float (num v))) (obj "counters");
    hists = List.map (fun (k, v) -> (k, hist v)) (obj "histograms") }

let empty_metrics = { counters = []; hists = [] }

let merge_buckets sign a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.filter_map
    (fun k ->
      let get l = Option.value ~default:0 (List.assoc_opt k l) in
      let n = get a + (sign * get b) in
      if n = 0 then None else Some (k, n))
    keys

(* [combine sign a b] is [a + sign * b], pointwise over counters and
   histogram buckets: [-1] takes the delta over a phase, [1] sums daemons *)
let combine sign a b =
  let names l1 l2 = List.sort_uniq compare (List.map fst l1 @ List.map fst l2) in
  let get d k l = Option.value ~default:d (List.assoc_opt k l) in
  let zero = { count = 0; sum = 0.0; buckets = [] } in
  { counters =
      List.map
        (fun k -> (k, get 0 k a.counters + (sign * get 0 k b.counters)))
        (names a.counters b.counters);
    hists =
      List.map
        (fun k ->
          let x = get zero k a.hists and y = get zero k b.hists in
          ( k,
            { count = x.count + (sign * y.count);
              sum = x.sum +. (float_of_int sign *. y.sum);
              buckets = merge_buckets sign x.buckets y.buckets } ))
        (names a.hists b.hists) }

let counter m name = Option.value ~default:0 (List.assoc_opt name m.counters)

let hist m name =
  Option.value ~default:{ count = 0; sum = 0.0; buckets = [] }
    (List.assoc_opt name m.hists)

(* nearest-rank quantile over bucket upper bounds (0 when empty) *)
let hist_quantile h q =
  let n = List.fold_left (fun a (_, c) -> a + c) 0 h.buckets in
  if n = 0 then 0.0
  else
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let rec go seen = function
      | [] -> 0.0
      | (b, c) :: tl -> if seen + c >= rank then b else go (seen + c) tl
    in
    go 0 (List.sort compare h.buckets)

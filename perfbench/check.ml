(* Answer checking, after the timed phase: every reply against the
   replica's reference. A mismatch is a wrong answer; an error envelope,
   a shed, a lost connection or a non-zero exit is a failure. *)

module S = Hlp_power.Service
module W = Workloads

type t = {
  attempted : int;
  failed : int;
  wrong : int;
  charges : Replica.charges list;  (* per timed request, in order *)
  mc_cycles : int;  (* summed cycles_used of timed Monte Carlo answers *)
  mc_rel_errors : float list;  (* multiplier-8 Monte Carlo answers *)
}

let int_field name r = Option.bind (Hlp_util.Json.member name r) Hlp_util.Json.to_int_opt

let float_field name r =
  Option.bind (Hlp_util.Json.member name r) Hlp_util.Json.to_float_opt

(* the exact multiplier-8 value, for scoring Monte Carlo accuracy *)
let exact_m8 =
  lazy
    (match Replica.symbolic ~node_limit:Hlp_power.Probprop.default_node_limit ("multiplier", 8) with
    | Replica.Exact c, _ -> c
    | Replica.Trip, _ -> failwith "multiplier 8 no longer fits the default BDD budget")

(* drop the CLI's own note about where --trace wrote its file *)
let cli_text text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (String.starts_with ~prefix:"trace written to " l))
  |> String.concat "\n"

(* [charge]: keep each timed request's per-layer charges (traced phases) *)
let run ~charge (p : W.phase) =
  let model = ref (Replica.fresh_daemon ()) and current = ref (-1) in
  let r =
    ref { attempted = 0; failed = 0; wrong = 0; charges = []; mc_cycles = 0; mc_rel_errors = [] }
  in
  let wrong what =
    prerr_endline ("wrong answer: " ^ what);
    r := { !r with wrong = !r.wrong + 1 }
  in
  let failed what =
    prerr_endline ("failed request: " ^ what);
    r := { !r with failed = !r.failed + 1 }
  in
  List.iter
    (fun (s : W.sample) ->
      r := { !r with attempted = !r.attempted + 1 };
      if s.daemon <> !current then begin
        current := s.daemon;
        model := Replica.fresh_daemon ()
      end;
      match (s.req, s.outcome) with
      | _, W.Lost why -> failed why
      | W.Cli inv, W.Reply text ->
          let expected, charges = Replica.cli_expected inv in
          if cli_text text <> expected then
            wrong (Printf.sprintf "hlpower %s" (String.concat " " (Gen.cli_args inv)));
          if charge && s.timed then r := { !r with charges = charges :: !r.charges }
      | W.Est { payload; est; _ }, W.Reply reply -> (
          let expected, charges = Replica.serve ~charge !model ~payload ~reply est in
          if charge && s.timed then r := { !r with charges = charges :: !r.charges };
          match S.parse_response reply with
          | Ok { ok = true; result = Some result; _ } ->
              if result <> expected then wrong payload;
              if s.timed && float_field "half_interval" result <> None then begin
                let cycles = Option.value ~default:0 (int_field "cycles_used" result) in
                r := { !r with mc_cycles = !r.mc_cycles + cycles };
                if est.circuit = "multiplier" && est.width = 8 then
                  let exact = Lazy.force exact_m8 in
                  let cap = Option.get (float_field "capacitance" result) in
                  r :=
                    { !r with
                      mc_rel_errors = (Float.abs (cap -. exact) /. exact) :: !r.mc_rel_errors }
              end
          | Ok _ -> failed reply
          | Error e -> failed ("unreadable reply: " ^ e)))
    p.W.samples;
  { !r with charges = List.rev !r.charges }

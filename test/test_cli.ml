(* The hlpower binary's entry-point contract, driven as a subprocess:
   every subcommand renders its --help, and bad flag values leave through
   the typed exit codes (64-70) or Cmdliner's usage error (124) — never an
   uncaught exception (2) or a failed assertion (125). *)

(* _build/default/test/test_main.exe -> _build/default/bin/hlpower.exe *)
let binary () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let exe = Filename.concat root (Filename.concat "bin" "hlpower.exe") in
  if not (Sys.file_exists exe) then
    Alcotest.failf "%s not built (run dune build first)" exe;
  exe

let run args =
  let cmd =
    String.concat " " (List.map Filename.quote (binary () :: args))
    ^ " >/dev/null 2>&1"
  in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "%s: killed by signal %d" cmd s

let subcommands =
  [ "estimate"; "batch"; "serve"; "supervise"; "client"; "top"; "chaos-proxy";
    "bus-encode"; "pm-sim"; "fsm-encode"; "export"; "info" ]

let test_help () =
  Alcotest.(check int) "hlpower --help" 0 (run [ "--help=plain" ]);
  List.iter
    (fun sub ->
      Alcotest.(check int) (sub ^ " --help") 0 (run [ sub; "--help=plain" ]))
    subcommands

(* [hlpower batch] on a one-job jobs file holding [job] *)
let run_batch job =
  let path = Filename.temp_file "hlp_cli_jobs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc ("[" ^ job ^ "]"));
      run [ "batch"; path ])

(* (subcommand, its exit code at a width, widths it accepts, widths it
   rejects): accepted widths exit 0, rejected ones the typed invalid-input
   code 65 *)
let width_grid =
  let flag args w = run (args @ [ Printf.sprintf "--width=%d" w ]) in
  [ ( "estimate",
      flag [ "estimate"; "--circuit"; "adder"; "--cycles"; "20" ],
      [ 1; 2; 24 ],
      [ -1; 0; 25; 40; 1000 ] );
    ("export", flag [ "export"; "--circuit"; "adder" ], [ 1; 2; 24 ], [ -1; 0; 25; 40; 1000 ]);
    ( "bus-encode",
      flag [ "bus-encode"; "--words"; "200" ],
      [ 8; 12; 16; 32 ],
      [ -1; 0; 1; 4; 7; 9; 18; 33; 36; 40; 60; 62; 63; 64; 1000 ] );
    ( "batch",
      (fun w -> run_batch (Printf.sprintf {|{"circuit":"adder","width":%d}|} w)),
      [ 1; 2; 24 ],
      [ -1; 0; 25; 40; 1000 ] ) ]

let test_width_grid () =
  List.iter
    (fun (name, run_at, good, bad) ->
      let check expected w =
        Alcotest.(check int)
          (Printf.sprintf "%s width %d" name w)
          expected (run_at w)
      in
      List.iter (check 0) good;
      List.iter (check 65) bad)
    width_grid

(* a batch job is a daemon estimate request: every field the daemon
   bounds is bounded in a jobs file too *)
let test_batch_job_walls () =
  List.iter
    (fun job ->
      Alcotest.(check int) ("batch job " ^ job) 65 (run_batch job))
    [ {|{"circuit":"adder","max_cycles":0}|};
      {|{"circuit":"adder","node_limit":-1}|};
      {|{"circuit":"adder","relative_precision":-1}|};
      {|{"circuit":"adder","engine":"nope"}|};
      {|{"circuit":"adder","seed":"x"}|};
      {|{"circuit":"adder","batch":1}|} ]

let suite =
  [ Alcotest.test_case "every subcommand's --help exits 0" `Quick test_help;
    Alcotest.test_case "width grid: exit codes stay typed" `Quick
      test_width_grid;
    Alcotest.test_case "batch job fields: bounds exit 65" `Quick
      test_batch_job_walls ]

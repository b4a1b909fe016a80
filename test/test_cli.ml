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

(* (subcommand args, widths it accepts, widths it rejects): accepted
   widths exit 0, rejected ones the typed invalid-input code 65 *)
let width_grid =
  [ ( [ "estimate"; "--circuit"; "adder"; "--cycles"; "20" ],
      [ 1; 2; 24 ],
      [ -1; 0; 25; 40; 1000 ] );
    ( [ "export"; "--circuit"; "adder" ], [ 1; 2; 24 ], [ -1; 0; 25; 40; 1000 ] );
    ( [ "bus-encode"; "--words"; "200" ],
      [ 8; 12; 16; 32 ],
      [ -1; 0; 1; 4; 7; 9; 18; 33; 36; 40; 60; 62; 63; 64; 1000 ] ) ]

let test_width_grid () =
  List.iter
    (fun (args, good, bad) ->
      let check expected w =
        let code = run (args @ [ Printf.sprintf "--width=%d" w ]) in
        Alcotest.(check int)
          (Printf.sprintf "%s --width=%d" (List.hd args) w)
          expected code
      in
      List.iter (check 0) good;
      List.iter (check 65) bad)
    width_grid

let suite =
  [ Alcotest.test_case "every subcommand's --help exits 0" `Quick test_help;
    Alcotest.test_case "width grid: exit codes stay typed" `Quick
      test_width_grid ]

(* The benchmark's own test: request generation is reproducible per seed,
   distinct across seeds, and every payload survives the wire codecs. *)

let () =
  List.iter
    (fun seed -> ignore (Perfbench.Gen.self_check ~scratch:"selfcheck.wal" seed))
    [ 0; 1; 7; 123456 ]

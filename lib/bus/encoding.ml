open Hlp_util

type beach = {
  width : int;
  groups : int list list;  (** bit positions per cluster, LSB-first *)
  codes : int array list;  (** per cluster: bijective recoding table *)
  inverses : int array list;
}

type scheme =
  | Binary
  | Gray_code
  | Bus_invert
  | T0
  | T0_bus_invert
  | Working_zone of { zones : int; offset_bits : int }
  | Beach of beach

let scheme_name = function
  | Binary -> "binary"
  | Gray_code -> "gray"
  | Bus_invert -> "bus-invert"
  | T0 -> "t0"
  | T0_bus_invert -> "t0+bus-invert"
  | Working_zone _ -> "working-zone"
  | Beach _ -> "beach"

let extra_lines = function
  | Binary | Gray_code -> 0
  | Bus_invert | T0 -> 1
  | T0_bus_invert -> 2
  | Working_zone _ -> 1
  | Beach _ -> 0

type codec = {
  enc : int -> int;
  dec : int -> int;
  lines : int;
}

let binary_codec ~width = { enc = (fun w -> w); dec = (fun b -> b); lines = width }

let gray_codec ~width =
  { enc = (fun w -> Bits.to_gray w); dec = (fun b -> Bits.of_gray b); lines = width }

let bus_invert_codec ~width =
  let prev_bus = ref 0 in
  let enc w =
    let plain = w land Bits.mask width in
    let inverted = lnot w land Bits.mask width in
    let bus =
      if Bits.hamming plain (!prev_bus land Bits.mask width) > width / 2 then
        inverted lor (1 lsl width)
      else plain
    in
    prev_bus := bus;
    bus
  in
  let dec bus =
    let body = bus land Bits.mask width in
    if Bits.bit bus width then lnot body land Bits.mask width else body
  in
  { enc; dec; lines = width + 1 }

let t0_codec ~width =
  let mask = Bits.mask width in
  let prev_addr = ref None in
  let prev_bus = ref 0 in
  let enc w =
    let w = w land mask in
    let bus =
      match !prev_addr with
      | Some p when (p + 1) land mask = w ->
          (* consecutive: freeze the address lines, raise INC *)
          (!prev_bus land mask) lor (1 lsl width)
      | _ -> w
    in
    prev_addr := Some w;
    prev_bus := bus;
    bus
  in
  let dec_prev = ref None in
  let dec bus =
    let w =
      if Bits.bit bus width then
        match !dec_prev with
        | Some p -> (p + 1) land mask
        | None -> bus land mask
      else bus land mask
    in
    dec_prev := Some w;
    w
  in
  { enc; dec; lines = width + 1 }

let t0_bus_invert_codec ~width =
  let mask = Bits.mask width in
  let prev_addr = ref None in
  let prev_bus = ref 0 in
  let inc_line = 1 lsl width and inv_line = 1 lsl (width + 1) in
  let enc w =
    let w = w land mask in
    let bus =
      match !prev_addr with
      | Some p when (p + 1) land mask = w -> (!prev_bus land mask) lor inc_line
      | _ ->
          let inverted = lnot w land mask in
          if Bits.hamming w (!prev_bus land mask) > width / 2 then inverted lor inv_line
          else w
    in
    prev_addr := Some w;
    prev_bus := bus;
    bus
  in
  let dec_prev = ref None in
  let dec bus =
    let w =
      if bus land inc_line <> 0 then
        match !dec_prev with Some p -> (p + 1) land mask | None -> bus land mask
      else begin
        let body = bus land mask in
        if bus land inv_line <> 0 then lnot body land mask else body
      end
    in
    dec_prev := Some w;
    w
  in
  { enc; dec; lines = width + 2 }

let working_zone_codec ~zones ~offset_bits ~width =
  let mask = Bits.mask width in
  let half = 1 lsl (offset_bits - 1) in
  let hit_line = 1 lsl width in
  (* shared reference-update logic keeps encoder and decoder in lockstep *)
  let make_refs () = (Array.make zones 0, ref 0) in
  let find_zone refs addr =
    let rec go i =
      if i = zones then None
      else
        let diff = addr - refs.(i) in
        if diff >= -half && diff < half then Some (i, diff) else go (i + 1)
    in
    go 0
  in
  let enc_refs, enc_rr = make_refs () in
  let prev_bus = ref 0 in
  let enc w =
    let addr = w land mask in
    let bus =
      match find_zone enc_refs addr with
      | Some (i, diff) ->
          enc_refs.(i) <- addr;
          let offset = Bits.to_gray (diff + half) in
          (* layout: [offset gray][one-hot zone][frozen rest] + hit line *)
          let zone_bits = 1 lsl (offset_bits + i) in
          let frozen =
            !prev_bus land mask land lnot (Bits.mask (offset_bits + zones))
          in
          offset lor zone_bits lor frozen lor hit_line
      | None ->
          enc_refs.(!enc_rr) <- addr;
          enc_rr := (!enc_rr + 1) mod zones;
          addr
    in
    prev_bus := bus;
    bus
  in
  let dec_refs, dec_rr = make_refs () in
  let dec bus =
    if bus land hit_line <> 0 then begin
      let offset = Bits.of_gray (bus land Bits.mask offset_bits) - half in
      let rec zone i =
        if i = zones then failwith "working-zone: no zone bit"
        else if Bits.bit bus (offset_bits + i) then i
        else zone (i + 1)
      in
      let i = zone 0 in
      let addr = (dec_refs.(i) + offset) land mask in
      dec_refs.(i) <- addr;
      addr
    end
    else begin
      let addr = bus land mask in
      dec_refs.(!dec_rr) <- addr;
      dec_rr := (!dec_rr + 1) mod zones;
      addr
    end
  in
  { enc; dec; lines = width + 1 }

(* --- Beach --- *)

let cluster_value groups_bits w =
  List.fold_left (fun (acc, k) bit -> ((acc lor (if Bits.bit w bit then 1 lsl k else 0)), k + 1))
    (0, 0) groups_bits
  |> fst

let scatter_value groups_bits v =
  List.fold_left
    (fun (acc, k) bit -> ((if Bits.bit v k then acc lor (1 lsl bit) else acc), k + 1))
    (0, 0) groups_bits
  |> fst

let beach_codec (b : beach) =
  let enc w =
    List.fold_left2
      (fun acc bits code ->
        let v = cluster_value bits w in
        acc lor scatter_value bits code.(v))
      0 b.groups b.codes
  in
  let dec bus =
    List.fold_left2
      (fun acc bits inv ->
        let v = cluster_value bits bus in
        acc lor scatter_value bits inv.(v))
      0 b.groups b.inverses
  in
  { enc; dec; lines = b.width }

let check_width scheme ~width =
  let bad why =
    raise (Err.invalid_input ~what:(scheme_name scheme ^ " bus width") why)
  in
  (* every bus state, redundant lines included, goes through Bits.mask *)
  let max_width = 62 - extra_lines scheme in
  if width < 1 || width > max_width then
    bad (Printf.sprintf "must be in 1..%d" max_width);
  match scheme with
  | Working_zone { zones; offset_bits }
    when zones < 1 || offset_bits < 1 || zones + offset_bits > width ->
      bad (Printf.sprintf "must be >= zones + offset_bits = %d" (zones + offset_bits))
  | Beach b when width <> b.width ->
      bad (Printf.sprintf "the code was trained for %d bits" b.width)
  | _ -> ()

let codec_of scheme ~width =
  check_width scheme ~width;
  match scheme with
  | Binary -> binary_codec ~width
  | Gray_code -> gray_codec ~width
  | Bus_invert -> bus_invert_codec ~width
  | T0 -> t0_codec ~width
  | T0_bus_invert -> t0_bus_invert_codec ~width
  | Working_zone { zones; offset_bits } ->
      working_zone_codec ~zones ~offset_bits ~width
  | Beach b -> beach_codec b

(* Greedy/annealed recoding of one cluster: minimize
   sum counts(v, w) * hamming(code v, code w) over bijections. *)
let anneal_cluster rng nbits counts iterations =
  let space = 1 lsl nbits in
  let code = Array.init space (fun i -> i) in
  let cost () =
    Hashtbl.fold
      (fun (v, w) c acc -> acc +. (float_of_int c *. float_of_int (Bits.hamming code.(v) code.(w))))
      counts 0.0
  in
  let current = ref (cost ()) in
  for k = 0 to iterations - 1 do
    let i = Prng.int rng space and j = Prng.int rng space in
    if i <> j then begin
      let tmp = code.(i) in
      code.(i) <- code.(j);
      code.(j) <- tmp;
      let c' = cost () in
      let temperature = 2.0 *. exp (-6.0 *. float_of_int k /. float_of_int iterations) in
      if c' <= !current || Prng.float rng 1.0 < exp (-.(c' -. !current) /. temperature)
      then current := c'
      else begin
        let tmp = code.(i) in
        code.(i) <- code.(j);
        code.(j) <- tmp
      end
    end
  done;
  code

let train_beach ?(clusters = 4) ~width trace =
  if clusters < 1 || width < 1 || width mod clusters <> 0 || width / clusters > 8
  then
    raise
      (Err.invalid_input ~what:"beach bus width"
         (Printf.sprintf "must be a multiple of %d clusters of 1..8 bits" clusters));
  let bits_per = width / clusters in
  let groups =
    List.init clusters (fun g -> List.init bits_per (fun k -> (g * bits_per) + k))
  in
  let rng = Prng.create 71 in
  let codes =
    List.map
      (fun bits ->
        let counts = Hashtbl.create 256 in
        for i = 1 to Array.length trace - 1 do
          let v = cluster_value bits trace.(i - 1) and w = cluster_value bits trace.(i) in
          Hashtbl.replace counts (v, w)
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts (v, w)))
        done;
        anneal_cluster rng bits_per counts 4000)
      groups
  in
  let inverses =
    List.map
      (fun code ->
        let inv = Array.make (Array.length code) 0 in
        Array.iteri (fun v c -> inv.(c) <- v) code;
        inv)
      codes
  in
  Beach { width; groups; codes; inverses }

type result = {
  transitions : int;
  lines : int;
  per_word : float;
}

let transmit scheme ~width stream =
  let codec = codec_of scheme ~width in
  Array.map codec.enc stream

let evaluate scheme ~width stream =
  let codec = codec_of scheme ~width in
  let bus = Array.map codec.enc stream in
  let transitions = Bits.transitions ~width:codec.lines bus in
  {
    transitions;
    lines = codec.lines;
    per_word =
      (if Array.length stream <= 1 then 0.0
       else float_of_int transitions /. float_of_int (Array.length stream - 1));
  }

let roundtrip scheme ~width stream =
  let codec = codec_of scheme ~width in
  Array.for_all
    (fun w -> codec.dec (codec.enc w) = w land Bits.mask width)
    stream

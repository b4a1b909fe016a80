(** Low-power bus encoding (Section III-G).

    Every scheme is a pair of stateful transducers (encoder at the sender,
    decoder at the receiver) over a [width]-bit bus, possibly with redundant
    extra lines. The figure of merit is the number of bus-line transitions
    needed to transmit a word stream; correctness means the decoder
    reconstructs the stream exactly.

    Schemes: plain binary (baseline), Gray [78], Bus-Invert [77], T0 [80],
    T0 combined with Bus-Invert [81], Working-Zone [82], and the
    trace-trained Beach code [83]. *)

type scheme =
  | Binary
  | Gray_code
  | Bus_invert
  | T0
  | T0_bus_invert
  | Working_zone of { zones : int; offset_bits : int }
  | Beach of beach

and beach
(** Trained Beach parameters: line clusters and per-cluster recoding
    functions (opaque; build with {!train_beach}). *)

val scheme_name : scheme -> string

val extra_lines : scheme -> int
(** Redundant bus lines the scheme adds (INV, INC, zone-miss...). *)

val train_beach : ?clusters:int -> width:int -> int array -> scheme
(** Learn a Beach code from a typical execution trace: bus lines are
    grouped into [clusters] (default 4) contiguous groups by correlation,
    and each cluster gets a one-to-one recoding minimizing the expected
    transitions between consecutive patterns of the training trace (the
    same hypercube-embedding machinery as low-power state encoding, as the
    paper points out). Raises the typed [Invalid_input] unless [width] is
    a positive multiple of [clusters] with at most 8 bits per cluster. *)

val check_width : scheme -> width:int -> unit
(** Raise the typed [Invalid_input] unless [scheme] can run on a
    [width]-bit bus: [width >= 1]; at most 62 lines including the
    redundant ones (every bus state goes through {!Hlp_util.Bits.mask});
    Working-Zone needs [zones + offset_bits <= width]; a Beach code runs
    only at the width it was trained for. {!evaluate}, {!transmit} and
    {!roundtrip} check it first. *)

type result = {
  transitions : int;  (** total line toggles on the (redundant) bus *)
  lines : int;  (** bus width including redundant lines *)
  per_word : float;  (** transitions per transmitted word *)
}

val evaluate : scheme -> width:int -> int array -> result
(** Encode the stream and count transitions (initial bus state: first
    encoded word; its transitions are not counted, matching the usual
    convention). *)

val transmit : scheme -> width:int -> int array -> int array
(** The sequence of physical bus states (encoded words, extra lines in the
    high bits), for inspection and tests. *)

val roundtrip : scheme -> width:int -> int array -> bool
(** [decode (encode stream) = stream]. *)

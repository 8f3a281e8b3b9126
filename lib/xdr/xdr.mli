(** External data representation for remote calls.

    Arguments and results of handler calls are passed by value (§3 of
    the paper, citing Herlihy & Liskov): the caller {e encodes} each
    argument into an external representation and the receiver {e
    decodes} it, possibly with user-provided code that may fail. This
    module provides the external value model, typed codecs built from
    combinators, a deterministic byte-size model (used by the network
    cost model), and hooks to inject encode/decode failures (the paper
    maps them to the [failure] exception and a receiver-side stream
    break).

    The wire itself is untyped ([value]); static typing is recovered at
    the language boundary by pairing each port with codecs — this is
    precisely the paper's split between the language-independent
    call-stream layer and the strongly typed language veneer. *)

(** A promise reference: a transmissible placeholder for the result of
    an earlier call that may not have completed yet (promise
    pipelining, see docs/PIPELINE.md). [ps_stream] is the producing
    stream's incarnation-independent identity, [ps_call] its stable
    call-id on that stream, and [ps_field] optionally selects one named
    field of a [Record] result instead of the whole value. *)
type promise_ref = { ps_stream : string; ps_call : int; ps_field : string option }

(** The external representation of transmissible values. *)
type value =
  | Unit
  | Bool of bool
  | Int of int
  | Real of float
  | Str of string
  | Pair of value * value
  | List of value list
  | Record of (string * value) list
  | Tagged of string * value  (** variant constructor with payload *)
  | Pref of promise_ref
      (** reference to a not-yet-claimed result of an earlier call; the
          receiver substitutes the produced value before executing *)

val pp_value : Format.formatter -> value -> unit

val equal_value : value -> value -> bool
(** Structural equality. Unlike polymorphic [=], two [Real] payloads
    that are both NaN compare equal — a decoded copy of a value must
    equal the original even when it carries NaN (dedup-cache replay
    comparison depends on this). *)

(** A typed codec between ['a] and {!value}. Encoding and decoding can
    fail (user-provided translation code may contain errors); failures
    carry a human-readable reason. *)
type 'a codec = {
  type_name : string;
  encode : 'a -> (value, string) result;
  decode : value -> ('a, string) result;
}

val encode : 'a codec -> 'a -> (value, string) result

val decode : 'a codec -> value -> ('a, string) result

(** {1 Primitive codecs} *)

val unit : unit codec

val bool : bool codec

val int : int codec

val real : float codec

val string : string codec

(** {1 Combinators} *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec

val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

val list : 'a codec -> 'a list codec

val array : 'a codec -> 'a array codec

val option : 'a codec -> 'a option codec

val result : 'a codec -> 'b codec -> ('a, 'b) Result.t codec

val record2 : string -> (string * 'a codec) -> (string * 'b codec) -> ('a * 'b) codec
(** [record2 name (f1, c1) (f2, c2)] encodes a two-field record with
    named fields; decoding checks field names. *)

val record3 :
  string -> (string * 'a codec) -> (string * 'b codec) -> (string * 'c codec) ->
  ('a * 'b * 'c) codec

val tagged : string -> ('a -> string * value) -> (string * value -> ('a, string) result) -> 'a codec
(** Build a codec for a variant type from explicit tag functions. *)

val conv : string -> ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec
(** [conv name f g c] maps a codec through a bijection (total). *)

val conv_partial :
  string -> ('a -> ('b, string) result) -> ('b -> ('a, string) result) -> 'b codec -> 'a codec
(** Like {!conv} but either direction may fail — the model for
    user-provided abstract-type translation code (§3). *)

(** {1 Failure injection}

    Used by tests and experiment E6-style scenarios to model buggy
    user translation code. *)

val failing_encode : ?reason:string -> every:int -> 'a codec -> 'a codec
(** Derived codec whose encode fails on every [every]-th use (1-based
    counting; [every = 1] always fails). *)

val failing_decode : ?reason:string -> every:int -> 'a codec -> 'a codec

(** {1 Binary wire codec}

    Compact binary serialization of {!value}: single-byte tags,
    varint-encoded ints and lengths, and a per-encoder interned string
    table so repeated record-field names and port names cost a one-byte
    reference after first use. See docs/WIRE.md for the format.
    [Bin.size] is the byte count actually shipped. *)
module Bin : sig
  val version : int
  (** Format version stamped as the first byte of every packet frame. *)

  (** {2 Encoding} *)

  type encoder
  (** A reusable encode buffer plus string-intern table. *)

  val create_encoder : unit -> encoder

  val reset : encoder -> unit
  (** Clear buffer and intern table for reuse. *)

  val length : encoder -> int

  val contents : encoder -> string

  val add_byte : encoder -> int -> unit

  val add_uvarint : encoder -> int -> unit
  (** LEB128. Negative ints (e.g. zigzag of [min_int]) are emitted as
      their 63-bit two's-complement pattern in at most 9 bytes. *)

  val add_varint : encoder -> int -> unit
  (** Zigzag-mapped signed varint. *)

  val add_string : encoder -> string -> unit
  (** Interned string reference: first occurrence is emitted inline and
      added to the table, later occurrences are a 1–2 byte reference. *)

  val add_raw_string : encoder -> string -> unit
  (** Length-prefixed bytes, never interned. *)

  val add_value : encoder -> value -> unit

  val with_encoder : (encoder -> 'a) -> 'a
  (** Run with a pooled encoder (reset before use, returned to the pool
      after). Do not retain the encoder past the callback. *)

  val to_string : value -> string
  (** One-shot encode using the pool. *)

  val size : value -> int
  (** Actual encoded byte count (dictionary-off / v1 semantics),
      computed by a counting-only mirror of the encoder — no buffer is
      filled and nothing is allocated beyond a pooled intern table.
      Always equals [String.length (to_string v)]. *)

  (** {2 Connection dictionary}

      A sender-owned string table that persists across the frames of
      one connection. Strings recurring across frames are promoted
      (dict-define on second sighting) and thereafter cost a 2–3 byte
      shared-slot reference. Attaching a dictionary switches the
      encoder to the v2 string-marker scheme — both ends must agree,
      which {!Cstream.Chanhub} negotiates per connection. [reset_dict]
      bumps the epoch (sent in every v2 frame header) so receivers
      discard stale state after an incarnation change. *)

  type dict

  val create_dict : ?cap:int -> unit -> dict
  (** [cap] bounds the number of promoted entries (default 1024). *)

  val reset_dict : dict -> unit
  (** Forget all promotions and bump the epoch. *)

  val dict_epoch : dict -> int

  val dict_size : dict -> int
  (** Currently promoted entry count. *)

  val dict_defines : dict -> int
  (** Lifetime promotion count (across resets). *)

  val dict_refs : dict -> int
  (** Lifetime shared-slot reference count (across resets). *)

  val use_dict : encoder -> dict -> unit
  (** Attach for the current frame. [reset] (and hence
      {!with_encoder}) detaches, so a pooled encoder never leaks a
      dictionary into an unrelated frame. *)

  type dict_table
  (** Receiver half: an append-only table fed by dict-defines. Keep one
      per (peer, epoch); on an epoch change, swap in a fresh table —
      never clear in place, so views over old frames stay valid. *)

  val create_dict_table : unit -> dict_table

  val dict_table_size : dict_table -> int

  (** {2 Decoding}

      Decoders never raise on malformed input: every [read_*] returns a
      [result], with bounds-checked reads, a varint length cap, string
      table range checks and a nesting-depth limit. *)

  type decoder

  val decoder : string -> decoder

  val pos : decoder -> int

  val remaining : decoder -> int

  val read_byte : decoder -> (int, string) result

  val read_uvarint : decoder -> (int, string) result

  val read_varint : decoder -> (int, string) result

  val use_dict_table : decoder -> dict_table -> unit
  (** Switch this decoder to the v2 string-marker scheme, resolving and
      feeding the given connection table. Must mirror the sender's
      {!use_dict} decision frame-for-frame. *)

  val read_string : decoder -> (string, string) result
  (** Interned reference (shares the decoder's growing table). *)

  val read_raw_string : decoder -> (string, string) result

  val read_value : decoder -> (value, string) result

  val expect_end : decoder -> (unit, string) result

  val of_string : string -> (value, string) result
  (** Decode exactly one value; trailing bytes are an error. *)
end

(** {1 Lazy frame views}

    Zero-copy read path over {!Bin}-encoded bytes. {!View.read} scans
    one value — full structural validation, cursor left after it — but
    allocates no value tree; the result is a slice that can be
    navigated (pair/list/record/tagged sub-views, one-field
    projection) or materialised into a {!value} only where a consumer
    actually needs the data. Envelope parsing, routing and
    [pipe_field] projection touch a few bytes of a large frame instead
    of decoding all of it.

    Views borrow their frame's buffer and mutable intern tables: they
    are cheap, but not safe to share across domains — call
    {!View.materialize} before handing data to a worker pool. *)
module View : sig
  type t

  type shape =
    | Vunit
    | Vbool
    | Vint
    | Vreal
    | Vstr
    | Vpair
    | Vlist
    | Vrecord
    | Vtagged
    | Vpref

  val read : Bin.decoder -> (t, string) result
  (** Scan and validate one value where the cursor stands; on success
      the cursor is past it and the slice is captured. Works with or
      without a connection dictionary attached to the decoder. *)

  val of_string : string -> (t, string) result
  (** View over a standalone encoding (trailing bytes are an error). *)

  val byte_length : t -> int
  (** Encoded size of the slice in bytes. *)

  val snapshot : t -> t
  (** A view safe to hand to another domain (docs/DOMAINS.md): the
      mutable intern and dictionary tables are copied as they stand, so
      later traffic on the connection cannot race a worker's
      projections. The frame bytes and table strings are shared —
      both are immutable — so the cost is two array copies. *)

  val shape : t -> shape
  (** Top-level constructor, from the head tag byte alone. *)

  val materialize : t -> (value, string) result
  (** Decode the whole slice into a tree. A scan-validated slice only
      fails here if the process memory was corrupted — treat [Error]
      as a bug, not as input garbage. *)

  val as_int : t -> (int, string) result

  val as_string : t -> (string, string) result

  val pair_parts : t -> (t * t, string) result

  val list_items : t -> (t list, string) result

  val list_length : t -> (int, string) result
  (** The element count, read from the list head alone. *)

  val list_item : t -> int -> (t option, string) result
  (** One-item projection: items before index [i] are skipped by
      structure, items after it never scanned. [Ok None] when the list
      is shorter than [i + 1]. *)

  val record_fields : t -> ((string * t) list, string) result

  val record_field : t -> string -> (t option, string) result
  (** One-field projection: earlier fields are skipped by structure,
      later fields never scanned. [Ok None] when the field is absent. *)

  val tagged_parts : t -> (string * t, string) result

  val has_prefs : t -> bool
  (** Whether the slice contains any {!Pref}. A byte-level pre-filter
      makes the common pref-free case O(memchr). *)
end

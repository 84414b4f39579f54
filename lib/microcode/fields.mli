(** The microinstruction field layout.

    The layout is derived from the machine parameters, so a revised machine
    design regenerates it automatically.  An instruction completely
    specifies "the pipeline configuration and function unit operations for
    the entire machine":

    - a header (magic, instruction number, vector length);
    - per-ALS bypass configuration;
    - per-functional-unit control: opcode, operand-source selectors,
      alignment-queue depths, feedback-queue depths, one inline constant;
    - the switch section: one source selector per network sink;
    - the DMA section: one engine per memory plane and per cache;
    - the shift/delay section.

    With the default machine this comes to several thousand bits in several
    hundred field instances of two dozen distinct kinds — the scale the
    paper quotes as making hand-written microprograms impractical.

    [make] compiles the layout once per machine into integer-indexed
    records — per functional unit, ALS, switch sink, DMA engine and
    shift/delay unit — and the encoder and decoder reach every field
    through them.  Field names are kept for listings, the disassembler and
    hand-authored words ({!find}, {!get}, {!set}); they name the same field
    records. *)

type field = { name : string; offset : int; width : int }

(** The control fields of one functional unit. *)
type fu_fields = {
  fu : Nsc_arch.Resource.fu_id;
  op : field;
  src_a : field;
  src_b : field;
  delay_a : field;
  delay_b : field;
  fb_a : field;
  fb_b : field;
  const_port : field;
  const_val : field;
}

(** The fields of one DMA engine. *)
type dma_fields = { active : field; dir : field; base : field; stride : field; count : field }

(** The fields of one shift/delay unit. *)
type sd_fields = { mode : field; amount : field }

type header = { magic : field; index : field; vlen : field }

module String_map : Map.S with type key = string

type t = {
  params : Nsc_arch.Params.t;
  total_bits : int;
  fields : field list;  (** every field, in layout order *)
  by_name : field String_map.t;
  header : header;
  bypass : field array;  (** by ALS id *)
  fus : fu_fields array;  (** by global FU index *)
  sinks : (Nsc_arch.Resource.sink * field) array;
      (** in [Knowledge.all_sinks] order *)
  planes : dma_fields array array;  (** by plane, then engine *)
  caches : dma_fields array array;  (** by cache, then engine *)
  sds : sd_fields array;  (** by shift/delay unit *)
}

val src_unbound : int
val src_switch : int
val src_chain : int
val src_const : int
val src_feedback : int
val const_none : int
val const_a : int
val const_b : int
val sd_off : int
val sd_delay : int
val sd_shift : int
val bypass_code : Nsc_arch.Als.bypass -> int
val bypass_of_code : int -> Nsc_arch.Als.bypass option
val bits_for : int -> int

(** The layout for a machine — several thousand bits in hundreds of field
    instances of ~30 kinds, derived entirely from the parameters.  Built
    once per structurally distinct parameter set: later calls, from any
    domain, return the same (physically equal) immutable layout. *)
val make : Nsc_arch.Params.t -> t

(** The field called [name]; raises [Invalid_argument] if there is none. *)
val find : t -> string -> field
val mem : t -> string -> bool

(** Number of field instances in the layout. *)
val field_count : t -> int

(** Number of distinct field kinds (names with indices stripped) — the
    paper's "dozens of separate fields". *)
val kind_count : t -> int

(** {2 Record lookups}

    Each raises [Invalid_argument], as {!find} would for the field it
    names, on an id the machine does not have. *)

val fu_fields : t -> Nsc_arch.Resource.fu_id -> fu_fields
val bypass_field : t -> Nsc_arch.Resource.als_id -> field
val sink_field : t -> Nsc_arch.Resource.sink -> field
val dma_fields : t -> Nsc_arch.Dma.channel -> int -> dma_fields
val sd_fields : t -> Nsc_arch.Resource.sd_id -> sd_fields

(** {2 Access through a field record} *)

val read : Word.t -> field -> int
val write : Word.t -> field -> int -> unit
val read_signed : Word.t -> field -> int
val write_signed : Word.t -> field -> int -> unit

(** The field's 64 bits as an IEEE double. *)
val read_float : Word.t -> field -> float
val write_float : Word.t -> field -> float -> unit

(** {2 Access by name} *)

val get : t -> Word.t -> string -> int
val set : t -> Word.t -> string -> int -> unit
val get_signed : t -> Word.t -> string -> int
val set_signed : t -> Word.t -> string -> int -> unit
val get_float : t -> Word.t -> string -> float
val set_float : t -> Word.t -> string -> float -> unit

(** A zeroed word of the layout's width. *)
val fresh_word : t -> Word.t

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
    paper quotes as making hand-written microprograms impractical. *)

open Nsc_arch

type field = { name : string; offset : int; width : int }

(** The control fields of one functional unit. *)
type fu_fields = {
  fu : Resource.fu_id;
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

module String_map = Map.Make (String)

type t = {
  params : Params.t;
  total_bits : int;
  fields : field list;  (** in layout order *)
  by_name : field String_map.t;
  header : header;
  bypass : field array;  (** by ALS id *)
  fus : fu_fields array;  (** by global FU index *)
  sinks : (Resource.sink * field) array;  (** in [Knowledge.all_sinks] order *)
  planes : dma_fields array array;  (** by plane, then engine *)
  caches : dma_fields array array;  (** by cache, then engine *)
  sds : sd_fields array;  (** by shift/delay unit *)
}

(* Operand-source selector encodings (fields fu<i>.src_a / src_b). *)
let src_unbound = 0
let src_switch = 1
let src_chain = 2
let src_const = 3
let src_feedback = 4

(* Constant-port encodings (field fu<i>.const_port). *)
let const_none = 0
let const_a = 1
let const_b = 2

(* Shift/delay mode encodings. *)
let sd_off = 0
let sd_delay = 1
let sd_shift = 2

(* Bypass encodings. *)
let bypass_code = function
  | Als.No_bypass -> 0
  | Als.Keep_head -> 1
  | Als.Keep_tail -> 2

let bypass_of_code = function
  | 0 -> Some Als.No_bypass
  | 1 -> Some Als.Keep_head
  | 2 -> Some Als.Keep_tail
  | _ -> None

let bits_for n =
  (* bits needed to store values 0..n *)
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 1

(* Position of [snk] in [Knowledge.all_sinks]: ports a and b of every
   unit in global order, then plane engines, cache engines and
   shift/delay units.  [None] for a sink the machine does not have. *)
let sink_position (p : Params.t) snk =
  let nfu = Params.n_functional_units p in
  let planes = p.n_memory_planes * p.plane_dma_slots in
  let caches = p.n_caches * p.cache_dma_slots in
  (* engine [e] of device [i] among [n] devices of [slots] engines each *)
  let engine i n slots e =
    if i >= 0 && i < n && e >= 0 && e < slots then Some ((i * slots) + e) else None
  in
  match snk with
  | Resource.Snk_fu (fu, port) ->
      if Resource.fu_valid p fu then
        Some ((2 * Resource.fu_global_index p fu) + if port = Resource.A then 0 else 1)
      else None
  | Resource.Snk_memory (pl, e) ->
      Option.map (( + ) (2 * nfu)) (engine pl p.n_memory_planes p.plane_dma_slots e)
  | Resource.Snk_cache (c, e) ->
      Option.map (( + ) ((2 * nfu) + planes)) (engine c p.n_caches p.cache_dma_slots e)
  | Resource.Snk_shift_delay s ->
      Option.map (( + ) ((2 * nfu) + planes + caches)) (engine s p.n_shift_delay 1 0)

(* Lay the fields out for machine [p]. *)
let build (p : Params.t) : t =
  let fields = ref [] in
  let cursor = ref 0 in
  let field name width =
    let f = { name; offset = !cursor; width } in
    fields := f :: !fields;
    cursor := !cursor + width;
    f
  in
  let nfu = Params.n_functional_units p in
  let src_width = bits_for (1 + nfu + p.n_memory_planes + p.n_caches + p.n_shift_delay) in
  let delay_width = bits_for p.rf_max_delay in
  let addr_width = bits_for (max p.memory_plane_words p.cache_words) in
  let count_width = addr_width in
  let header =
    let magic = field "hdr.magic" 8 in
    let index = field "hdr.index" 16 in
    let vlen = field "hdr.vlen" 24 in
    { magic; index; vlen }
  in
  let bypass =
    Array.init (Params.n_als p) (fun a -> field (Printf.sprintf "als%d.bypass" a) 2)
  in
  let fus =
    Array.init nfu (fun g ->
        let f name width = field (Printf.sprintf "fu%d.%s" g name) width in
        let op = f "op" 6 in
        let src_a = f "src_a" 3 in
        let src_b = f "src_b" 3 in
        let delay_a = f "delay_a" delay_width in
        let delay_b = f "delay_b" delay_width in
        let fb_a = f "fb_a" delay_width in
        let fb_b = f "fb_b" delay_width in
        let const_port = f "const_port" 2 in
        let const_val = f "const_val" 64 in
        {
          fu = Resource.fu_of_global_index p g;
          op;
          src_a;
          src_b;
          delay_a;
          delay_b;
          fb_a;
          fb_b;
          const_port;
          const_val;
        })
  in
  (* switch section: one source selector per sink *)
  let sinks =
    Array.of_list
      (List.mapi
         (fun i snk ->
           assert (sink_position p snk = Some i);
           (snk, field ("snk." ^ Resource.sink_to_string snk) src_width))
         (Knowledge.all_sinks (Knowledge.make_exn p)))
  in
  (* DMA section: one engine per (channel, slot) *)
  let dma_channel tag n slots =
    Array.init n (fun i ->
        Array.init slots (fun e ->
            let f name width = field (Printf.sprintf "dma.%s%d.e%d.%s" tag i e name) width in
            let active = f "active" 1 in
            let dir = f "dir" 1 in
            let base = f "base" addr_width in
            let stride = f "stride" 17 in
            let count = f "count" count_width in
            { active; dir; base; stride; count }))
  in
  let planes = dma_channel "plane" p.n_memory_planes p.plane_dma_slots in
  let caches = dma_channel "cache" p.n_caches p.cache_dma_slots in
  let sds =
    Array.init p.n_shift_delay (fun s ->
        let mode = field (Printf.sprintf "sd%d.mode" s) 2 in
        let amount = field (Printf.sprintf "sd%d.amount" s) 9 in
        { mode; amount })
  in
  let fields = List.rev !fields in
  let by_name =
    List.fold_left (fun m f -> String_map.add f.name f m) String_map.empty fields
  in
  {
    params = p;
    total_bits = !cursor;
    fields;
    by_name;
    header;
    bypass;
    fus;
    sinks;
    planes;
    caches;
    sds;
  }

(* Layouts already built, newest first.  The list is swapped whole by
   compare-and-set and never mutated, so domains read it without locking;
   a layout is immutable once built, so one copy serves every caller. *)
let memo : (Params.t * t) list Atomic.t = Atomic.make []

(* Machines beyond this many are laid out afresh on every call rather
   than retained. *)
let memo_limit = 32

(** The layout for machine [p], built once per structurally distinct
    parameter set and shared (physically equal) thereafter. *)
let rec make (p : Params.t) : t =
  let seen = Atomic.get memo in
  match List.find_opt (fun (q, _) -> q == p || Params.equal q p) seen with
  | Some (_, t) -> t
  | None when List.length seen >= memo_limit -> build p
  | None ->
      let t = build p in
      if Atomic.compare_and_set memo seen ((p, t) :: seen) then t else make p

let missing name = invalid_arg (Printf.sprintf "Fields.find: no field '%s'" name)

let find t name =
  match String_map.find_opt name t.by_name with Some f -> f | None -> missing name

let mem t name = String_map.mem name t.by_name

(* Record-indexed lookups for the codec.  An id the machine does not
   have raises the error [find] gives for the field it would name. *)
let fu_fields t (fu : Resource.fu_id) = t.fus.(Resource.fu_global_index t.params fu)

let bypass_field t als =
  if als >= 0 && als < Array.length t.bypass then t.bypass.(als)
  else missing (Printf.sprintf "als%d.bypass" als)

let sink_field t snk =
  match sink_position t.params snk with
  | Some i -> snd t.sinks.(i)
  | None -> missing ("snk." ^ Resource.sink_to_string snk)

let dma_fields t (channel : Dma.channel) slot =
  let tag, i, engines =
    match channel with
    | Dma.Plane pl -> ("plane", pl, t.planes)
    | Dma.Cache_chan c -> ("cache", c, t.caches)
  in
  if i >= 0 && i < Array.length engines && slot >= 0 && slot < Array.length engines.(i)
  then engines.(i).(slot)
  else missing (Printf.sprintf "dma.%s%d.e%d.active" tag i slot)

let sd_fields t s =
  if s >= 0 && s < Array.length t.sds then t.sds.(s)
  else missing (Printf.sprintf "sd%d.mode" s)

(** Number of field instances in the layout. *)
let field_count t = List.length t.fields

(** Number of distinct field kinds (names with indices stripped) — the
    "dozens of separate fields" of the paper. *)
let kind_count t =
  let strip name =
    String.to_seq name
    |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
    |> String.of_seq
  in
  List.map (fun f -> strip f.name) t.fields |> List.sort_uniq String.compare |> List.length

(* Field access through a field record: the codec's path. *)
let read word f = Word.get_int word ~offset:f.offset ~width:f.width
let write word f v = Word.set_int word ~offset:f.offset ~width:f.width v
let read_signed word f = Word.get_signed word ~offset:f.offset ~width:f.width
let write_signed word f v = Word.set_signed word ~offset:f.offset ~width:f.width v
let read_float word f = Word.get_float word ~offset:f.offset
let write_float word f v = Word.set_float word ~offset:f.offset v

(* Field access by name, for listings, tests and hand-authored words. *)
let get t word name = read word (find t name)
let set t word name v = write word (find t name) v
let get_signed t word name = read_signed word (find t name)
let set_signed t word name v = write_signed word (find t name) v

let get_float t word name =
  let f = find t name in
  if f.width <> 64 then invalid_arg "Fields.get_float: not a 64-bit field";
  read_float word f

let set_float t word name v =
  let f = find t name in
  if f.width <> 64 then invalid_arg "Fields.set_float: not a 64-bit field";
  write_float word f v

let fresh_word t = Word.create t.total_bits

(** The disassembler: microinstruction words back to semantic structures.

    Decoding is the inverse of {!Encode.encode} up to
    {!Encode.normalize}; the round trip is enforced by property tests and
    gives confidence that the generated machine code means what the diagram
    said. *)

open Nsc_arch
open Nsc_diagram

(* An operand binding; [Error] carries an undefined source code. *)
let decode_binding word (f : Fields.fu_fields) ~src ~fb =
  let code = Fields.read word src in
  if code = Fields.src_unbound then Ok Fu_config.Unbound
  else if code = Fields.src_switch then Ok Fu_config.From_switch
  else if code = Fields.src_chain then Ok Fu_config.From_chain
  else if code = Fields.src_const then
    Ok (Fu_config.From_constant (Fields.read_float word f.Fields.const_val))
  else if code = Fields.src_feedback then Ok (Fu_config.From_feedback (Fields.read word fb))
  else Error code

(* The control of unit [g], whose opcode field holds [op]. *)
let decode_unit word (f : Fields.fu_fields) g op : (Semantic.unit_program, string) result =
  match
    ( decode_binding word f ~src:f.Fields.src_a ~fb:f.Fields.fb_a,
      decode_binding word f ~src:f.Fields.src_b ~fb:f.Fields.fb_b )
  with
  | Error code, _ | _, Error code ->
      Error (Printf.sprintf "unit %d: undefined operand source %d" g code)
  | Ok a, Ok b ->
      (* the one inline constant is exposed on exactly the port bound to it *)
      let expected =
        match (a, b) with
        | Fu_config.From_constant _, Fu_config.From_constant _ -> None
        | Fu_config.From_constant _, _ -> Some Fields.const_a
        | _, Fu_config.From_constant _ -> Some Fields.const_b
        | _ -> Some Fields.const_none
      in
      let port = Fields.read word f.Fields.const_port in
      if expected <> Some port then
        Error
          (Printf.sprintf
             "unit %d: constant port %d does not name the operand bound to a constant" g port)
      else
        Ok
          {
            Semantic.fu = f.Fields.fu;
            op;
            a;
            b;
            delay_a = Fields.read word f.Fields.delay_a;
            delay_b = Fields.read word f.Fields.delay_b;
          }

(** Decode a microinstruction.  Fails with [Error] on a bad magic number or
    on any field holding a code the encoder never writes: an undefined
    opcode, operand source, bypass, switch source or shift/delay mode, or
    a constant port that does not name exactly the operand bound to the
    inline constant.  The error reported is the first in layout order. *)
let decode (layout : Fields.t) (word : Word.t) : (Semantic.t, string) result =
  let p = layout.Fields.params in
  let read = Fields.read word in
  let hdr = layout.Fields.header in
  if read hdr.Fields.magic <> Encode.magic then
    Error "bad magic number: not an NSC microinstruction"
  else begin
    let error = ref None in
    let fail m = if Option.is_none !error then error := Some m in
    (* sections are collected in reverse; [Encode.normalize] sorts them *)
    let units = ref [] in
    Array.iteri
      (fun g (f : Fields.fu_fields) ->
        match read f.Fields.op with
        | 0 -> ()
        | code -> (
            match Opcode.of_code code with
            | None -> fail (Printf.sprintf "unit %d: undefined opcode %d" g code)
            | Some op -> (
                match decode_unit word f g op with
                | Ok u -> units := u :: !units
                | Error m -> fail m)))
      layout.Fields.fus;
    (* bypasses: engaged ALSs plus any ALS with an explicit bypass *)
    let bypasses = ref [] in
    Array.iteri
      (fun als f ->
        let code = read f in
        match Fields.bypass_of_code code with
        | None -> fail (Printf.sprintf "ALS%d: undefined bypass code %d" als code)
        | Some bypass ->
            let engaged =
              List.exists
                (fun (u : Semantic.unit_program) -> u.Semantic.fu.Resource.als = als)
                !units
            in
            if engaged || not (Als.equal_bypass bypass Als.No_bypass) then
              bypasses := (als, bypass) :: !bypasses)
      layout.Fields.bypass;
    (* switch section *)
    let routes = ref [] in
    Array.iter
      (fun (snk, f) ->
        match read f with
        | 0 -> ()
        | code -> (
            match Resource.source_of_code p code with
            | Some src -> routes := { Switch.src; snk } :: !routes
            | None ->
                fail
                  (Printf.sprintf "sink %s: undefined source code %d"
                     (Resource.sink_to_string snk) code)))
      layout.Fields.sinks;
    (* DMA section *)
    let streams = ref [] in
    let engines engines channel_of =
      Array.iteri
        (fun i slots ->
          Array.iteri
            (fun slot (e : Fields.dma_fields) ->
              if read e.Fields.active <> 0 then begin
                let channel = channel_of i in
                let direction = if read e.Fields.dir = 0 then Dma.Read else Dma.Write in
                let transfer =
                  {
                    Dma.channel;
                    direction;
                    base = read e.Fields.base;
                    stride = Fields.read_signed word e.Fields.stride;
                    count = read e.Fields.count;
                  }
                in
                let engine =
                  match (direction, channel) with
                  | Dma.Read, Dma.Plane pl -> `Read (Resource.Src_memory (pl, slot))
                  | Dma.Read, Dma.Cache_chan c -> `Read (Resource.Src_cache (c, slot))
                  | Dma.Write, Dma.Plane pl -> `Write (Resource.Snk_memory (pl, slot))
                  | Dma.Write, Dma.Cache_chan c -> `Write (Resource.Snk_cache (c, slot))
                in
                streams := { Semantic.transfer; engine } :: !streams
              end)
            slots)
        engines
    in
    engines layout.Fields.planes (fun pl -> Dma.Plane pl);
    engines layout.Fields.caches (fun c -> Dma.Cache_chan c);
    (* shift/delay section *)
    let sds = ref [] in
    Array.iteri
      (fun s (f : Fields.sd_fields) ->
        let mode = read f.Fields.mode in
        if mode <> Fields.sd_off then begin
          let amount = Fields.read_signed word f.Fields.amount in
          if mode = Fields.sd_delay then
            sds := { Semantic.sd = s; mode = Shift_delay.Delay amount } :: !sds
          else if mode = Fields.sd_shift then
            sds := { Semantic.sd = s; mode = Shift_delay.Shift amount } :: !sds
          else fail (Printf.sprintf "sd%d: undefined mode %d" s mode)
        end)
      layout.Fields.sds;
    match !error with
    | Some e -> Error e
    | None ->
        Ok
          (Encode.normalize
             {
               Semantic.index = read hdr.Fields.index;
               label = "";
               vector_length = read hdr.Fields.vlen;
               bypasses = !bypasses;
               units = !units;
               sds = !sds;
               routes = !routes;
               streams = !streams;
             })
  end

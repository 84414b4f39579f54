(* Microcode: words, field layout, encode/decode round trips, codegen. *)

open Nsc_arch
open Nsc_diagram
open Nsc_microcode
open Util

let layout = Fields.make params

(* Per-bit reference field access: the simplest possible reading of the
   word's little-endian bit order, against which the byte-wise access is
   checked. *)
let ref_get w ~offset ~width =
  let v = ref 0L in
  for i = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int (Word.get_bit w (offset + i)))
  done;
  !v

let ref_set w ~offset ~width v =
  for i = 0 to width - 1 do
    Word.set_bit w (offset + i) (Int64.logand (Int64.shift_right_logical v i) 1L = 1L)
  done

let word_tests =
  [
    case "bit set/get round-trips at arbitrary offsets" (fun () ->
        let w = Word.create 100 in
        Word.set_int w ~offset:13 ~width:7 97;
        check_int "value" 97 (Word.get_int w ~offset:13 ~width:7);
        check_int "neighbours untouched" 0 (Word.get_int w ~offset:0 ~width:13));
    case "values too wide for their field are rejected" (fun () ->
        let w = Word.create 64 in
        Alcotest.check_raises "overflow"
          (Invalid_argument "Word.set: value 256 does not fit in 8 bits") (fun () ->
            Word.set w ~offset:0 ~width:8 256L));
    case "signed fields bias around zero" (fun () ->
        let w = Word.create 64 in
        Word.set_signed w ~offset:3 ~width:17 (-5);
        check_int "neg" (-5) (Word.get_signed w ~offset:3 ~width:17);
        Word.set_signed w ~offset:3 ~width:17 1000;
        check_int "pos" 1000 (Word.get_signed w ~offset:3 ~width:17));
    case "floats are stored bit-exactly" (fun () ->
        let w = Word.create 128 in
        Word.set_float w ~offset:17 (1.0 /. 6.0);
        check_bool "exact" true (Word.get_float w ~offset:17 = 1.0 /. 6.0));
    case "popcount counts live bits" (fun () ->
        let w = Word.create 32 in
        Word.set_int w ~offset:0 ~width:8 0xFF;
        check_int "8 bits" 8 (Word.popcount w));
    case "hex dump covers every byte" (fun () ->
        let w = Word.create 40 in
        let hex = Word.to_hex w in
        check_int "5 bytes = 14 chars" 14 (String.length hex));
    qcheck "random field writes read back" ~count:500
      QCheck2.Gen.(tup3 (int_range 0 900) (int_range 1 63) (int_range 0 1000000))
      (fun (offset, width, v) ->
        let w = Word.create 1024 in
        let v = v land ((1 lsl width) - 1) in
        Word.set_int w ~offset ~width v;
        Word.get_int w ~offset ~width = v);
    qcheck "field access matches a bit-by-bit reference" ~count:1000
      QCheck2.Gen.(tup4 (int_range 1 64) bool (int_range 0 max_int) (int_range 0 max_int))
      (fun (width, at_tail, pos, seed) ->
        let rng = Random.State.make [| seed |] in
        let bits = layout.Fields.total_bits in
        (* half the fields end in the word's last byte *)
        let offset =
          if at_tail then bits - width - (pos mod min 9 (bits - width + 1))
          else pos mod (bits - width + 1)
        in
        let w = Fields.fresh_word layout in
        let nbytes = Bytes.length w.Word.bytes in
        Bytes.iteri
          (fun i _ -> Bytes.set_uint8 w.Word.bytes i (Random.State.int rng 256))
          w.Word.bytes;
        (* bits past the end stay zero, as in every real word *)
        if bits land 7 <> 0 then
          Bytes.set_uint8 w.Word.bytes (nbytes - 1)
            (Bytes.get_uint8 w.Word.bytes (nbytes - 1) land ((1 lsl (bits land 7)) - 1));
        let v = Random.State.bits64 rng in
        let v =
          if width = 64 then v else Int64.logand v (Int64.pred (Int64.shift_left 1L width))
        in
        let expected = Word.copy w in
        ref_set expected ~offset ~width v;
        let got = Word.copy w in
        Word.set got ~offset ~width v;
        let refuses f = match f () with () -> false | exception Invalid_argument _ -> true in
        let overflow_refused =
          width = 64
          || refuses (fun () -> Word.set (Word.copy w) ~offset ~width (Int64.shift_left 1L width))
             && (width > 62
                || refuses (fun () -> Word.set_int (Word.copy w) ~offset ~width (1 lsl width)))
        in
        let int_agrees =
          width > 62
          ||
          let got_int = Word.copy w in
          Word.set_int got_int ~offset ~width (Int64.to_int v);
          Word.get_int w ~offset ~width = Int64.to_int (ref_get w ~offset ~width)
          && Word.equal got_int expected
        in
        Word.get w ~offset ~width = ref_get w ~offset ~width
        && Word.equal got expected && int_agrees && overflow_refused);
  ]

(* Every field reached through the layout's records, with the name the
   naming scheme gives it. *)
let record_fields (layout : Fields.t) =
  let h = layout.Fields.header in
  let fu g (f : Fields.fu_fields) =
    List.map
      (fun (kind, field) -> (Printf.sprintf "fu%d.%s" g kind, field))
      [
        ("op", f.Fields.op);
        ("src_a", f.Fields.src_a);
        ("src_b", f.Fields.src_b);
        ("delay_a", f.Fields.delay_a);
        ("delay_b", f.Fields.delay_b);
        ("fb_a", f.Fields.fb_a);
        ("fb_b", f.Fields.fb_b);
        ("const_port", f.Fields.const_port);
        ("const_val", f.Fields.const_val);
      ]
  in
  let dma tag engines =
    List.concat
      (List.mapi
         (fun i slots ->
           List.concat
             (List.mapi
                (fun e (d : Fields.dma_fields) ->
                  List.map
                    (fun (kind, field) -> (Printf.sprintf "dma.%s%d.e%d.%s" tag i e kind, field))
                    [
                      ("active", d.Fields.active);
                      ("dir", d.Fields.dir);
                      ("base", d.Fields.base);
                      ("stride", d.Fields.stride);
                      ("count", d.Fields.count);
                    ])
                (Array.to_list slots)))
         (Array.to_list engines))
  in
  [ ("hdr.magic", h.Fields.magic); ("hdr.index", h.Fields.index); ("hdr.vlen", h.Fields.vlen) ]
  @ List.mapi (fun a f -> (Printf.sprintf "als%d.bypass" a, f)) (Array.to_list layout.Fields.bypass)
  @ List.concat (List.mapi fu (Array.to_list layout.Fields.fus))
  @ List.map
      (fun (snk, f) -> ("snk." ^ Resource.sink_to_string snk, f))
      (Array.to_list layout.Fields.sinks)
  @ dma "plane" layout.Fields.planes
  @ dma "cache" layout.Fields.caches
  @ List.concat
      (List.mapi
         (fun s (f : Fields.sd_fields) ->
           [
             (Printf.sprintf "sd%d.mode" s, f.Fields.mode);
             (Printf.sprintf "sd%d.amount" s, f.Fields.amount);
           ])
         (Array.to_list layout.Fields.sds))

let fields_tests =
  [
    case "the instruction is a few thousand bits in hundreds of fields" (fun () ->
        check_bool ">= 2000 bits" true (layout.Fields.total_bits >= 2000);
        check_bool ">= 100 field instances" true (Fields.field_count layout >= 100);
        check_bool ">= 24 distinct kinds" true (Fields.kind_count layout >= 24));
    case "fields do not overlap and cover the word" (fun () ->
        let sorted =
          List.sort (fun a b -> compare a.Fields.offset b.Fields.offset) layout.Fields.fields
        in
        let rec walk expected = function
          | [] -> check_int "total" layout.Fields.total_bits expected
          | f :: rest ->
              check_int ("offset of " ^ f.Fields.name) expected f.Fields.offset;
              walk (expected + f.Fields.width) rest
        in
        walk 0 sorted);
    case "every unit has its control fields" (fun () ->
        List.iter
          (fun fu ->
            let g = Resource.fu_global_index params fu in
            check_bool "op" true (Fields.mem layout (Printf.sprintf "fu%d.op" g));
            check_bool "const" true (Fields.mem layout (Printf.sprintf "fu%d.const_val" g)))
          (Resource.all_fus params));
    case "every switch sink has a selector" (fun () ->
        List.iter
          (fun snk ->
            check_bool "sink field" true
              (Fields.mem layout ("snk." ^ Resource.sink_to_string snk)))
          (Knowledge.all_sinks kb));
    case "unknown fields raise" (fun () ->
        Alcotest.check_raises "find" (Invalid_argument "Fields.find: no field 'nope'")
          (fun () -> ignore (Fields.find layout "nope")));
    case "a smaller machine yields a smaller word" (fun () ->
        let small = Fields.make Params.subset_model in
        check_bool "smaller" true (small.Fields.total_bits < layout.Fields.total_bits));
    case "record access equals name access for every field" (fun () ->
        List.iter
          (fun p ->
            let layout = Fields.make p in
            let named = record_fields layout in
            check_bool "sinks in knowledge-base order" true
              (Array.to_list (Array.map fst layout.Fields.sinks)
              = Knowledge.all_sinks (Knowledge.make_exn p));
            check_int "every field has a record" (Fields.field_count layout)
              (List.length named);
            let rng = Random.State.make [| layout.Fields.total_bits |] in
            for _ = 1 to 4 do
              let w = Fields.fresh_word layout in
              Bytes.iteri
                (fun i _ -> Bytes.set_uint8 w.Word.bytes i (Random.State.int rng 256))
                w.Word.bytes;
              List.iter
                (fun (name, (f : Fields.field)) ->
                  check_bool ("same record: " ^ name) true (Fields.find layout name == f);
                  check_int name (Fields.get layout w name) (Fields.read w f))
                named
            done)
          [ Params.default; Params.subset_model ]);
    case "a machine is laid out once, across domains" (fun () ->
        (* a machine no other test lays out, so the two domains race to
           build it *)
        let fresh () = { Params.default with Params.hop_latency = 97 } in
        let d1 = Domain.spawn (fun () -> Fields.make (fresh ())) in
        let d2 = Domain.spawn (fun () -> Fields.make (fresh ())) in
        let l1 = Domain.join d1 and l2 = Domain.join d2 in
        check_bool "racing domains share one layout" true (l1 == l2);
        check_bool "later calls share it" true (Fields.make (fresh ()) == l1);
        let d = Domain.spawn (fun () -> Fields.make Params.default) in
        check_bool "the default layout is shared" true
          (Domain.join d == Fields.make { Params.default with Params.n_singlets = 4 });
        check_bool "the subset layout is its own" true
          (Fields.make Params.subset_model != Fields.make Params.default));
  ]

let roundtrip prog index =
  let sem, issues = semantic_of_program prog index in
  check_int "no issues" 0 (List.length issues);
  match Encode.encode layout sem with
  | Error e -> Alcotest.fail ("encode: " ^ e)
  | Ok instr -> (
      match Decode.decode layout instr.Encode.word with
      | Error e -> Alcotest.fail ("decode: " ^ e)
      | Ok sem' ->
          let n = Encode.normalize sem in
          if not (Semantic.equal n sem') then begin
            print_endline (Semantic.show n);
            print_endline (Semantic.show sem');
            Alcotest.fail "round trip changed the semantics"
          end)

(* An encoded Jacobi sweep word with a unit g that binds the inline
   constant on [port]. *)
let jacobi_constant_word () =
  let b = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10 in
  let sem, _ = semantic_of_program b.Nsc_apps.Jacobi.program 2 in
  let word = (Result.get_ok (Encode.encode layout sem)).Encode.word in
  check_bool "the clean word decodes" true (Result.is_ok (Decode.decode layout word));
  let is_const = function Fu_config.From_constant _ -> true | _ -> false in
  match
    List.find_opt
      (fun (u : Semantic.unit_program) -> is_const u.Semantic.a || is_const u.Semantic.b)
      sem.Semantic.units
  with
  | None -> Alcotest.fail "the Jacobi sweep binds no constant"
  | Some u ->
      ( word,
        Resource.fu_global_index params u.Semantic.fu,
        if is_const u.Semantic.a then "a" else "b" )

let refused what w =
  match Decode.decode layout w with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "decoded a word with %s" what

let encode_tests =
  [
    case "vecadd round-trips through machine code" (fun () ->
        let prog, _ = vecadd_program () in
        roundtrip prog 1);
    case "the full Jacobi program round-trips" (fun () ->
        let b = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10 in
        List.iter
          (fun (pl : Pipeline.t) -> roundtrip b.Nsc_apps.Jacobi.program pl.Pipeline.index)
          b.Nsc_apps.Jacobi.program.Program.pipelines);
    case "the red-black program round-trips" (fun () ->
        let b = Nsc_apps.Redblack.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10 in
        List.iter
          (fun (pl : Pipeline.t) -> roundtrip b.Nsc_apps.Redblack.program pl.Pipeline.index)
          b.Nsc_apps.Redblack.program.Program.pipelines);
    case "the multigrid program round-trips" (fun () ->
        let b =
          Nsc_apps.Multigrid.build kb (Nsc_apps.Multigrid.grid1 17) ~cycles:1 ~nu1:1 ~nu2:1
            ~nu_coarse:2
        in
        List.iter
          (fun (pl : Pipeline.t) ->
            roundtrip b.Nsc_apps.Multigrid.program pl.Pipeline.index)
          b.Nsc_apps.Multigrid.program.Program.pipelines);
    case "decoding a non-instruction fails on the magic number" (fun () ->
        let w = Fields.fresh_word layout in
        match Decode.decode layout w with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "decoded garbage");
    case "two constants on one unit are unencodable" (fun () ->
        let pl, icon = pipeline_with Nsc_arch.Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 2.0)
               Nsc_arch.Opcode.Fadd)
        in
        let sem, _ = Semantic.of_pipeline params pl in
        match Encode.encode layout sem with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "encoded two constants");
    case "undefined operand sources do not decode" (fun () ->
        let word, g, _ = jacobi_constant_word () in
        List.iter
          (fun (port, code) ->
            let w = Word.copy word in
            Fields.set layout w (Printf.sprintf "fu%d.src_%s" g port) code;
            refused (Printf.sprintf "src_%s = %d" port code) w)
          [ ("a", 5); ("a", 6); ("a", 7); ("b", 5); ("b", 6); ("b", 7) ]);
    case "a constant port that misnames the constant does not decode" (fun () ->
        let word, g, port = jacobi_constant_word () in
        let other = if port = "a" then "b" else "a" in
        let flipped name v =
          let w = Word.copy word in
          Fields.set layout w (Printf.sprintf "fu%d.%s" g name) v;
          w
        in
        (* both operands read the one inline constant *)
        refused "two constants" (flipped ("src_" ^ other) Fields.src_const);
        (* the port names the other operand, no operand, or no port at all *)
        let wrong = if port = "a" then Fields.const_b else Fields.const_a in
        refused "other port" (flipped "const_port" wrong);
        refused "no port" (flipped "const_port" Fields.const_none);
        refused "undefined port" (flipped "const_port" 3);
        (* a port set on a unit that binds no constant *)
        let w = flipped ("src_" ^ port) Fields.src_switch in
        refused "port without a constant" w;
        Fields.set layout w (Printf.sprintf "fu%d.const_port" g) Fields.const_none;
        check_bool "clearing the port decodes again" true
          (Result.is_ok (Decode.decode layout w)));
  ]

let codegen_tests =
  [
    case "compile produces one instruction per pipeline" (fun () ->
        let prog, _ = vecadd_program () in
        match Codegen.compile kb prog with
        | Ok c ->
            check_int "instrs" 1 (List.length c.Codegen.instructions);
            check_bool "bits" true (Codegen.code_bits c >= 2000)
        | Error _ -> Alcotest.fail "compile failed");
    case "compile refuses a program with errors" (fun () ->
        let pl, icon = pipeline_with Nsc_arch.Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 1.0)
               Nsc_arch.Opcode.Iadd)
        in
        let prog = { (Program.empty "bad") with Program.pipelines = [ pl ] } in
        check_bool "refused" true (Result.is_error (Codegen.compile kb prog)));
    case "the listing names the operations and streams" (fun () ->
        let prog, _ = vecadd_program () in
        let c = Result.get_ok (Codegen.compile kb prog) in
        let listing = Listing.compiled_to_string c in
        let contains needle =
          let nh = String.length listing and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub listing i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "fadd" true (contains "fadd");
        check_bool "mem0" true (contains "mem0");
        check_bool "control" true (contains "control:"));
    case "hex listings dump the words" (fun () ->
        let prog, _ = vecadd_program () in
        let c = Result.get_ok (Codegen.compile kb prog) in
        check_bool "longer with hex" true
          (String.length (Listing.compiled_to_string ~hex:true c)
          > String.length (Listing.compiled_to_string c)));
  ]

let suite =
  [
    ("microcode:word", word_tests);
    ("microcode:fields", fields_tests);
    ("microcode:roundtrip", encode_tests);
    ("microcode:codegen", codegen_tests);
  ]

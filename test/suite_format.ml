(* The microinstruction format, pinned bit for bit.

   MD5 digests of every encoded word of three reference programs, and of
   the (name, offset, width) field list of the default and subset
   machines.  Any change to how fields are laid out, encoded or stored
   moves one of these digests; a deliberate format revision regenerates
   them by copying the "got" lists the failures print. *)

open Nsc_arch
open Nsc_diagram
open Nsc_microcode
open Util

let read_asset name =
  let path = Filename.concat "../examples/programs" name in
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let word_digests (c : Codegen.compiled) =
  List.map
    (fun (i : Encode.instruction) ->
      Printf.sprintf "%d:%s" i.Encode.index
        (Digest.to_hex (Digest.bytes i.Encode.word.Word.bytes)))
    c.Codegen.instructions

let check_digests what expected got =
  if expected <> got then
    Alcotest.failf "%s moved.\nexpected: [%s]\ngot:      [%s]" what
      (String.concat "; " (List.map (Printf.sprintf "%S") expected))
      (String.concat "; " (List.map (Printf.sprintf "%S") got))

let compile_exn prog =
  match Codegen.compile kb prog with
  | Ok c -> c
  | Error _ -> Alcotest.fail "codegen refused a reference program"

let layout_digest p =
  let layout = Fields.make p in
  List.map
    (fun (f : Fields.field) ->
      Printf.sprintf "%s %d %d\n" f.Fields.name f.Fields.offset f.Fields.width)
    layout.Fields.fields
  |> String.concat "" |> Digest.string |> Digest.to_hex

let tests =
  [
    case "the Jacobi n=9 words are pinned" (fun () ->
        let b = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 9) ~tol:1e-6 ~max_iters:10 in
        check_digests "Jacobi n=9 encoding"
          [
            "1:15e3de47b7df7ae8d1f831d9e2f2e9f7";
            "2:60c4a37468fed2afe88813806f80b827";
            "3:56302ca20199d853c12f8895bca66016";
          ]
          (word_digests (compile_exn b.Nsc_apps.Jacobi.program)));
    case "the multigrid_17.nsc words are pinned" (fun () ->
        let prog =
          match Serialize.of_string params (read_asset "multigrid_17.nsc") with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        check_digests "multigrid_17.nsc encoding"
          [
            "1:69af196966c03e6ec7908f61cb35a29c";
            "2:824f9270a160eaf697a2bb9fb93b180a";
            "3:e2d9ad0a5ef23e9a367a5af79a9e0824";
            "4:9836cb665ce13f03acd18310c6025d1b";
            "5:e80f3fd00b1d212225ab8f7acd2f2bb6";
            "6:f9525e6849b4fd7bead455ee905f1ff4";
            "7:1752902eb1a044883cb24012ebe12966";
            "8:2eb138b730b14adfb7078426f34921b7";
            "9:798c2bcabaff16156fae73e2533bf5b7";
            "10:e9974a32347009c7cf1a8ea7d46be855";
            "11:0fb17321958627a162155c9d8e705290";
            "12:ec1b94a2838a91fb34ec45d706b64758";
          ]
          (word_digests (compile_exn prog)));
    case "the jacobi1d.lang words are pinned" (fun () ->
        let prog =
          match Nsc_lang.Compile.compile kb (read_asset "jacobi1d.lang") with
          | Ok c -> c.Nsc_lang.Compile.program
          | Error e -> Alcotest.fail e.Nsc_lang.Compile.message
        in
        check_digests "jacobi1d.lang encoding"
          [
            "1:eead4b646061bfb713fdd50dbc076ed4";
            "2:6ab3381184e10fe379ca72e3de43cf84";
            "3:e6cf3665f6ae89dd5360f89231547f97";
            "4:17a663695b161049e36dd2cd583cb770";
          ]
          (word_digests (compile_exn prog)));
    case "the field layouts are pinned" (fun () ->
        check_digests "field layouts"
          [ "5789a6fd929c57060c74b64a4b8eccdb"; "f7279f3e356d5b280a0a9e19e90c2ef5" ]
          [ layout_digest Params.default; layout_digest Params.subset_model ]);
  ]

let suite = [ ("microcode:format", tests) ]

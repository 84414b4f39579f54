(* Layer-by-layer replay of one op: the public calls a solve makes,
   each inside its own span.  The checker pass, the microcode decode and
   the plan/kernel compiles run inside [Codegen.compile] and
   [Sequencer.run] as well; the replay also calls them on their own so
   that each layer's cost can be read off separately. *)

module Knowledge = Nsc_arch.Knowledge
module Codegen = Nsc_microcode.Codegen
module Sequencer = Nsc_sim.Sequencer

let diagnostics ds =
  String.concat "; "
    (List.map Nsc_checker.Diagnostic.to_string (Nsc_checker.Diagnostic.errors ds))

(* Checker, codegen, decode and per-instruction plan/kernel compiles of
   a visual program. *)
let compile spans ~op kb program =
  let sp name f = Spans.record spans ~op name f in
  ignore (sp "checker.check" (fun () -> Nsc_checker.Checker.check_program kb program));
  let compiled, words, _ =
    Measure.alloc_of (fun () -> sp "microcode.codegen" (fun () -> Codegen.compile kb program))
  in
  Spans.note spans "microcode.codegen_words" words;
  match compiled with
  | Error ds -> Error (diagnostics ds)
  | Ok c -> (
      let decoded =
        sp "microcode.decode" (fun () ->
            List.map
              (fun (i : Nsc_microcode.Encode.instruction) ->
                Nsc_microcode.Decode.decode c.Codegen.layout i.Nsc_microcode.Encode.word)
              c.Codegen.instructions)
      in
      match List.find_map (function Error e -> Some e | Ok _ -> None) decoded with
      | Some e -> Error ("decode: " ^ e)
      | None ->
          let params = Knowledge.params kb in
          List.iter
            (function
              | Ok sem ->
                  let plan = sp "sim.plan_compile" (fun () -> Nsc_sim.Plan.compile params sem) in
                  ignore (sp "sim.kernel_compile" (fun () -> Nsc_sim.Kernel.compile plan))
              | Error _ -> ())
            decoded;
          Ok c)

let node_create spans ~op kb =
  let node, _, major =
    Measure.alloc_of (fun () ->
        Spans.record spans ~op "sim.node_create" (fun () ->
            Nsc_sim.Node.create (Knowledge.params kb)))
  in
  Spans.note spans "sim.node_major_words" major;
  node

let run spans ~op ?plan_cache ?kernel_cache node compiled =
  let r, words, _ =
    Measure.alloc_of (fun () ->
        Spans.record spans ~op "sim.run" (fun () ->
            Sequencer.run node ?plan_cache ?kernel_cache compiled))
  in
  Spans.note spans "sim.run_words" words;
  r

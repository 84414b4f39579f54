(* Property-based tests (QCheck): random-input invariants over the core
   data structures and, most importantly, a fuzzer over the editor's event
   interpreter and a constructive generator of valid pipelines whose
   microcode must round-trip and execute identically from either form. *)

open Nsc_arch
open Nsc_diagram
open Util

module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A random *valid* pipeline, built constructively:
   - one to four ALS icons of random kinds,
   - each active slot programmed with a random legal opcode,
   - A ports of head slots wired from a random memory stream (distinct
     planes, so no port contention and no timing skew between streams),
   - B ports fed by constants (always alignment-safe),
   - chained slots use the internal chain on A,
   - min/max tail slots get a feedback loop on B,
   - the final icon's output written to a fresh plane. *)
let valid_pipeline_gen : Pipeline.t Gen.t =
  let open Gen in
  let* n_icons = int_range 1 4 in
  let* kinds =
    list_repeat n_icons (oneofl [ Als.Singlet; Als.Doublet; Als.Triplet ])
  in
  let* seed = int_range 0 1_000_000 in
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let pl = ref (Pipeline.empty 1) in
  let pl_set v = pl := v in
  let next_plane = ref 0 in
  let fresh_plane () =
    let p = !next_plane in
    incr next_plane;
    p
  in
  let vlen = 1 + Random.State.int rng 64 in
  pl_set (Pipeline.with_vector_length !pl vlen);
  let last_icon = ref None in
  List.iteri
    (fun i kind ->
      match
        Pipeline.place_als params !pl ~kind ~pos:(Geometry.point (4 + (i * 20)) 2) ()
      with
      | Error _ -> ()
      | Ok (icon, pl') ->
          pl_set pl';
          last_icon := Some icon;
          let als =
            match Pipeline.icon_kind !pl icon with
            | Some (Icon.Als_icon { als; _ }) -> als
            | _ -> assert false
          in
          let size = Resource.als_size params als in
          List.iter
            (fun slot ->
              let fu = { Resource.als; slot } in
              let legal =
                List.filter
                  (fun op -> Opcode.arity op >= 1)
                  (Knowledge.legal_opcodes kb fu)
              in
              let op = pick legal in
              let head = slot = 0 in
              let a_binding =
                if head then begin
                  (* wire a fresh memory stream to the A pad *)
                  let plane = fresh_plane () in
                  pl_set
                    (Build.mem_to_pad !pl ~plane ~var:"" ~offset:0 ~icon
                       ~pad:(Icon.In_pad (slot, Resource.A)) ());
                  Fu_config.From_switch
                end
                else Fu_config.From_chain
              in
              let b_binding =
                if Opcode.arity op = 1 then Fu_config.Unbound
                else if
                  Opcode.equal op Opcode.Max || Opcode.equal op Opcode.Min
                  (* a feedback loop keeps reductions alignment-free *)
                then Fu_config.From_feedback (1 + Random.State.int rng 4)
                else Fu_config.From_constant (Random.State.float rng 10.0 -. 5.0)
              in
              pl_set
                (Pipeline.set_config !pl ~id:icon ~slot
                   {
                     Fu_config.op = Some op;
                     a = a_binding;
                     b = b_binding;
                     delay_a = 0;
                     delay_b = 0;
                   }))
            (List.init size (fun s -> s)))
    kinds;
  (* write the last icon's tail output to a fresh plane *)
  (match !last_icon with
  | Some icon -> (
      match Pipeline.icon_kind !pl icon with
      | Some (Icon.Als_icon { als; _ }) ->
          let size = Resource.als_size params als in
          let plane = fresh_plane () in
          pl_set
            (Build.pad_to_mem !pl ~icon ~pad:(Icon.Out_pad (size - 1)) ~plane ~var:""
               ~offset:0 ())
      | _ -> ())
  | None -> ());
  (* memory specs above used var "" which is not resolvable: rebuild them
     as absolute addresses *)
  let fixed =
    {
      !pl with
      Pipeline.connections =
        List.map
          (fun (c : Connection.t) ->
            match c.Connection.spec with
            | Some spec -> { c with Connection.spec = Some { spec with Dma_spec.variable = None } }
            | None -> c)
          !pl.Pipeline.connections;
    }
  in
  return fixed

let checker_clean pl =
  not
    (Nsc_checker.Diagnostic.has_errors
       (Nsc_checker.Checker.check_pipeline kb ~level:`Complete pl))

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let arch_properties =
  [
    qcheck "gray code round-trips" Gen.(int_range 0 65535) (fun n ->
        Router.gray_inverse (Router.gray n) = n);
    qcheck "gray neighbours differ by one bit" Gen.(int_range 0 16382) (fun n ->
        let d = Router.gray n lxor Router.gray (n + 1) in
        d land (d - 1) = 0 && d <> 0);
    qcheck "e-cube routes never exceed the dimension"
      Gen.(tup2 (int_range 0 63) (int_range 0 63))
      (fun (a, b) ->
        List.length (Router.route ~dim:6 ~src:a ~dst:b) = Router.distance a b);
    qcheck "fu global index is a bijection" Gen.(int_range 0 31) (fun g ->
        Resource.fu_global_index params (Resource.fu_of_global_index params g) = g);
    qcheck "delay queues delay by exactly their depth"
      Gen.(tup2 (int_range 1 32) (list_size (int_range 40 80) (float_range (-100.) 100.)))
      (fun (depth, xs) ->
        let q = Register_file.make_queue depth in
        let out = List.map (Register_file.push q) xs in
        let expected =
          List.mapi
            (fun i _ -> if i < depth then 0.0 else List.nth xs (i - depth))
            xs
        in
        out = expected);
    qcheck "strided extents contain every generated address"
      Gen.(tup3 (int_range 0 1000) (int_range (-5) 5) (int_range 1 50))
      (fun (base, stride, count) ->
        let e = Memory.strided_extent ~plane:0 ~base ~stride ~count in
        List.for_all
          (fun i ->
            let a = base + (i * stride) in
            a >= e.Memory.lo && a < e.Memory.hi)
          (List.init count (fun i -> i)));
  ]

let word_properties =
  [
    qcheck "signed fields round-trip"
      Gen.(tup2 (int_range 2 30) (int_range (-1000) 1000))
      (fun (width, v) ->
        let v = max (-(1 lsl (width - 1))) (min v ((1 lsl (width - 1)) - 1)) in
        let w = Nsc_microcode.Word.create 64 in
        Nsc_microcode.Word.set_signed w ~offset:3 ~width v;
        Nsc_microcode.Word.get_signed w ~offset:3 ~width = v);
    qcheck "adjacent fields never interfere"
      Gen.(tup3 (int_range 1 20) (int_range 0 100000) (int_range 0 100000))
      (fun (w1, a, b) ->
        let a = a land ((1 lsl w1) - 1) in
        let b = b land 0xFFFF in
        let w = Nsc_microcode.Word.create 128 in
        Nsc_microcode.Word.set_int w ~offset:0 ~width:w1 a;
        Nsc_microcode.Word.set_int w ~offset:w1 ~width:16 b;
        Nsc_microcode.Word.get_int w ~offset:0 ~width:w1 = a
        && Nsc_microcode.Word.get_int w ~offset:w1 ~width:16 = b);
    qcheck "floats survive the word bit-exactly" Gen.(float_range (-1e30) 1e30)
      (fun f ->
        let w = Nsc_microcode.Word.create 80 in
        Nsc_microcode.Word.set_float w ~offset:16 f;
        Nsc_microcode.Word.get_float w ~offset:16 = f);
  ]

let layout = Nsc_microcode.Fields.make params

let pipeline_properties =
  [
    qcheck ~count:100 "random valid pipelines pass the complete checker"
      valid_pipeline_gen
      (fun pl -> checker_clean pl);
    qcheck ~count:100 "random valid pipelines round-trip the text format"
      valid_pipeline_gen
      (fun pl ->
        let prog = { (Program.empty "p") with Program.pipelines = [ pl ] } in
        let text = Serialize.to_string prog in
        match Serialize.of_string params text with
        | Ok prog' -> Serialize.to_string prog' = text
        | Error _ -> false);
    qcheck ~count:100 "random valid pipelines round-trip through microcode"
      valid_pipeline_gen
      (fun pl ->
        let sem, issues = Semantic.of_pipeline params pl in
        issues = []
        &&
        match Nsc_microcode.Encode.encode layout sem with
        | Error _ -> false
        | Ok instr -> (
            match Nsc_microcode.Decode.decode layout instr.Nsc_microcode.Encode.word with
            | Ok sem' -> Semantic.equal (Nsc_microcode.Encode.normalize sem) sem'
            | Error _ -> false));
    qcheck ~count:60 "microcode and semantic execution write identical memory"
      valid_pipeline_gen
      (fun pl ->
        let prog = { (Program.empty "p") with Program.pipelines = [ pl ] } in
        match Nsc_microcode.Codegen.compile kb prog with
        | Error _ -> true (* unencodable corner; covered by checker props *)
        | Ok c ->
            let run from_microcode =
              let node = Nsc_sim.Node.create params in
              (* deterministic input data in the planes the pipeline reads *)
              List.iter
                (fun plane ->
                  Nsc_sim.Node.load_array node ~plane ~base:0
                    (Array.init 80 (fun i -> float_of_int ((plane * 100) + i))))
                (List.init 16 (fun p -> p));
              match Nsc_sim.Sequencer.run node ~from_microcode c with
              | Ok _ ->
                  Some
                    (List.map
                       (fun plane -> Nsc_sim.Node.dump_array node ~plane ~base:0 ~len:80)
                       (List.init 16 (fun p -> p)))
              | Error _ -> None
            in
            run true = run false);
    qcheck ~count:100 "balancing leaves no timing errors on random pipelines"
      valid_pipeline_gen
      (fun pl ->
        let pl, _ = Nsc_checker.Balance.balance_pipeline kb pl in
        let ds = Nsc_checker.Checker.check_pipeline kb ~level:`Complete pl in
        not
          (List.exists
             (fun d ->
               Nsc_checker.Diagnostic.is_error d
               && Nsc_checker.Diagnostic.equal_rule d.Nsc_checker.Diagnostic.rule
                    Nsc_checker.Diagnostic.Timing)
             ds));
  ]

(* ------------------------------------------------------------------ *)
(* editor fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

let random_event_gen : Nsc_editor.Event.t Gen.t =
  let open Gen in
  let point =
    let* x = int_range (-5) (Nsc_editor.Layout.window_w + 5) in
    let* y = int_range (-5) (Nsc_editor.Layout.window_h + 5) in
    return (Geometry.point x y)
  in
  oneof
    [
      map (fun p -> Nsc_editor.Event.Mouse_down p) point;
      map (fun p -> Nsc_editor.Event.Mouse_move p) point;
      map (fun p -> Nsc_editor.Event.Mouse_up p) point;
      map (fun n -> Nsc_editor.Event.Menu_select n) (int_range 0 40);
      oneofl
        [
          Nsc_editor.Event.Menu_cancel;
          Nsc_editor.Event.Form_submit;
          Nsc_editor.Event.Form_cancel;
          Nsc_editor.Event.Key "Escape";
          Nsc_editor.Event.Key "x";
        ];
      map
        (fun (f, v) -> Nsc_editor.Event.Form_set (f, v))
        (tup2
           (oneofl [ "plane"; "cache"; "variable"; "offset"; "stride"; "value"; "depth"; "length"; "pipeline"; "to"; "mode"; "amount" ])
           (oneofl [ "0"; "3"; "-1"; "abc"; ""; "1.5"; "99999" ]));
    ]

let editor_fuzz =
  [
    qcheck ~count:60 "the editor survives arbitrary event storms with a valid program"
      Gen.(list_size (int_range 30 120) random_event_gen)
      (fun events ->
        let st =
          List.fold_left Nsc_editor.Editor.handle (Nsc_editor.State.create kb) events
        in
        (* invariants: the program stays structurally sound and the cursor
           stays on an existing pipeline *)
        Validate.program params st.Nsc_editor.State.program = []
        && Program.find_pipeline st.Nsc_editor.State.program st.Nsc_editor.State.current
           <> None);
    qcheck ~count:40 "fuzzed sessions replay deterministically"
      Gen.(list_size (int_range 10 40) random_event_gen)
      (fun events ->
        let script =
          String.concat "\n" (List.map Nsc_editor.Event.to_tokens events)
        in
        let r1 = Nsc_editor.Session.replay (Nsc_editor.State.create kb) script in
        let r2 = Nsc_editor.Session.replay (Nsc_editor.State.create kb) script in
        Serialize.to_string r1.Nsc_editor.Session.final.Nsc_editor.State.program
        = Serialize.to_string r2.Nsc_editor.Session.final.Nsc_editor.State.program);
  ]

let suite =
  [
    ("property:arch", arch_properties);
    ("property:word", word_properties);
    ("property:pipeline", pipeline_properties);
    ("property:editor-fuzz", editor_fuzz);
  ]

(* Bit-identity observation of one instruction on a freshly loaded node:
   every plane's image and the captured scalars as IEEE bit patterns (so
   NaN results compare equal to themselves, and signed zeros differ), the
   counters and the interrupt events in order. *)
let observe_on ~scale ~divisor exec =
  let node = Nsc_sim.Node.create params in
  List.iter
    (fun plane ->
      Nsc_sim.Node.load_array node ~plane ~base:0
        (Array.init 80 (fun i -> Float.of_int ((plane * scale) + i) /. divisor)))
    (List.init 16 (fun p -> p));
  let r : Nsc_sim.Engine.result = exec node in
  let mem =
    List.map
      (fun plane ->
        Array.map Int64.bits_of_float
          (Nsc_sim.Node.dump_array node ~plane ~base:0 ~len:80))
      (List.init 16 (fun p -> p))
  in
  ( mem,
    List.sort compare
      (List.map (fun (fu, v) -> (fu, Int64.bits_of_float v)) r.Nsc_sim.Engine.last_values),
    r.Nsc_sim.Engine.cycles,
    r.Nsc_sim.Engine.flops,
    r.Nsc_sim.Engine.writes,
    r.Nsc_sim.Engine.events )

(* appended: the one-shot entry point against the general evaluator *)
let engine_equivalence =
  [
    qcheck ~count:60 "fast and general evaluators write identical memory"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        let observe = observe_on ~scale:7 ~divisor:3.0 in
        observe (fun node -> Nsc_sim.Engine.run_general node ~record_trace:true sem)
        = observe (fun node -> Nsc_sim.Engine.run node ~record_trace:true sem));
  ]

let suite = suite @ [ ("property:engine-equivalence", engine_equivalence) ]

(* appended: compiled plans and their caches.  A plan's cached analysis
   must drive the general evaluator exactly as a fresh analysis does (the
   sequencer's [`General] engine relies on it), the kernel lowered from
   the plan must match both, and a kernel served from the cache must
   replay a fresh compile bit for bit. *)
let plan_equivalence =
  [
    qcheck ~count:60 "compiled plans match the general evaluator"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        let plan = Nsc_sim.Plan.compile params sem in
        let observe = observe_on ~scale:11 ~divisor:7.0 in
        let fresh = observe (fun node -> Nsc_sim.Engine.run_general node sem) in
        let cached_analysis =
          observe (fun node ->
              Nsc_sim.Engine.run_general node ~analysis:plan.Nsc_sim.Plan.analysis sem)
        in
        let kernel =
          observe (fun node ->
              Nsc_sim.Engine.run_kernel node (Nsc_sim.Kernel.compile plan))
        in
        fresh = cached_analysis && kernel = fresh);
    qcheck ~count:40 "cached plans replay identically to fresh compiles"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        let observe = observe_on ~scale:5 ~divisor:2.0 in
        let kcache = Nsc_sim.Kernel.make_cache () in
        let pcache = Nsc_sim.Plan.make_cache () in
        let fresh =
          observe (fun node ->
              Nsc_sim.Engine.run_kernel node
                (Nsc_sim.Kernel.compile (Nsc_sim.Plan.compile params sem)))
        in
        (* prime the caches, then the second lookup must hit and agree *)
        ignore (Nsc_sim.Kernel.cached kcache pcache params sem);
        let hits_before = Nsc_sim.Kernel.cache_hit_count () in
        let cached =
          observe (fun node ->
              Nsc_sim.Engine.run_kernel node
                (Nsc_sim.Kernel.cached kcache pcache params sem))
        in
        Nsc_sim.Kernel.cache_hit_count () = hits_before + 1 && cached = fresh);
  ]

let suite = suite @ [ ("property:plan-equivalence", plan_equivalence) ]

(* appended: the fused-kernel executor against the general evaluator —
   full bit identity including event order, clean and under a seeded
   fault model.  The model is re-created with the same seed before each
   run, so both consume an identical fault stream. *)
let kernel_equivalence =
  let observe = observe_on ~scale:13 ~divisor:5.0 in
  let kernel_exec sem node =
    Nsc_sim.Engine.run_kernel node
      (Nsc_sim.Kernel.compile (Nsc_sim.Plan.compile params sem))
  in
  let general_exec sem node = Nsc_sim.Engine.run_general node sem in
  [
    qcheck ~count:60 "fused kernels match the general evaluator"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        observe (kernel_exec sem) = observe (general_exec sem));
    qcheck ~count:40 "fused kernels match the general evaluator under seeded faults"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        let module F = Nsc_fault.Fault in
        let spec =
          match F.parse "fu-fault:p=0.05,dma-stall:p=0.05" with
          | Ok s -> s
          | Error e -> failwith e
        in
        let faulted exec =
          F.install (F.make ~seed:97 spec);
          Fun.protect ~finally:F.clear (fun () -> observe exec)
        in
        faulted (kernel_exec sem) = faulted (general_exec sem));
  ]

let suite = suite @ [ ("property:kernel-equivalence", kernel_equivalence) ]

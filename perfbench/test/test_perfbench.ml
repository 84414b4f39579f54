(* Checks of the benchmark's own parts: the seeded input generator and
   the metric catalogue against BENCHMARK.json. *)

module Json = Nsc_metrics.Json
module Poisson = Nsc_apps.Poisson
module Multigrid = Nsc_apps.Multigrid

let kb = Nsc_arch.Knowledge.default

let texts seed =
  [ Gen.serve_text (Gen.serve_mix seed);
    Gen.jacobi_text (Gen.jacobi_large seed);
    Gen.multigrid_text (Gen.multigrid_1d seed);
  ]

let arch_counts seed =
  let jobs = Gen.serve_mix seed in
  let source =
    Array.to_list jobs
    |> List.find_map (fun (j : Gen.job) ->
           match j.Gen.cls with Gen.Source { text; _ } -> Some text | _ -> None)
    |> Option.get
  in
  let compiled =
    match Nsc_lang.Compile.compile kb source with
    | Ok c -> Result.get_ok (Nsc_microcode.Codegen.compile kb c.Nsc_lang.Compile.program)
    | Error e -> Alcotest.fail e.Nsc_lang.Compile.message
  in
  let _, src =
    Counts.counted (fun () ->
        Nsc_sim.Sequencer.run (Nsc_sim.Node.create (Nsc_arch.Knowledge.params kb)) compiled)
  in
  let _, mg =
    Counts.counted (fun () ->
        Multigrid.solve kb (Gen.multigrid_1d seed).(0) ~cycles:Gen.mg_cycles ~nu1:Gen.mg_nu1
          ~nu2:Gen.mg_nu2 ~nu_coarse:Gen.mg_nu_coarse)
  in
  (src, mg)

let generator =
  [ Alcotest.test_case "one seed gives byte-identical inputs" `Quick (fun () ->
        List.iter2 (Alcotest.(check string) "same text") (texts 11) (texts 11));
    Alcotest.test_case "another seed gives other inputs" `Quick (fun () ->
        List.iter2
          (fun a b -> Alcotest.(check bool) "texts differ" false (String.equal a b))
          (texts 11) (texts 12));
    Alcotest.test_case "one seed gives identical simulated counts" `Quick (fun () ->
        let a = arch_counts 5 and b = arch_counts 5 in
        let ran c = Counts.get c "sim.cycles" > 0 in
        Alcotest.(check bool) "source job counts" true (fst a = fst b && ran (fst a));
        Alcotest.(check bool) "multigrid counts" true (snd a = snd b && ran (snd a)));
    Alcotest.test_case "every wave of the serve mix has the same class counts" `Quick (fun () ->
        let jobs = Gen.serve_mix 3 in
        Alcotest.(check int) "jobs" Gen.jobs_per_list (Array.length jobs);
        for w = 0 to Gen.waves - 1 do
          let wave = Array.sub jobs (w * Gen.wave) Gen.wave in
          let count p =
            Array.fold_left (fun n (j : Gen.job) -> if p j.Gen.cls then n + 1 else n) 0 wave
          in
          Alcotest.(check int) "faulted" Gen.per_wave_faulted
            (count (function Gen.Faulted _ -> true | _ -> false));
          Alcotest.(check int) "source" Gen.per_wave_source
            (count (function Gen.Source _ -> true | _ -> false))
        done);
  ]

let benchmark_json () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with Ok j -> j | Error e -> Alcotest.fail e

let listed j key =
  match Option.bind (Json.member key j) Json.to_list with
  | None -> Alcotest.fail (key ^ " missing")
  | Some l ->
      List.map
        (fun m ->
          let s k = Option.get (Option.bind (Json.member k m) Json.to_str) in
          (s "name", s "unit"))
        l

let catalogue =
  [ Alcotest.test_case "BENCHMARK.json lists the catalogued metrics" `Quick (fun () ->
        let j = benchmark_json () in
        let pair = Alcotest.(list (pair string string)) in
        Alcotest.check pair "end_to_end" Catalogue.end_to_end (listed j "end_to_end");
        Alcotest.check pair "per_layer" Catalogue.per_layer (listed j "per_layer"));
  ]

let () = Alcotest.run "perfbench" [ ("generator", generator); ("catalogue", catalogue) ]

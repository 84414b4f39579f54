(* The direct-solve workloads, jacobi_large and multigrid_1d: one domain
   calling the public solve entry point of lib/apps back to back.  An op
   is one solve. *)

module Json = Nsc_metrics.Json
module Knowledge = Nsc_arch.Knowledge
module Sequencer = Nsc_sim.Sequencer
module Jacobi = Nsc_apps.Jacobi
module Multigrid = Nsc_apps.Multigrid
module Poisson = Nsc_apps.Poisson
module Grid = Nsc_apps.Grid

type result = { sweeps : int option; u : float array; stats : Sequencer.stats }

(* What a solve keeps between ops: the knowledge base and the
   plan/kernel caches. *)
type state = {
  kb : Knowledge.t;
  plan_cache : Nsc_sim.Plan.cache;
  kernel_cache : Nsc_sim.Kernel.cache;
}

let fresh_state () =
  {
    kb = Knowledge.make_exn Nsc_arch.Params.default;
    plan_cache = Nsc_sim.Plan.make_cache ();
    kernel_cache = Nsc_sim.Kernel.make_cache ();
  }

type app = {
  inputs : int;
  passes : int;  (** passes over the inputs per round *)
  digest : string;
  solve : state -> int -> (result, string) Stdlib.result;
      (** the op: the public solve entry point on input [i] *)
  replay : state -> Spans.t -> op:int -> int -> (result, string) Stdlib.result;
      (** the same op, layer by layer *)
  host : int -> float array * int option;  (** host reference: solution, sweeps *)
  max_diff : int -> float array -> float array -> float;
}

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let jacobi seed =
  let probs = Gen.jacobi_large seed in
  let tol = Gen.jacobi_tol and max_iters = Gen.jacobi_max_iters in
  let of_outcome (o : Jacobi.outcome) =
    { sweeps = Some o.Jacobi.sweeps; u = o.Jacobi.u; stats = o.Jacobi.stats }
  in
  {
    inputs = Array.length probs;
    passes = 2;
    digest = Gen.digest (Gen.jacobi_text probs);
    solve =
      (fun st i ->
        Jacobi.solve st.kb ~plan_cache:st.plan_cache ~kernel_cache:st.kernel_cache probs.(i) ~tol
          ~max_iters
        |> Result.map of_outcome);
    replay =
      (fun st spans ~op i ->
        let p = probs.(i) in
        let b =
          Spans.record spans ~op "apps.build" (fun () ->
              Jacobi.build st.kb p.Poisson.grid ~tol ~max_iters)
        in
        match Layers.compile spans ~op st.kb b.Jacobi.program with
        | Error e -> Error e
        | Ok c ->
            let node = Layers.node_create spans ~op st.kb in
            Spans.record spans ~op "apps.load" (fun () -> Jacobi.load node b p);
            Layers.run spans ~op ~plan_cache:st.plan_cache ~kernel_cache:st.kernel_cache node c
            |> Result.map (fun (o : Sequencer.outcome) ->
                   let stats = o.Sequencer.stats in
                   {
                     (* setup, then sweep and refresh alternate *)
                     sweeps = Some ((stats.Sequencer.instructions_executed - 1) / 2);
                     u =
                       Spans.record spans ~op "apps.solution" (fun () ->
                           Jacobi.solution node b p.Poisson.grid);
                     stats;
                   }));
    host =
      (fun i ->
        let u, sweeps, _ = Poisson.host_solve probs.(i) ~tol ~max_iters in
        (u, Some sweeps));
    max_diff = (fun i a b -> Grid.max_diff probs.(i).Poisson.grid a b);
  }

let multigrid seed =
  let probs = Gen.multigrid_1d seed in
  let cycles = Gen.mg_cycles and nu1 = Gen.mg_nu1 and nu2 = Gen.mg_nu2 in
  let nu_coarse = Gen.mg_nu_coarse in
  {
    inputs = Array.length probs;
    passes = 8;
    digest = Gen.digest (Gen.multigrid_text probs);
    solve =
      (fun st i ->
        Multigrid.solve st.kb probs.(i) ~cycles ~nu1 ~nu2 ~nu_coarse
        |> Result.map (fun (o : Multigrid.outcome) ->
               { sweeps = None; u = o.Multigrid.u; stats = o.Multigrid.stats }));
    replay =
      (fun st spans ~op i ->
        let p = probs.(i) in
        let b =
          Spans.record spans ~op "apps.build" (fun () ->
              Multigrid.build st.kb p.Multigrid.grid ~cycles ~nu1 ~nu2 ~nu_coarse)
        in
        match Layers.compile spans ~op st.kb b.Multigrid.program with
        | Error e -> Error e
        | Ok c ->
            let node = Layers.node_create spans ~op st.kb in
            let l = b.Multigrid.layout in
            Spans.record spans ~op "apps.load" (fun () ->
                Nsc_sim.Node.load_array node ~plane:l.Multigrid.f ~base:0 p.Multigrid.f;
                Nsc_sim.Node.load_array node ~plane:l.Multigrid.mask_f ~base:0
                  (Multigrid.mask1 b.Multigrid.fine);
                Nsc_sim.Node.load_array node ~plane:l.Multigrid.mask_c ~base:0
                  (Multigrid.mask1 b.Multigrid.coarse));
            (* Multigrid.solve keeps no caches between solves *)
            Layers.run spans ~op node c
            |> Result.map (fun (o : Sequencer.outcome) ->
                   {
                     sweeps = None;
                     u =
                       Spans.record spans ~op "apps.solution" (fun () ->
                           Nsc_sim.Node.dump_array node ~plane:l.Multigrid.u_c ~base:0
                             ~len:(Multigrid.words1 b.Multigrid.fine));
                     stats = o.Sequencer.stats;
                   }));
    host =
      (fun i -> (Multigrid.host_solve probs.(i) ~cycles ~nu1 ~nu2 ~nu_coarse, None));
    max_diff = (fun _ a b -> max_abs_diff a b);
  }

(* The bound test/suite_apps.ml holds NSC solves to against the host. *)
let tolerance = 1e-12

let same_stats (a : Sequencer.stats) (b : Sequencer.stats) =
  a.Sequencer.total_cycles = b.Sequencer.total_cycles
  && a.Sequencer.total_flops = b.Sequencer.total_flops
  && a.Sequencer.instructions_executed = b.Sequencer.instructions_executed

let run (r : Report.t) app ~seconds ~trace =
  (* references and simulated counts, outside set-up and the windows *)
  let refs = Array.init app.inputs app.host in
  let counted =
    Array.init app.inputs (fun i -> Counts.counted (fun () -> app.solve (fresh_state ()) i))
  in
  let sim_mismatches = ref 0 in
  let check ~what i res =
    let fail msg =
      Report.problem r (Printf.sprintf "%s input %d: %s" what i msg);
      false
    in
    match res with
    | Error e -> fail e
    | Ok o ->
        let u_ref, sweeps_ref = refs.(i) in
        let ok_sweeps = sweeps_ref = None || o.sweeps = sweeps_ref in
        let d = app.max_diff i o.u u_ref in
        let ok_stats =
          match fst counted.(i) with Ok c -> same_stats o.stats c.stats | Error _ -> false
        in
        if not ok_stats then incr sim_mismatches;
        if not ok_sweeps then fail "sweep count differs from the host reference"
        else if not (d <= tolerance) then fail (Printf.sprintf "max |u - u_host| = %g" d)
        else if not ok_stats then fail "simulated counts differ from the counted run"
        else true
  in
  let counts =
    Array.mapi
      (fun i (res, c) ->
        ignore (check ~what:"counted" i res);
        (match res with
        | Ok o when o.stats.Sequencer.total_cycles <> Counts.machine_cycles c ->
            Report.problem r "simulated cycle counters disagree with the sequencer's total"
        | _ -> ());
        c)
      counted
  in
  let step st ~what i =
    let res, dt = Measure.time (fun () -> app.solve st i) in
    let ok = check ~what i res in
    let cycles = match res with Ok o -> o.stats.Sequencer.total_cycles | Error _ -> 0 in
    [ { Window.latency = dt; ok; cycles } ]
  in
  (* set-up: knowledge base, caches and the cold first solve *)
  let setup_s, (st, _) =
    Window.setup
      ~finish:(fun ~kept:_ (_, res) -> ignore (check ~what:"setup" 0 res))
      (fun () ->
        let st = fresh_state () in
        (st, app.solve st 0))
  in
  for i = 0 to app.inputs - 1 do
    ignore (step st ~what:"warm-up" i)
  done;
  let params = Knowledge.params st.kb in
  Report.detail r "input_digest" (Json.Str app.digest);
  Report.detail r "inputs" (Json.Num (float app.inputs));
  let round f () = Window.run ~passes:app.passes ~batches:app.inputs f in
  if not trace then begin
    let ws = Window.repeat ~seconds (round (step st ~what:"op")) in
    Report.set r "setup_s" setup_s;
    Window.report_end_to_end r ws ~params ~counts
  end
  else begin
    let spans = Spans.create () in
    let elements = ref 0 and instructions = ref 0 and op = ref 0 in
    let replay i =
      let id = !op in
      incr op;
      let res, dt =
        Measure.time (fun () ->
            Spans.record spans ~op:id "op" (fun () -> app.replay st spans ~op:id i))
      in
      let ok = check ~what:"replay" i res in
      let cycles =
        match res with
        | Ok o ->
            elements := !elements + Counts.get counts.(i) "sim.elements";
            instructions := !instructions + o.stats.Sequencer.instructions_executed;
            o.stats.Sequencer.total_cycles
        | Error _ -> 0
      in
      [ { Window.latency = dt; ok; cycles } ]
    in
    (* untraced and traced rounds alternate, so both see the same host *)
    let pairs =
      Window.repeat ~seconds (fun () ->
          let u = round (step st ~what:"op") () in
          (u, round replay ()))
    in
    let untraced = List.map fst pairs and traced = List.map snd pairs in
    Window.count_ops r (untraced @ traced);
    Window.report_host r untraced;
    Window.report_spans r spans ~ops:(Window.total_attempted traced);
    Window.report_arch r counts;
    Window.report_trace r spans ~untraced ~traced ~elements:!elements ~instructions:!instructions;
    Report.set r "trace.sim_counts_identical" (if !sim_mismatches = 0 then 1.0 else 0.0);
    r.Report.spans <- [ ("replay", Spans.to_json spans) ]
  end;
  if !sim_mismatches > 0 then Report.problem r "simulated counts differ between runs of one input"

(* The serve_mix workload: one client drives an in-process serve daemon
   through its request-line entry points ([Serve.handle_line] and
   [Serve.drain]), [Gen.wave] jobs outstanding per wave.  An op is one
   job, timed from its submit line to its response line. *)

module Json = Nsc_metrics.Json
module Metrics = Nsc_metrics.Metrics
module Knowledge = Nsc_arch.Knowledge
module Serve = Nsc_serve.Serve
module Protocol = Nsc_serve.Protocol
module Fault = Nsc_fault.Fault
module Sequencer = Nsc_sim.Sequencer
module Jacobi = Nsc_apps.Jacobi
module Poisson = Nsc_apps.Poisson

(* Plan/kernel cache bound of the server: at or above the mix's
   footprint (checked below), so the caches reach a steady state. *)
let cache_bound = 64

let num i = Json.Num (float i)

(* Response fields a job's result must reproduce exactly. *)
let jacobi_fields ~n ~sweeps ~residual (st : Sequencer.stats) =
  [ ("kind", Json.Str "jacobi");
    ("n", num n);
    ("sweeps", num sweeps);
    ("residual", Json.Num residual);
    ("instructions", num st.Sequencer.instructions_executed);
    ("cycles", num st.Sequencer.total_cycles);
    ("flops", num st.Sequencer.total_flops);
  ]

let source_fields ~halted (st : Sequencer.stats) =
  [ ("kind", Json.Str "source");
    ("halted", Json.Bool halted);
    ("instructions", num st.Sequencer.instructions_executed);
    ("cycles", num st.Sequencer.total_cycles);
    ("flops", num st.Sequencer.total_flops);
  ]

type expect = {
  fields : (string * Json.t) list;
  counts : Counts.t;
  ledger : (string * int) list;  (* fault ledger; [] for a clean job *)
}

let ledger_get l k = Option.value ~default:0 (List.assoc_opt k l)

(* Run [f] under a job's fault model exactly as the daemon does:
   install, run, book outstanding faults, read the ledger, clear. *)
let under_faults ~spec ~seed f =
  let fspec = match Fault.parse spec with Ok s -> s | Error e -> failwith e in
  Fault.install (Fault.make ~seed fspec);
  Fun.protect ~finally:Fault.clear (fun () ->
      let r = f () in
      ignore (Fault.reconcile ());
      (r, List.filter (fun (_, v) -> v <> 0) (Fault.ledger ())))

let ok_exn what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* The direct run of one job under its own metric context: the
   reference its response is checked against. *)
let expect_of kb (job : Gen.job) =
  let jacobi n tol =
    let o, counts =
      Counts.counted (fun () ->
          Jacobi.solve kb (Poisson.manufactured n) ~tol ~max_iters:Gen.serve_max_iters)
    in
    let o = ok_exn "direct Jacobi.solve" o in
    (o, counts)
  in
  match job.Gen.cls with
  | Gen.Jacobi { n; tol } ->
      let o, counts = jacobi n tol in
      { fields =
          jacobi_fields ~n ~sweeps:o.Jacobi.sweeps ~residual:o.Jacobi.final_change o.Jacobi.stats;
        counts;
        ledger = [];
      }
  | Gen.Faulted { n; tol; spec; fault_seed } ->
      let clean, _ = jacobi n tol in
      let (o, counts), ledger = under_faults ~spec ~seed:fault_seed (fun () -> jacobi n tol) in
      if
        o.Jacobi.sweeps <> clean.Jacobi.sweeps
        || o.Jacobi.final_change <> clean.Jacobi.final_change
      then failwith (job.Gen.id ^ ": faulted direct solve differs from the clean solve");
      { fields =
          jacobi_fields ~n ~sweeps:clean.Jacobi.sweeps ~residual:clean.Jacobi.final_change
            o.Jacobi.stats;
        counts;
        ledger;
      }
  | Gen.Source { text; _ } ->
      let o, counts =
        Counts.counted (fun () ->
            let c =
              Nsc_lang.Compile.compile kb ~name:job.Gen.id text
              |> Result.map_error (fun e -> e.Nsc_lang.Compile.message)
              |> ok_exn "compile"
            in
            let compiled =
              Nsc_microcode.Codegen.compile kb c.Nsc_lang.Compile.program
              |> Result.map_error Layers.diagnostics |> ok_exn "codegen"
            in
            Sequencer.run (Nsc_sim.Node.create (Knowledge.params kb)) compiled |> ok_exn "run")
      in
      { fields = source_fields ~halted:o.Sequencer.halted o.Sequencer.stats; counts; ledger = [] }

(* The host reference behind the built-in Jacobi jobs: the direct NSC
   solve must reproduce the host iteration. *)
let check_against_host kb n =
  let prob = Poisson.manufactured n in
  let u, sweeps, _ = Poisson.host_solve prob ~tol:Gen.serve_tol ~max_iters:Gen.serve_max_iters in
  match Jacobi.solve kb prob ~tol:Gen.serve_tol ~max_iters:Gen.serve_max_iters with
  | Ok o ->
      o.Jacobi.sweeps = sweeps
      && Nsc_apps.Grid.max_diff prob.Poisson.grid o.Jacobi.u u <= Direct.tolerance
  | Error _ -> false

(* Distinct (instruction index, vector length) plan-cache keys of the
   mix, and keys shared by two different pipelines. *)
let footprint kb (jobs : Gen.job array) =
  let keys = Hashtbl.create 32 and clashes = ref 0 in
  let add (c : Nsc_microcode.Codegen.compiled) =
    List.iter
      (fun (s : Nsc_diagram.Semantic.t) ->
        let key = (s.Nsc_diagram.Semantic.index, s.Nsc_diagram.Semantic.vector_length) in
        match Hashtbl.find_opt keys key with
        | Some s' when not (Nsc_diagram.Semantic.equal s s') -> incr clashes
        | Some _ -> ()
        | None -> Hashtbl.replace keys key s)
      c.Nsc_microcode.Codegen.semantics
  in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (j : Gen.job) ->
      let program =
        match j.Gen.cls with
        | Gen.Jacobi { n; tol } | Gen.Faulted { n; tol; _ } ->
            (Jacobi.build kb (Nsc_apps.Grid.cube n) ~tol ~max_iters:Gen.serve_max_iters)
              .Jacobi.program
        | Gen.Source { text; _ } ->
            (ok_exn "compile"
               (Result.map_error (fun e -> e.Nsc_lang.Compile.message)
                  (Nsc_lang.Compile.compile kb text)))
              .Nsc_lang.Compile.program
      in
      let key = Nsc_diagram.Program.show program in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        Nsc_microcode.Codegen.compile kb program
        |> Result.map_error Layers.diagnostics |> ok_exn "codegen" |> add
      end)
    jobs;
  (Hashtbl.length keys, !clashes)

type counters = { mutable sim_mismatches : int; mutable rejected : int; mutable submitted : int }

(* Check one response line against its job's expectation. *)
let check_response r tally (job : Gen.job) (exp : expect) line =
  let fail msg =
    Report.problem r (Printf.sprintf "%s: %s" job.Gen.id msg);
    (false, 0)
  in
  match Json.parse line with
  | Error e -> fail ("unparseable response: " ^ e)
  | Ok j -> (
      let str k = Option.bind (Json.member k j) Json.to_str in
      match str "status" with
      | Some "ok" -> (
          match List.find_opt (fun (k, v) -> Json.member k j <> Some v) exp.fields with
          | Some (k, _) -> fail (Printf.sprintf "field %s differs from the direct run" k)
          | None ->
              let counts =
                Counts.of_json (Option.value ~default:(Json.Obj []) (Json.member "counters" j))
              in
              let faults = Option.value ~default:(Json.Obj []) (Json.member "faults" j) in
              let int_of o k =
                Option.fold ~none:0 ~some:int_of_float (Option.bind (Json.member k o) Json.to_num)
              in
              let fault = int_of faults and cycles = int_of j "cycles" in
              if counts <> exp.counts then begin
                tally.sim_mismatches <- tally.sim_mismatches + 1;
                fail "simulated counts differ from the direct run"
              end
              else if exp.ledger <> [] && fault "unrecovered" <> 0 then fail "unrecovered faults"
              else if
                List.exists (fun (k, v) -> fault k <> v) exp.ledger
              then fail "fault ledger differs from the direct run"
              else (true, cycles))
      | Some "rejected" ->
          tally.rejected <- tally.rejected + 1;
          fail "rejected"
      | _ -> fail ("error response: " ^ line))

let config domains = { Serve.default_config with Serve.domains; cache_bound }

(* One wave through the real server: submit every job of wave [b], then
   drain.  With [spans], each public call runs inside a span, and the
   request line is also parsed on its own ([Protocol.parse_request]). *)
let wave r tally ?spans server (jobs : Gen.job array) (expects : expect array) ~queue_waits b =
  let first = b * Gen.wave in
  let k = min Gen.wave (Array.length jobs - first) in
  let around ~op name f = match spans with Some t -> Spans.record t ~op name f | None -> f () in
  let sent = Array.make k 0.0 and admitted = Array.make k 0.0 in
  let lines = ref [] in
  for i = 0 to k - 1 do
    let job = jobs.(first + i) in
    let op = tally.submitted in
    sent.(i) <- Measure.now ();
    if spans <> None then
      ignore (around ~op "serve.parse" (fun () -> Protocol.parse_request job.Gen.line));
    lines :=
      List.rev_append
        (around ~op "serve.admit" (fun () -> Serve.handle_line server job.Gen.line))
        !lines;
    admitted.(i) <- Measure.now ();
    tally.submitted <- tally.submitted + 1
  done;
  let start = Measure.now () in
  lines := List.rev_append (around ~op:(-1) "serve.wave" (fun () -> Serve.drain server)) !lines;
  let stop = Measure.now () in
  Array.iter (fun a -> queue_waits := (start -. a) :: !queue_waits) admitted;
  let by_id = Hashtbl.create Gen.wave in
  List.iter
    (fun line ->
      match Option.bind (Result.to_option (Json.parse line)) (Json.member "id") with
      | Some (Json.Str id) -> Hashtbl.replace by_id id line
      | _ -> ())
    !lines;
  List.init k (fun i ->
      let job = jobs.(first + i) in
      let ok, cycles =
        match Hashtbl.find_opt by_id job.Gen.id with
        | Some line -> check_response r tally job expects.(first + i) line
        | None ->
            Report.problem r (job.Gen.id ^ ": no response");
            (false, 0)
      in
      { Window.latency = stop -. sent.(i); ok; cycles })

(* One job replayed layer by layer through the calls the daemon's job
   execution makes, under a fresh enabled metric context as the daemon
   runs it.  The resulting fields and counts. *)
let replay_job spans ~op kb ~plan_cache ~kernel_cache (job : Gen.job) =
  let sp name f = Spans.record spans ~op name f in
  ignore (sp "serve.parse" (fun () -> Protocol.parse_request job.Gen.line));
  let jctx = Metrics.create ~label:job.Gen.id () in
  Metrics.enable jctx;
  let jacobi n tol =
    let prob = sp "apps.problem" (fun () -> Poisson.manufactured n) in
    let b =
      sp "apps.build" (fun () ->
          Jacobi.build kb prob.Poisson.grid ~tol ~max_iters:Gen.serve_max_iters)
    in
    let c = ok_exn "codegen" (Layers.compile spans ~op kb b.Jacobi.program) in
    let node = Layers.node_create spans ~op kb in
    sp "apps.load" (fun () -> Jacobi.load node b prob);
    let o = ok_exn "run" (Layers.run spans ~op ~plan_cache ~kernel_cache node c) in
    ignore (sp "apps.solution" (fun () -> Jacobi.solution node b prob.Poisson.grid));
    let st = o.Sequencer.stats in
    let residual =
      List.assoc_opt b.Jacobi.residual_unit o.Sequencer.last_values
      |> Option.value ~default:Float.nan
    in
    jacobi_fields ~n ~sweeps:((st.Sequencer.instructions_executed - 1) / 2) ~residual st
  in
  let fields, ledger =
    Fun.protect
      ~finally:(fun () -> Metrics.disable jctx)
      (fun () ->
        Metrics.with_ctx jctx (fun () ->
            match job.Gen.cls with
            | Gen.Jacobi { n; tol } -> (jacobi n tol, [])
            | Gen.Faulted { n; tol; spec; fault_seed } ->
                sp "fault.job" (fun () ->
                    under_faults ~spec ~seed:fault_seed (fun () -> jacobi n tol))
            | Gen.Source { text; _ } ->
                let c =
                  sp "lang.compile" (fun () -> Nsc_lang.Compile.compile kb ~name:job.Gen.id text)
                  |> Result.map_error (fun e -> e.Nsc_lang.Compile.message)
                  |> ok_exn "compile"
                in
                let compiled =
                  ok_exn "codegen" (Layers.compile spans ~op kb c.Nsc_lang.Compile.program)
                in
                let node = Layers.node_create spans ~op kb in
                let o =
                  ok_exn "run" (Layers.run spans ~op ~plan_cache ~kernel_cache node compiled)
                in
                (source_fields ~halted:o.Sequencer.halted o.Sequencer.stats, [])))
  in
  (fields, Counts.of_ctx jctx, ledger)

let run (r : Report.t) ~seed ~seconds ~trace ~domains =
  let jobs = Gen.serve_mix seed in
  let kb = Knowledge.default in
  let params = Knowledge.params kb in
  (* references, counts and the cache footprint, outside set-up and the
     windows *)
  Array.to_list jobs
  |> List.filter_map (fun (j : Gen.job) ->
         match j.Gen.cls with
         | Gen.Jacobi { n; _ } | Gen.Faulted { n; _ } -> Some n
         | Gen.Source _ -> None)
  |> List.sort_uniq compare
  |> List.iter (fun n ->
         if not (check_against_host kb n) then
           Report.problem r (Printf.sprintf "direct n=%d solve differs from the host reference" n));
  let expects = Array.map (expect_of kb) jobs in
  let footprint, clashes = footprint kb jobs in
  if footprint > cache_bound then Report.problem r "cache bound below the mix's plan footprint";
  let counts = Array.map (fun e -> e.counts) expects in
  let batches = (Array.length jobs + Gen.wave - 1) / Gen.wave in
  let tally = { sim_mismatches = 0; rejected = 0; submitted = 0 } in
  (* set-up: knowledge base, server and caches, and the cold first job *)
  let setup_s, (server, _) =
    Window.setup
      ~finish:(fun ~kept (server, lines) ->
        (match lines with
        | [ line ] -> ignore (check_response r tally jobs.(0) expects.(0) line)
        | _ -> Report.problem r "set-up job: expected one response");
        if not kept then Metrics.disable (Serve.metrics server))
      (fun () ->
        let server = Serve.create ~config:(config domains) () in
        let admitted = Serve.handle_line server jobs.(0).Gen.line in
        (server, admitted @ Serve.drain server))
  in
  for b = 0 to batches - 1 do
    ignore (wave r tally server jobs expects ~queue_waits:(ref []) b)
  done;
  Report.detail r "input_digest" (Json.Str (Gen.digest (Gen.serve_text jobs)));
  Report.detail r "inputs" (Json.Num (float (Array.length jobs)));
  Report.detail r "cache"
    (Json.Obj
       [ ("bound", num cache_bound); ("footprint", num footprint); ("key_clashes", num clashes) ]);
  let untraced () =
    Window.run ~passes:1 ~batches (wave r tally server jobs expects ~queue_waits:(ref []))
  in
  if not trace then begin
    let ws = Window.repeat ~seconds untraced in
    Report.set r "setup_s" setup_s;
    Window.report_end_to_end r ws ~params ~counts
  end
  else begin
    let submitted0 = tally.submitted and rejected0 = tally.rejected in
    (* the real server with each public call in a span, and the same
       jobs replayed layer by layer *)
    let server_spans = Spans.create () and waits = ref [] in
    let spans = Spans.create () in
    let plan_cache = Nsc_sim.Plan.make_cache ~bound:cache_bound () in
    let kernel_cache = Nsc_sim.Kernel.make_cache ~bound:cache_bound () in
    let op = ref 0 and elements = ref 0 and instructions = ref 0 in
    let replay i =
      let id = !op in
      incr op;
      let job = jobs.(i) and exp = expects.(i) in
      let res, dt =
        Measure.time (fun () ->
            Spans.record spans ~op:id "op" (fun () ->
                try Ok (replay_job spans ~op:id kb ~plan_cache ~kernel_cache job)
                with Failure e -> Error e))
      in
      let ok, cycles =
        match res with
        | Error e ->
            Report.problem r (job.Gen.id ^ " replay: " ^ e);
            (false, 0)
        | Ok (fields, c, ledger) ->
            if c <> exp.counts then tally.sim_mismatches <- tally.sim_mismatches + 1;
            elements := !elements + Counts.get c "sim.elements";
            instructions := !instructions + Counts.get c "sim.instructions";
            let ok = fields = exp.fields && c = exp.counts && ledger = exp.ledger in
            if not ok then Report.problem r (job.Gen.id ^ " replay differs from the direct run");
            (ok, Counts.machine_cycles c)
      in
      [ { Window.latency = dt; ok; cycles } ]
    in
    (* the three kinds of round alternate, so all see the same host *)
    let triples =
      Window.repeat ~seconds (fun () ->
          let u = untraced () in
          let t =
            Window.run ~passes:1 ~batches
              (wave r tally ~spans:server_spans server jobs expects ~queue_waits:waits)
          in
          (u, t, Window.run ~passes:1 ~batches:(Array.length jobs) replay))
    in
    let untraced = List.map (fun (u, _, _) -> u) triples in
    let traced = List.map (fun (_, t, _) -> t) triples in
    let replayed = List.map (fun (_, _, p) -> p) triples in
    Window.count_ops r (untraced @ traced @ replayed);
    Window.report_host r untraced;
    let us name = Spans.mean_us server_spans name in
    Report.set r "serve.parse_us" (us "serve.parse");
    Report.set r "serve.admit_us" (us "serve.admit");
    Report.set r "serve.wave_ms" (us "serve.wave" /. 1e3);
    Report.set r "serve.queue_wait_ms" (Measure.mean !waits *. 1e3);
    Report.set r "serve.rejected_ratio"
      (Measure.ratio (float (tally.rejected - rejected0)) (float (tally.submitted - submitted0)));
    Window.report_spans r spans ~ops:(Window.total_attempted replayed);
    Window.report_arch r counts;
    Window.report_trace r spans ~untraced ~traced ~elements:!elements ~instructions:!instructions;
    let faulted = Array.to_list expects |> List.filter (fun e -> e.ledger <> []) in
    let total k = float (List.fold_left (fun a e -> a + ledger_get e.ledger k) 0 faulted) in
    Report.set r "fault.injected_per_job"
      (Measure.ratio (total "fault.injected") (float (List.length faulted)));
    Report.set r "fault.recovered_ratio"
      (Measure.ratio (total "fault.recovered") (total "fault.injected"));
    Report.set r "trace.sim_counts_identical" (if tally.sim_mismatches = 0 then 1.0 else 0.0);
    r.Report.spans <- [ ("server", Spans.to_json server_spans); ("replay", Spans.to_json spans) ]
  end;
  if tally.sim_mismatches > 0 then
    Report.problem r "simulated counts differ between runs of one job"

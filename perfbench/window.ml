(* The closed loop shared by every workload: run batches of ops back to
   back, each batch only after the previous one has returned, in rounds
   of a fixed number of passes over the generated inputs. *)

module Json = Nsc_metrics.Json
module Stats = Nsc_sim.Stats

type sample = { latency : float; ok : bool; cycles : int }

type host_counters = {
  kernel_hits : int;
  kernel_compiles : int;
  pool_hits : int;
  pool_misses : int;
  evictions : int;
}

let host_counters () =
  {
    kernel_hits = Stats.kernel_cache_hits ();
    kernel_compiles = Stats.kernel_compiles ();
    pool_hits = Stats.kernel_pool_hits ();
    pool_misses = Stats.kernel_pool_misses ();
    evictions = Stats.cache_evictions ();
  }

type t = {
  wall : float;
  samples : sample array;
  gc : Measure.gc;
  peak_heap_mb : float;
  host : host_counters;  (* deltas over the window *)
}

let attempted w = Array.length w.samples
let ok w = Array.fold_left (fun n s -> if s.ok then n + 1 else n) 0 w.samples
let ops_per_s w = float (ok w) /. w.wall

(* One round: [passes] passes over the [batches] batches.  [step b] runs
   batch [b] and returns one sample per op. *)
let run ~passes ~batches step =
  let samples = ref [] in
  let h0 = host_counters () in
  let g0 = Measure.gc () in
  let t0 = Measure.now () in
  for b = 0 to (passes * batches) - 1 do
    samples := List.rev_append (step (b mod batches)) !samples
  done;
  let wall = Measure.now () -. t0 in
  let gc = Measure.gc_diff g0 (Measure.gc ()) in
  let peak_heap_mb = Measure.peak_heap_mb () in
  let h1 = host_counters () in
  {
    wall;
    samples = Array.of_list (List.rev !samples);
    gc;
    peak_heap_mb;
    host =
      {
        kernel_hits = h1.kernel_hits - h0.kernel_hits;
        kernel_compiles = h1.kernel_compiles - h0.kernel_compiles;
        pool_hits = h1.pool_hits - h0.pool_hits;
        pool_misses = h1.pool_misses - h0.pool_misses;
        evictions = h1.evictions - h0.evictions;
      };
  }

(* Set-up [f] timed at least 5 times and for at least a second (at most
   100 times); the median time and the last instance.  [finish] runs
   untimed on every instance: it checks it, and releases one that is not
   kept.  Each set-up starts from a collected heap, as in a fresh
   process, so that no set-up pays for its predecessors' garbage. *)
let setup ~finish f =
  let t_start = Measure.now () in
  let timed () =
    Gc.full_major ();
    Measure.time f
  in
  let rec go times last =
    let k = List.length times in
    if k >= 5 && (k >= 100 || Measure.now () -. t_start >= 1.0) then
      (Measure.median (Array.of_list times), last)
    else begin
      finish ~kept:false last;
      let x, dt = timed () in
      go (dt :: times) x
    end
  in
  let first, dt = timed () in
  let s, last = go [ dt ] first in
  finish ~kept:true last;
  (s, last)

(* A run's timed window is a sequence of short rounds of equal work
   (a quarter to half a second each).  Other tenants of a shared host
   slow a run by up to 1.8x for seconds or minutes at a time, so rates
   and latencies come from the best round (highest ops_per_s): best-of-N
   within one run.  Counts, allocation and the ok ratio cover every
   round. *)

(* Rounds until [seconds] have passed; [round ()] runs one round (or one
   group of interleaved rounds). *)
let repeat ~seconds round =
  let t0 = Measure.now () in
  let rec go acc =
    if acc <> [] && Measure.now () -. t0 >= seconds then List.rev acc else go (round () :: acc)
  in
  go []

let best ws = List.fold_left (fun b w -> if ops_per_s w > ops_per_s b then w else b) (List.hd ws) ws

let total_attempted ws = List.fold_left (fun n w -> n + attempted w) 0 ws
let total_ok ws = List.fold_left (fun n w -> n + ok w) 0 ws

(* Record the ops of [ws] as attempted and failed. *)
let count_ops r ws =
  Report.ops r ~attempted:(total_attempted ws) ~failed:(total_attempted ws - total_ok ws)

(* The end-to-end metrics of the untraced rounds [ws]; [counts] holds the
   simulated counts of every generated input, one entry per input. *)
let report_end_to_end r ws ~params ~(counts : Counts.t array) =
  let b = best ws in
  let n = float (total_attempted ws) in
  let ms w = Measure.sorted_copy (Array.map (fun s -> s.latency *. 1e3) w.samples) in
  let lat = ms b in
  let p, tail = Measure.tail lat in
  let all = Measure.sorted_copy (Array.concat (List.map ms ws)) in
  let all_p, all_tail = Measure.tail all in
  let total = Counts.sum (Array.to_list counts) in
  let allocated = List.fold_left (fun a w -> a +. Measure.allocated w.gc) 0.0 ws in
  let wall = List.fold_left (fun t w -> t +. w.wall) 0.0 ws in
  count_ops r ws;
  Report.set r "ops_per_s" (ops_per_s b);
  Report.set r "latency_p50_ms" (Measure.percentile lat 50.0);
  Report.set r "latency_tail_ms" tail;
  Report.set r "ok_ratio" (float (total_ok ws) /. n);
  Report.set r "alloc_kwords_per_op" (allocated /. n /. 1e3);
  Report.set r "sim_mcycles_per_s"
    (float (Array.fold_left (fun a s -> a + s.cycles) 0 b.samples) /. b.wall /. 1e6);
  Report.set r "sim_cycles_per_op"
    (float (Counts.machine_cycles total) /. float (Array.length counts));
  Report.set r "sim_mflops"
    (Stats.mflops params ~cycles:(Counts.machine_cycles total)
       ~flops:(Counts.get total "sim.flops"));
  let tail_json p samples =
    Json.Obj
      [ ("percentile", Json.Num p);
        ("samples", Json.Num (float samples));
        ("beyond", Json.Num (float (min 10 (samples - 1))));
      ]
  in
  Report.detail r "latency_tail" (tail_json p (Array.length lat));
  Report.detail r "peak_heap_mb" (Json.Num (List.nth ws (List.length ws - 1)).peak_heap_mb);
  Report.detail r "rounds"
    (Json.Obj
       [ ("count", Json.Num (float (List.length ws)));
         ("best_round_s", Json.Num b.wall);
         ("all_ops_per_s", Json.Num (float (total_ok ws) /. wall));
         ("all_latency_p50_ms", Json.Num (Measure.percentile all 50.0));
         ("all_latency_tail_ms", Json.Num all_tail);
         ("all_latency_tail", tail_json all_p (Array.length all));
       ])

(* The per-layer metrics untraced rounds yield: GC, compilation caches
   and the buffer pool, over every round. *)
let report_host r ws =
  let n = float (total_attempted ws) in
  let sum f = List.fold_left (fun a w -> a + f w) 0 ws in
  let per f = float (sum f) /. n in
  let hits = sum (fun w -> w.host.kernel_hits) in
  let compiles = sum (fun w -> w.host.kernel_compiles) in
  let pool_hits = sum (fun w -> w.host.pool_hits) in
  let pool_misses = sum (fun w -> w.host.pool_misses) in
  Report.set r "gc.minor_collections_per_op" (per (fun w -> w.gc.Measure.minor_collections));
  Report.set r "gc.major_collections_per_op" (per (fun w -> w.gc.Measure.major_collections));
  Report.set r "gc.major_kwords_per_op"
    (List.fold_left (fun a w -> a +. w.gc.Measure.major_words) 0.0 ws /. n /. 1e3);
  Report.set r "kernel.cache_hit_ratio" (Measure.ratio (float hits) (float (hits + compiles)));
  Report.set r "kernel.pool_hit_ratio"
    (Measure.ratio (float pool_hits) (float (pool_hits + pool_misses)));
  Report.set r "cache.evictions_per_op" (per (fun w -> w.host.evictions));
  Report.set r "gc.peak_heap_mb" (List.nth ws (List.length ws - 1)).peak_heap_mb;
  Report.set r "trace.untraced_ops_per_s" (ops_per_s (best ws))

(* Per-op means of the simulated counts over the generated inputs. *)
let report_arch r (counts : Counts.t array) =
  let total = Counts.sum (Array.to_list counts) in
  let per name = float (Counts.get total name) /. float (Array.length counts) in
  List.iter
    (fun (metric, name) -> Report.set r metric (per name))
    [ ("sim.instructions_per_op", "sim.instructions");
      ("sim.elements_per_op", "sim.elements");
      ("sim.flops_per_op", "sim.flops");
      ("sim.reconfig_cycles_per_op", "sim.reconfig_cycles");
      ("switch.reconfigurations_per_op", "switch.reconfigurations");
      ("switch.routes_per_op", "switch.routes_programmed");
      ("dma.read_words_per_op", "dma.read_words");
      ("dma.write_words_per_op", "dma.write_words");
      ("dma.transfers_per_op", "dma.transfers");
      ("mem.reads_per_op", "mem.reads");
      ("mem.writes_per_op", "mem.writes");
    ];
  Report.set r "sim.reconfig_share"
    (Measure.ratio
       (float (Counts.get total "sim.reconfig_cycles"))
       (float (Counts.machine_cycles total)))

(* Per-layer metrics a traced replay yields from its spans; a metric
   whose span never ran is left unset. *)
let report_spans r spans ~ops =
  let counts = Spans.by_name spans in
  let set_if present metric v = if present then Report.set r metric v in
  let span metric name scale =
    set_if (Hashtbl.mem counts name) metric (Spans.mean_us spans name *. scale)
  in
  List.iter
    (fun (metric, name) -> span metric name 1.0)
    [ ("lang.compile_us", "lang.compile");
      ("apps.build_us", "apps.build");
      ("apps.load_us", "apps.load");
      ("checker.check_us", "checker.check");
      ("microcode.codegen_us", "microcode.codegen");
      ("microcode.decode_us", "microcode.decode");
      ("sim.node_create_us", "sim.node_create");
      ("sim.plan_compile_us", "sim.plan_compile");
      ("sim.kernel_compile_us", "sim.kernel_compile");
    ];
  span "sim.run_ms" "sim.run" 1e-3;
  span "fault.job_ms" "fault.job" 1e-3;
  List.iter
    (fun (metric, note) ->
      set_if (Hashtbl.mem spans.Spans.notes note) metric (Spans.note_mean spans note /. 1e3))
    [ ("microcode.codegen_kwords", "microcode.codegen_words");
      ("sim.node_major_kwords", "sim.node_major_words");
      ("sim.run_kwords", "sim.run_words");
    ];
  let self = Spans.layer_self spans in
  List.iter
    (fun l ->
      Option.iter
        (fun s -> Report.set r ("self." ^ l ^ "_us") (s /. float ops *. 1e6))
        (Hashtbl.find_opt self l))
    [ "serve"; "lang"; "apps"; "checker"; "microcode"; "sim"; "fault" ];
  Report.set r "trace.uncovered_share" (Spans.uncovered_share spans)

(* Simulator host speed from the replay's [Sequencer.run] spans, and
   the tracing overhead: best untraced minus best traced ops_per_s. *)
let report_trace r spans ~untraced ~traced ~elements ~instructions =
  let run_s =
    snd (Option.value ~default:(0, 0.0) (Hashtbl.find_opt (Spans.by_name spans) "sim.run"))
  in
  Report.set r "sim.host_ns_per_element" (Measure.ratio (run_s *. 1e9) (float elements));
  Report.set r "sim.dispatch_us" (Measure.ratio (run_s *. 1e6) (float instructions));
  let t = ops_per_s (best traced) in
  Report.set r "trace.traced_ops_per_s" t;
  Report.set r "trace.overhead_ops_per_s" (ops_per_s (best untraced) -. t)

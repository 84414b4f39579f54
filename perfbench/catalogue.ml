(* The metric catalogue: every metric the benchmark reports, by name,
   with its unit.  BENCHMARK.json lists the same names and units (a
   test checks that the two agree). *)

(* (name, unit).  End-to-end metrics come from untraced runs. *)
let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("ok_ratio", "ratio");
    ("alloc_kwords_per_op", "kwords");
    ("sim_mcycles_per_s", "Mcycles/s");
    ("sim_cycles_per_op", "cycles");
    ("sim_mflops", "MFLOPS");
  ]

(* Per-layer metrics come from traced runs.  A layer a workload never
   enters reports 0 and is listed under "not_applicable". *)
let per_layer =
  [ ("serve.parse_us", "us");
    ("serve.admit_us", "us");
    ("serve.wave_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.rejected_ratio", "ratio");
    ("lang.compile_us", "us");
    ("apps.build_us", "us");
    ("apps.load_us", "us");
    ("checker.check_us", "us");
    ("microcode.codegen_us", "us");
    ("microcode.codegen_kwords", "kwords");
    ("microcode.decode_us", "us");
    ("sim.node_create_us", "us");
    ("sim.node_major_kwords", "kwords");
    ("sim.run_ms", "ms");
    ("sim.run_kwords", "kwords");
    ("sim.plan_compile_us", "us");
    ("sim.kernel_compile_us", "us");
    ("sim.host_ns_per_element", "ns");
    ("sim.dispatch_us", "us");
    ("kernel.cache_hit_ratio", "ratio");
    ("kernel.pool_hit_ratio", "ratio");
    ("cache.evictions_per_op", "count");
    ("sim.instructions_per_op", "count");
    ("sim.elements_per_op", "count");
    ("sim.flops_per_op", "count");
    ("sim.reconfig_cycles_per_op", "cycles");
    ("sim.reconfig_share", "ratio");
    ("switch.reconfigurations_per_op", "count");
    ("switch.routes_per_op", "count");
    ("dma.read_words_per_op", "words");
    ("dma.write_words_per_op", "words");
    ("dma.transfers_per_op", "count");
    ("mem.reads_per_op", "count");
    ("mem.writes_per_op", "count");
    ("fault.injected_per_job", "count");
    ("fault.recovered_ratio", "ratio");
    ("fault.job_ms", "ms");
    ("gc.minor_collections_per_op", "count");
    ("gc.major_collections_per_op", "count");
    ("gc.major_kwords_per_op", "kwords");
    ("gc.peak_heap_mb", "MB");
    ("self.serve_us", "us");
    ("self.lang_us", "us");
    ("self.apps_us", "us");
    ("self.checker_us", "us");
    ("self.microcode_us", "us");
    ("self.sim_us", "us");
    ("self.fault_us", "us");
    ("trace.uncovered_share", "ratio");
    ("trace.untraced_ops_per_s", "1/s");
    ("trace.traced_ops_per_s", "1/s");
    ("trace.overhead_ops_per_s", "1/s");
    ("trace.sim_counts_identical", "bool");
  ]

(** Execution of one pipeline instruction on a node.

    The engine combines a per-element functional dataflow evaluation (exact
    numerics, including register-file feedback queues and shift/delay
    streams) with a pipeline-accurate analytic timing model (fill to the
    critical-path depth, then one element per cycle degraded by memory-plane
    port contention — see {!Nsc_checker.Timing.estimated_cycles}).

    When [honor_timing] is set (the default), misaligned operand streams are
    paired exactly as the synchronous hardware would pair them — element
    [e] of the late stream meets element [e + skew] of the early one — so a
    diagram with a missing delay queue computes visibly wrong results, which
    is what the paper's proposed visual debugger is for.

    Every entry point takes an optional [?metrics] context; when given,
    all instrumentation (counters, spans, the clock, latency histograms
    and per-unit cycle attribution) lands in that
    {!Nsc_metrics.Metrics.ctx} instead of the calling domain's ambient
    context. *)

(** Recorded values of every engaged unit at every element, kept for the
    visual debugger's annotated diagrams (only when [record_trace] was
    passed — recording costs a hashtable write per unit-element). *)
type trace = {
  unit_values : (Nsc_arch.Resource.fu_id * int, float) Hashtbl.t;
      (** value each functional unit produced for each element index *)
  vlen : int;  (** the instruction's vector length *)
}

(** The value unit [fu] produced at [element], if the trace covers it. *)
val trace_value :
  trace -> fu:Nsc_arch.Resource.fu_id -> element:int -> float option

(** Outcome of one executed pipeline instruction. *)
type result = {
  cycles : int;  (** analytic cycle estimate: fill + streaming + stalls *)
  flops : int;   (** floating-point operations across engaged units *)
  elements : int;  (** vector elements processed (the vector length) *)
  writes : int;  (** words written to memory planes and caches *)
  events : Nsc_arch.Interrupt.event list;
      (** interrupts raised, earliest first, capped at
          {!max_recorded_events} *)
  last_values : (Nsc_arch.Resource.fu_id * float) list;
      (** final output of every engaged unit — the scalars condition
          interrupts capture *)
  trace : trace option;  (** per-element values when requested *)
}

(** Cap on the interrupt events retained in a {!result}. *)
val max_recorded_events : int

(** The general memoized evaluator: the timing-honouring reference every
    fused kernel is checked against, and the fallback for instructions
    without a fused body.  [analysis] supplies a precomputed timing
    analysis (from a compiled plan) so none is recomputed here. *)
val run_general :
  Node.t ->
  ?record_trace:bool ->
  ?honor_timing:bool ->
  ?analysis:Nsc_checker.Timing.t ->
  ?metrics:Nsc_metrics.Metrics.ctx -> Nsc_diagram.Semantic.t -> result

(** Execute a fused {!Kernel.t}: buffers drawn from the
    domain-local {!Kernel.acquire} pool, read streams gathered with
    Bigarray-direct bulk transfers, a blocked element loop through
    compile-time-specialised {!Kernel.step} closures (no opcode dispatch
    in the hot path) with the non-finite trap pre-scan fused into the
    compute pass, and one bulk transfer per write sink.  Kernels without
    a fused body fall back to the general evaluator.  Results — values,
    cycles, interrupt events and their order — are bit-identical to
    {!run_general} (property-tested).  [budget] is polled at every kernel
    block boundary, so a wall deadline or a cancellation unwinds with
    [Nsc_guard.Guard.Budget.Deadline_exceeded] mid-instruction (pooled
    buffers are released on the way out). *)
val run_kernel :
  Node.t ->
  ?record_trace:bool ->
  ?budget:Nsc_guard.Guard.Budget.t ->
  ?metrics:Nsc_metrics.Metrics.ctx ->
  Kernel.t ->
  result

(** Run K independent replicas of one compiled kernel, replica [r] on
    [nodes.(r)], over interleaved pooled buffer slabs (replica [r]'s
    element 0 at [r * blen + pad]; per-replica pads isolate operand-offset
    reads).  Replicas fan out across the process-wide persistent domain
    pool ({!Multinode.parallel_for}) when [domains > 1]; that pool runs
    them replica-major on the caller under an installed fault model, so
    the seeded draw stream stays reproducible.  [results.(r)] is
    bit-identical to [run_kernel nodes.(r)] on a clean machine for every
    K, and under faults for K = 1.  Kernels without a fused body fall
    back to the general evaluator per replica. *)
val run_batched :
  Node.t array ->
  ?record_trace:bool ->
  ?domains:int -> ?metrics:Nsc_metrics.Metrics.ctx -> Kernel.t -> result array

(** {2 Batch counters} — atomic, shared across domains; mirrored on the
    [kernel.batch_*] trace counters when tracing is enabled. *)

(** Batched executions started ([kernel.batch_runs]). *)
val batch_run_count : unit -> int

(** Replica instructions executed through batches ([kernel.batch_replicas]). *)
val batch_replica_count : unit -> int

(** Batched replicas that fell back to the general evaluator
    ([kernel.batch_fallbacks]). *)
val batch_fallback_count : unit -> int

(** Zero the three batch counters (trace counters are untouched). *)
val reset_batch_counters : unit -> unit

(** Execute one pipeline instruction: compile a plan, lower it to a fused
    kernel, run it.  Callers replaying an instruction should use a
    {!Kernel.cache} and {!run_kernel}. *)
val run :
  Node.t ->
  ?record_trace:bool ->
  ?honor_timing:bool ->
  ?metrics:Nsc_metrics.Metrics.ctx -> Nsc_diagram.Semantic.t -> result


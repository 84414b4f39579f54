(* Simulated-machine counts of one op, read from the op's own
   [Nsc_metrics] context.  These are properties of the modelled machine:
   deterministic for a given input, whatever the host does. *)

module Json = Nsc_metrics.Json
module Metrics = Nsc_metrics.Metrics

let names =
  [| "sim.cycles";
     "sim.flops";
     "sim.instructions";
     "sim.elements";
     "sim.reconfig_cycles";
     "switch.reconfigurations";
     "switch.routes_programmed";
     "dma.read_words";
     "dma.write_words";
     "dma.transfers";
     "mem.reads";
     "mem.writes";
  |]

type t = int array

let index name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let get (c : t) name = c.(index name)

(* Simulated machine time: execution ("sim.cycles") plus
   reconfiguration between instructions — the sequencer's cycle total. *)
let machine_cycles c = get c "sim.cycles" + get c "sim.reconfig_cycles"

let of_ctx ctx : t =
  let l = (Metrics.snapshot ctx).Metrics.snap_counters in
  Array.map (fun n -> Option.value ~default:0 (List.assoc_opt n l)) names

(* The [counters] object of a serve response. *)
let of_json j : t =
  Array.map
    (fun n ->
      match Option.bind (Json.member n j) Json.to_num with
      | Some v -> int_of_float v
      | None -> 0)
    names

(* Run [f] under a fresh enabled context; its result and counts. *)
let counted f =
  let ctx = Metrics.create ~label:"perfbench" () in
  Metrics.enable ctx;
  let r = Fun.protect ~finally:(fun () -> Metrics.disable ctx) (fun () -> Metrics.with_ctx ctx f) in
  (r, of_ctx ctx)

(* Every count summed over a list of ops. *)
let sum (l : t list) = List.fold_left (Array.map2 ( + )) (Array.make (Array.length names) 0) l

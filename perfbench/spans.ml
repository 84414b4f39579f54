(* In-memory spans recorded by the benchmark around its calls into each
   layer.  A span has a name ("layer.call"), start and end host times, the
   span that was open when it started (its parent) and the op it belongs
   to.  Spans stay in memory until the run ends. *)

module Json = Nsc_metrics.Json

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1: a root span *)
  start : float;
  stop : float;
}

type t = {
  origin : float;
  mutable spans : span list;
  mutable next : int;
  mutable open_ : int list;
  notes : (string, float * int) Hashtbl.t;  (* name -> (sum, samples) *)
}

let create () =
  { origin = Measure.now (); spans = []; next = 0; open_ = []; notes = Hashtbl.create 8 }

(* A quantity measured beside a span, such as the words a call
   allocated. *)
let note t name v =
  let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt t.notes name) in
  Hashtbl.replace t.notes name (s +. v, n + 1)

let note_mean t name =
  match Hashtbl.find_opt t.notes name with Some (s, n) when n > 0 -> s /. float n | _ -> 0.0

let record t ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = Measure.now () in
  let finish () =
    let stop = Measure.now () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; op; parent; start; stop } :: t.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let dur s = s.stop -. s.start

(* The layer of a span is its name up to the first dot. *)
let layer s =
  match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Per-name call counts and total durations (seconds). *)
let by_name t =
  let h = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, d = Option.value ~default:(0, 0.0) (Hashtbl.find_opt h s.name) in
      Hashtbl.replace h s.name (n + 1, d +. dur s))
    t.spans;
  h

let mean_us t name =
  match Hashtbl.find_opt (by_name t) name with
  | Some (n, d) when n > 0 -> d /. float n *. 1e6
  | _ -> 0.0

(* Self time of every span: its duration minus the part its direct
   children cover (children of one span never overlap: they run on the
   recording domain one after another). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) +. dur s))
    t.spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    t.spans

(* Self time summed per layer, over spans whose layer is not "op". *)
let layer_self t =
  let h = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer s in
      if l <> "op" then
        Hashtbl.replace h l (Option.value ~default:0.0 (Hashtbl.find_opt h l) +. self))
    (self_times t);
  h

(* Share of root "op" span time that no child span covers. *)
let uncovered_share t =
  let total, bare =
    List.fold_left
      (fun (total, bare) (s, self) ->
        if s.name = "op" then (total +. dur s, bare +. self) else (total, bare))
      (0.0, 0.0) (self_times t)
  in
  Measure.ratio bare total

let to_json t =
  let us x = Json.Num (Float.round ((x -. t.origin) *. 1e7) /. 10.0) in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [ ("id", Json.Num (float s.id));
             ("name", Json.Str s.name);
             ("op", Json.Num (float s.op));
             ("parent", Json.Num (float s.parent));
             ("start_us", us s.start);
             ("end_us", us s.stop);
           ])
       (spans t))

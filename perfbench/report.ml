(* The result a run prints: the value of every catalogued metric, the
   op counts, the failed checks and the run's details. *)

module Json = Nsc_metrics.Json

type t = {
  values : (string, float) Hashtbl.t;
  mutable details : (string * Json.t) list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* failed checks, newest first *)
  mutable spans : (string * Json.t) list;  (* traced runs: span sets by name *)
}

let create () =
  { values = Hashtbl.create 64; details = []; attempted = 0; failed = 0; problems = []; spans = [] }

let set r name v =
  if not (List.mem_assoc name Catalogue.end_to_end || List.mem_assoc name Catalogue.per_layer) then
    invalid_arg ("Report.set: unknown metric " ^ name);
  Hashtbl.replace r.values name v

let detail r key v = r.details <- r.details @ [ (key, v) ]

(* A failed output check.  The first few are kept for the report. *)
let problem r msg = if List.length r.problems < 20 then r.problems <- msg :: r.problems

let ops r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let correct r = r.failed = 0 && r.problems = [] && r.attempted > 0

let print r ~trace =
  let catalogue = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  let values =
    List.map
      (fun (name, u) ->
        match Hashtbl.find_opt r.values name with
        | Some v when Float.is_finite v -> (name, u, v)
        | Some _ ->
            problem r (name ^ " is not finite");
            (name, u, 0.0)
        | None -> (name, u, 0.0))
      catalogue
  in
  List.iter (fun (name, u, v) -> Printf.printf "%-32s %14.6g %s\n" name v u) values;
  let missing = List.filter (fun (n, _) -> not (Hashtbl.mem r.values n)) catalogue in
  let details =
    r.details
    @ [ ("failed_ratio", Json.Num (Measure.ratio (float r.failed) (float r.attempted)));
        ("not_applicable", Json.List (List.map (fun (n, _) -> Json.Str n) missing));
        ("problems", Json.List (List.rev_map (fun p -> Json.Str p) r.problems));
      ]
  in
  print_endline (Json.to_string (Json.Obj [ ("detail", Json.Obj details) ]));
  let metrics =
    List.map
      (fun (name, u, v) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
      values
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (correct r));
            ("attempted", Json.Num (float r.attempted));
            ("failed", Json.Num (float r.failed));
            ("metrics", Json.Obj metrics);
          ]))

(* The benchmark's entry point: parse the command line, check the environment,
   run one workload and print its result.  The last line of standard
   output is the result object; see perfbench/README.md. *)

module Json = Nsc_metrics.Json

let workloads = [ "serve_mix"; "jacobi_large"; "multigrid_1d" ]

(* Reserved for rechecking claims: never used while tuning. *)
let held_out_seed = 7919

let usage =
  "usage: main.exe --workload (serve_mix|jacobi_large|multigrid_1d) --seed N --seconds S \
   --trace (0|1) [--domains D]"

let refuse msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool; domains : int option }

let parse argv =
  let int_of name v =
    match int_of_string_opt v with Some i -> i | None -> refuse (name ^ " needs an integer")
  in
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> refuse "--seconds needs a positive number")
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--domains" :: v :: rest -> go { a with domains = Some (int_of "--domains" v) } rest
    | [] -> a
    | _ -> refuse usage
  in
  let a =
    go { workload = ""; seed = -1; seconds = 0.0; trace = false; domains = None } (List.tl argv)
  in
  if a.workload = "" || a.seed < 0 || a.seconds = 0.0 then refuse usage;
  a

let write_spans ~workload ~seed sets =
  let dir = ".perfbench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/%s-seed%d-spans.json" dir workload seed in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("workload", Json.Str workload); ("spans", Json.Obj sets) ])));
  path

let () =
  let a = parse (Array.to_list Sys.argv) in
  (* GC settings must be explicit in code, never hidden in the environment *)
  (match Sys.getenv_opt "OCAMLRUNPARAM" with
  | Some v -> refuse (Printf.sprintf "OCAMLRUNPARAM is set (%S); unset it to run the benchmark" v)
  | None -> ());
  let nproc = Domain.recommended_domain_count () in
  (* serve_mix defaults to one worker domain: with two domains the
     cross-domain GC synchronisation makes its throughput spread across
     runs about three times wider on a shared host.  [--domains] up to
     nproc measures multi-domain scaling. *)
  let domains =
    match (a.workload, a.domains) with
    | "serve_mix", d -> Option.value ~default:1 d
    | _, (None | Some 1) -> 1
    | w, Some _ -> refuse (w ^ " runs on one domain")
  in
  if domains < 1 || domains > nproc then
    refuse (Printf.sprintf "--domains %d is outside 1..nproc (nproc = %d)" domains nproc);
  let r = Report.create () in
  Report.detail r "environment"
    (Json.Obj
       [ ("workload", Json.Str a.workload);
         ("seed", Json.Num (float a.seed));
         ("held_out_seed", Json.Num (float held_out_seed));
         ("seconds", Json.Num a.seconds);
         ("trace", Json.Bool a.trace);
         ("nproc", Json.Num (float nproc));
         ("domains", Json.Num (float domains));
         ("ocaml_version", Json.Str Sys.ocaml_version);
         ("ocamlrunparam", Json.Null);
       ]);
  (match a.workload with
  | "serve_mix" -> Serve_mix.run r ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~domains
  | "jacobi_large" -> Direct.run r (Direct.jacobi a.seed) ~seconds:a.seconds ~trace:a.trace
  | _ -> Direct.run r (Direct.multigrid a.seed) ~seconds:a.seconds ~trace:a.trace);
  if r.Report.spans <> [] then
    Report.detail r "spans_file"
      (Json.Str (write_spans ~workload:a.workload ~seed:a.seed r.Report.spans));
  Report.print r ~trace:a.trace

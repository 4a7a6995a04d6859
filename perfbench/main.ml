(* The benchmark program: runs one workload (synth, serve or verify) for a
   given seed and time, checks every output, prints a report and, as its
   last line, one JSON object with the metrics.

     main.exe --workload W --seed N --seconds S --trace 0|1
              --check-exe PATH --serve-exe PATH --scratch DIR

   Untraced runs report the end-to-end metrics.  A traced run records
   spans around the benchmark's calls into each layer and reports the
   per-layer metrics of the layers this workload exercises, its ledger
   and the estimated cost of the tracing itself.  Exit code 1 on any
   output mismatch or memo-guard violation. *)

open Util

let usage () =
  prerr_endline
    "usage: main.exe --workload synth|serve|verify --seed N --seconds S --trace 0|1\n\
    \                --check-exe PATH --serve-exe PATH --scratch DIR\n\
    \       (run it through perfbench/run.py)";
  exit 2

let args = Array.to_list Sys.argv |> List.tl

let rec opt name = function
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> opt name rest
  | [] -> None

let get name = match opt name args with Some v -> v | None -> usage ()

let int_arg name =
  match int_of_string_opt (get name) with Some n -> n | None -> usage ()

(* One synth circuit in a fresh process (see Wl_synth). *)
let () =
  if List.mem "--synth-circuit" args then begin
    let src =
      match (opt "--input" args, opt "--fig2rt" args) with
      | Some file, _ -> Wl_synth.Text file
      | None, Some n -> Wl_synth.Fig2_rt (int_of_string n)
      | None, None -> usage ()
    in
    let traced = int_arg "--trace" = 1 in
    Trace.on := traced;
    Wl_synth.circuit ~check_exe:(get "--check-exe") ~scratch:(get "--scratch") ~traced ~rid:(int_arg "--rid") ~cls:(get "--class") ~src
      ~sample:(List.mem "--sample" args) ~tamper_it:(List.mem "--tamper" args);
    exit 0
  end

let workload = get "--workload"
let seed = int_arg "--seed"
let probe = List.mem "--setup-probe" args

(* A set-up-only process, timed by the parent: process start and module
   initialisation (the kernel and its theories) — all a one-shot synth
   caller waits for before its first circuit — plus, for verify, the
   circuits and the domain pool.  The benchmark's own input generation
   is not part of it. *)
let () =
  if probe then begin
    (match workload with
    | "synth" -> ignore (Sys.opaque_identity Automata.Retiming_thm.retiming_thm)
    | "verify" ->
        let _, pool = Wl_verify.setup () in
        Parallel.Pool.shutdown pool
    | _ -> usage ());
    exit 0
  end

let seconds = fi (int_arg "--seconds")
let traced = int_arg "--trace" = 1

let exes =
  { check_exe = get "--check-exe"; serve_exe = get "--serve-exe"; scratch = get "--scratch" }

let probe_setup () =
  median
    (List.init 3 (fun _ ->
         snd
           (time (fun () ->
                run_quiet Sys.executable_name
                  [ "--workload"; workload; "--seed"; string_of_int seed; "--setup-probe" ]))))

(* Run the workload; returns the outcome and the estimated share of its
   window the tracing instrument took (spans are recorded by this
   process's one thread). *)
let run_one ~per_span name secs =
  let o, window =
    match name with
    | "synth" ->
        let o, w = Wl_synth.run ~exes ~seed ~seconds:secs ~traced in
        ({ o with setup_s = (if traced then nan else probe_setup ()) }, w)
    | "serve" ->
        let o, w, exhausted = Wl_serve.run ~exes ~seed ~seconds:secs ~traced in
        if exhausted then
          print_endline "note: the pre-generated cold requests ran out before the window ended";
        (o, w)
    | "verify" ->
        let o, w = Wl_verify.run ~seconds:secs ~traced in
        ({ o with setup_s = (if traced then nan else probe_setup ()) }, w)
    | _ -> usage ()
  in
  (o, fi (List.length !Trace.spans) *. per_span /. window)

let print_metric x = Printf.printf "  %-36s %16.6g %s\n" x.name x.value x.unit_

let report (o : outcome) =
  Printf.printf "== %s (seed %d, %s)\n" o.workload seed (if traced then "traced" else "untraced");
  if not (Float.is_nan o.setup_s) then print_metric (m "setup_s" "s" o.setup_s);
  print_metric (m "peak_rss_mb" "MB" o.rss_mb);
  print_metric (m "fail_ratio" "ratio" (ratio (fi o.failed) (fi o.attempted)));
  List.iter print_metric o.metrics;
  List.iter print_metric o.e2e;
  List.iter print_metric o.layer;
  List.iter print_endline o.ledger;
  List.iter (fun (k, v) -> Printf.printf "signature %s %s\n" k v) o.signature;
  Printf.printf "checked %d outputs, %d failed\n" o.attempted o.failed;
  List.iter (fun s -> Printf.printf "FAILED: %s\n" s) o.failures

let () =
  if not (List.mem workload [ "synth"; "serve"; "verify" ]) then usage ();
  mkdir_p exes.scratch;
  Trace.on := traced;
  let per_span = if traced then Trace.per_span_s () else 0.0 in
  let o, overhead = run_one ~per_span workload seconds in
  report o;
  let metrics =
    if traced then o.layer @ [ m ("ledger." ^ workload ^ ".trace_overhead_share") "ratio" overhead ]
    else m "setup_s" "s" o.setup_s :: m "peak_rss_mb" "MB" o.rss_mb :: o.e2e
  in
  let unmeasured = List.filter (fun x -> Float.is_nan x.value) metrics in
  List.iter (fun x -> Printf.printf "FAILED: metric %s was not measured\n" x.name) unmeasured;
  let failed = o.failed + List.length unmeasured in
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (failed = 0));
        ("attempted", Obs.Json.Int o.attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.Str x.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json);
  exit (if failed = 0 then 0 else 1)

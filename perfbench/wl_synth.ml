(* Workload "synth": one caller, one domain, closed loop — the paper's
   HASH column and the one-shot CLI user.  A seeded stream of distinct
   circuits goes through the public synthesis path (BLIF parse -> maximal
   cut -> HASH retime -> theorem text); then a second, certifying pass
   records the proof, emits the certificate, writes it and replays it
   with bin/check.exe in a separate process.

   Like a CLI user, each circuit runs in a fresh process (this
   executable, started with --synth-circuit), which times its own steps
   and reports them on stdout.  In one long-lived process the heap left
   by the 16k-gate circuits slowed every later circuit several-fold and
   by a different amount on every run; a fresh process per circuit
   measures the synthesis, not that history.

   Rounds of a fixed size schedule run until the measured time is spent;
   a round is never cut short, so every run sees the same mix of sizes:
   the eight Table II shapes, one multiplier and one RT-level Figure 2
   row, plus two more s641 and two more s5378 shapes.  The extra shapes
   put the p50 well inside the 30-50 ms classes and the p90 well inside
   the s5378 class; with one of each, both percentiles fell on the edge
   between two classes and jumped between them from run to run.  The first round also carries the two circuits
   of about 16k gates (the "large" class). *)

open Util

(* Bit-level circuits travel as BLIF text; Figure 2's RT-level rows have
   no BLIF form and travel as their width. *)
type src = Text of string | Fig2_rt of int

type item = {
  id : int;
  cls : string;  (** size class: a Table II name, mult, fig2rt or large *)
  src : src;
  gates : int;
  key : string;  (** identity for the repeated-circuit guard *)
}

let shape name = List.find (fun (n, _, _, _, _) -> n = name) Gen.table2

let round_items ~seed ~round ~first_id =
  let rng = rng seed ("synth", round) in
  let next = ref first_id in
  let item cls src gates key =
    let id = !next in
    incr next;
    { id; cls; src; gates; key }
  in
  let bit cls c =
    let text = Blif.to_string c in
    item cls (Text text) (Circuit.gate_count c) (Digest.string text)
  in
  let shapes =
    List.map
      (fun ((name, _, _, _, _) as sh) ->
        bit name (Gen.shaped ~seed:(Random.State.bits rng) sh))
      (Gen.table2 @ List.init 2 (fun _ -> shape "s641") @ List.init 2 (fun _ -> shape "s5378"))
  in
  (* the multiplier and Figure 2 rows are fixed circuits: each width is
     used once per run *)
  let fixed =
    if round >= 40 then []
    else
      let mult = bit "mult" (Iwls.mult (12 + round)) in
      let n = 63 - round in
      [
        mult;
        item "fig2rt" (Fig2_rt n)
          (Circuit.gate_count (Fig2.rt n))
          (Printf.sprintf "fig2rt-%d" n);
      ]
  in
  let large =
    if round > 0 then []
    else List.init 2 (fun _ -> bit "large" (Gen.large ~seed:(Random.State.bits rng)))
  in
  shapes @ fixed @ large

(* Cold-run floors of primitive rule applications per gate.  A fresh
   circuit costs 25-40 (bit level) and about 3 (RT level) on this code;
   a repeat answered by the kernel's conversion memo costs about 0.2.
   Below the floor the run is timing the memo, not the synthesis. *)
let floor_of = function Hash.Embed.Bit_level -> 5.0 | Hash.Embed.Rt_level -> 1.0

(* What the per-circuit process reports. *)
type row = {
  id : int;
  cls : string;
  gates : int;
  lat : float;  (** parse -> render *)
  tm : float list;  (** Synthesis.retime's own phase timings *)
  rules : int;
  conv_hits : int;
  conv_misses : int;
  intern_hits : int;
  intern_misses : int;
  major_words : float;
  thm_bytes : int;
  t_record : float;
  t_emit : float;
  t_spawn : float;
  cert_bytes : int;
  heavy : float;  (** record + emit + write + check.exe *)
  rss_mb : float;
}

let phases = [ "hash.embed"; "hash.split"; "hash.apply"; "hash.join"; "hash.init" ]

(* Tamper with a certificate: claim the conclusion at the step before
   the real one.  The checker must reject it. *)
let tamper cert =
  String.split_on_char '\n' cert
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | "qed" :: ix :: rest ->
             String.concat " " ("qed" :: string_of_int (max 0 (int_of_string ix - 1)) :: rest)
         | _ -> l)
  |> String.concat "\n"

let cosim_ok rng c after =
  let inputs = List.init 32 (fun _ -> Sim.random_inputs rng c) in
  List.for_all2
    (fun a b -> Array.length a = Array.length b && Array.for_all2 Sim.value_equal a b)
    (Sim.run c inputs) (Sim.run after inputs)

(* --- the per-circuit process ------------------------------------------ *)

(* Both passes and every check for one circuit; prints one JSON line. *)
let circuit ~check_exe ~scratch ~traced ~rid ~cls ~src ~sample ~tamper_it =
  let tally = tally () in
  let level, c_of =
    match src with
    | Text file ->
        let text = In_channel.with_open_bin file In_channel.input_all in
        ( Hash.Embed.Bit_level,
          fun () -> Trace.span ~rid "netlist.parse" (fun () -> Blif.of_string text) )
    | Fig2_rt n -> (Hash.Embed.Rt_level, fun () -> Fig2.rt n)
  in
  let k0 = Engines.Common.kernel_now () in
  let r0 = Logic.Kernel.total_rule_count () in
  let g0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = now () in
  let c = c_of () in
  let cut = Trace.span ~rid "retiming.cut" (fun () -> Cut.maximal c) in
  let step, _, sid =
    Trace.measure ~rid "hash.retime" (fun () -> Hash.Synthesis.retime level c cut)
  in
  let r1 = Logic.Kernel.total_rule_count () in
  let k = Obs.kernel_delta ~before:k0 ~after:(Engines.Common.kernel_now ()) in
  let g1 = (Gc.quick_stat ()).Gc.major_words in
  let thm =
    Trace.span ~rid "logic.render" (fun () ->
        Logic.Kernel.string_of_thm step.Hash.Synthesis.theorem)
  in
  let lat = now () -. t0 in
  let tm =
    let t = step.Hash.Synthesis.timings in
    Hash.Synthesis.[ t.t_embed; t.t_split; t.t_apply; t.t_join; t.t_init ]
  in
  (* the phases of Synthesis.retime's own timings record, laid end to
     end from the start of its span *)
  (if sid >= 0 then
     let s = List.find (fun s -> s.Trace.id = sid) !Trace.spans in
     ignore
       (List.fold_left2
          (fun t name d ->
            ignore (Trace.add ~parent:sid ~rid name t (t +. d));
            t +. d)
          s.Trace.t0 phases tm));
  let gates = Circuit.gate_count c in
  let rules = r1 - r0 in
  expect tally (fi rules /. fi gates >= floor_of level) (fun () ->
      Printf.sprintf "memo guard: circuit %d (%s) took %.2f rule apps/gate" rid cls
        (fi rules /. fi gates));
  (* certifying pass: recording invalidates the memos, so it is cold too *)
  let t1 = now () in
  let rr0 = Logic.Kernel.total_rule_count () in
  let (step2, trace), t_record =
    Trace.timed ~rid "cert.record" (fun () ->
        Logic.Kernel.start_recording ();
        let st = Hash.Synthesis.retime level c cut in
        match Logic.Kernel.stop_recording () with
        | Ok tr -> (st, tr)
        | Error msg -> failwith ("recording poisoned: " ^ msg))
  in
  let rec_rules = Logic.Kernel.total_rule_count () - rr0 in
  let cert, t_emit =
    Trace.timed ~rid "cert.emit" (fun () ->
        match Cert.emit trace step2.Hash.Synthesis.theorem with
        | Ok s -> s
        | Error msg -> failwith ("emit: " ^ msg))
  in
  let file = Filename.concat scratch (Printf.sprintf "cert-%d.txt" rid) in
  Trace.span ~rid "cert.write" (fun () -> write_file file cert);
  let code, t_spawn =
    Trace.timed ~rid "cert.check_spawn" (fun () ->
        run_quiet check_exe [ "--quiet"; file ])
  in
  let heavy = now () -. t1 in
  expect tally (code = 0) (fun () ->
      Printf.sprintf "check.exe rejected the certificate of circuit %d" rid);
  expect tally (fi rec_rules /. fi gates >= floor_of level) (fun () ->
      Printf.sprintf "memo guard: certifying pass of %d was warm" rid);
  (* off the clock: every output is checked *)
  Trace.span ~rid "hash.check" (fun () ->
      expect tally
        (Hash.Synthesis.check step && Hash.Synthesis.check step2)
        (fun () -> Printf.sprintf "Synthesis.check failed on circuit %d" rid);
      expect tally
        (thm = Logic.Kernel.string_of_thm step2.Hash.Synthesis.theorem)
        (fun () -> Printf.sprintf "plain and certified theorems differ on %d" rid));
  let fwd = Trace.span ~rid "retiming.forward" (fun () -> Forward.retime c cut) in
  let after = step.Hash.Synthesis.after in
  expect tally
    (Circuit.gate_count fwd = Circuit.gate_count after
    && Circuit.flipflop_count fwd = Circuit.flipflop_count after)
    (fun () -> Printf.sprintf "HASH and Forward.retime disagree on %d" rid);
  if sample then
    Trace.span ~rid "netlist.cosim" (fun () ->
        expect tally
          (cosim_ok (rng rid "cosim") c after)
          (fun () -> Printf.sprintf "co-simulation mismatch on circuit %d" rid));
  if traced then
    Trace.span ~rid "cert.check_inproc" (fun () ->
        expect tally
          (match Cert.check_string cert with Ok _ -> true | Error _ -> false)
          (fun () -> Printf.sprintf "in-process check rejected %d" rid));
  if tamper_it then begin
    let bad = Filename.concat scratch "tampered.txt" in
    write_file bad (tamper cert);
    expect tally
      (run_quiet check_exe [ "--quiet"; bad ] <> 0)
      (fun () -> "check.exe accepted a tampered certificate");
    Sys.remove bad
  end;
  Sys.remove file;
  let open Obs.Json in
  let f x = Float x and i x = Int x in
  print_endline
    (to_string
       (Obj
          [
            ("lat", f lat);
            ("tm", List (List.map f tm));
            ("rules", i rules);
            ("conv_hits", i k.Obs.conv_memo_hits);
            ("conv_misses", i k.Obs.conv_memo_misses);
            ("intern_hits", i k.Obs.term_intern_hits);
            ("intern_misses", i k.Obs.term_intern_misses);
            ("major_words", f (g1 -. g0));
            ("thm_bytes", i (String.length thm));
            ("t_record", f t_record);
            ("t_emit", f t_emit);
            ("t_spawn", f t_spawn);
            ("cert_bytes", i (String.length cert));
            ("heavy", f heavy);
            ("rss_mb", f (peak_rss_mb 0));
            ("tried", i tally.tried);
            ("bad", i tally.bad);
            ("msgs", List (List.map (fun s -> Str s) tally.msgs));
            ( "spans",
              List
                (List.rev_map
                   (fun s ->
                     List
                       [
                         i s.Trace.id;
                         i s.Trace.parent;
                         Str s.Trace.name;
                         f s.Trace.t0;
                         f s.Trace.t1;
                       ])
                   !Trace.spans) );
          ]))

(* --- the caller ----------------------------------------------------------- *)

let fl = function Obs.Json.Float x -> x | Obs.Json.Int n -> fi n | _ -> nan
let num j k = Option.fold ~none:nan ~some:fl (Obs.Json.member k j)
let int j k = int_of_float (num j k)

let list j k =
  match Obs.Json.member k j with Some (Obs.Json.List l) -> l | _ -> []

(* Run one circuit's process; fold its report into the trace and tally. *)
let spawn ~exes ~traced ~tally ~sample ~tamper_it (it : item) =
  let input = Filename.concat exes.scratch (Printf.sprintf "in-%d.blif" it.id) in
  let src_args =
    match it.src with
    | Text text ->
        write_file input text;
        [ "--input"; input ]
    | Fig2_rt n -> [ "--fig2rt"; string_of_int n ]
  in
  let args =
    [
      "--synth-circuit"; "--rid"; string_of_int it.id; "--class"; it.cls;
      "--trace"; (if traced then "1" else "0");
      "--check-exe"; exes.check_exe; "--scratch"; exes.scratch;
    ]
    @ src_args
    @ (if sample then [ "--sample" ] else [])
    @ if tamper_it then [ "--tamper" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  if Sys.file_exists input then Sys.remove input;
  match (status, Obs.Json.parse (String.trim out)) with
  | Unix.WEXITED 0, j ->
      tally.tried <- tally.tried + int j "tried";
      tally.bad <- tally.bad + int j "bad";
      List.iter
        (function Obs.Json.Str s -> tally.msgs <- s :: tally.msgs | _ -> ())
        (list j "msgs");
      (* re-home the process's spans under fresh ids; parents come first *)
      let ids = Hashtbl.create 16 in
      List.iter
        (function
          | Obs.Json.List [ Obs.Json.Int id; Obs.Json.Int parent; Obs.Json.Str name; t0; t1 ]
            ->
              let parent = Option.value ~default:(-1) (Hashtbl.find_opt ids parent) in
              Hashtbl.replace ids id (Trace.add ~parent ~rid:it.id name (fl t0) (fl t1))
          | _ -> ())
        (list j "spans");
      Some
        {
          id = it.id;
          cls = it.cls;
          gates = it.gates;
          lat = num j "lat";
          tm = List.map fl (list j "tm");
          rules = int j "rules";
          conv_hits = int j "conv_hits";
          conv_misses = int j "conv_misses";
          intern_hits = int j "intern_hits";
          intern_misses = int j "intern_misses";
          major_words = num j "major_words";
          thm_bytes = int j "thm_bytes";
          t_record = num j "t_record";
          t_emit = num j "t_emit";
          t_spawn = num j "t_spawn";
          cert_bytes = int j "cert_bytes";
          heavy = num j "heavy";
          rss_mb = num j "rss_mb";
        }
  | _ | (exception Obs.Json.Parse_error _) ->
      expect tally false (fun () ->
          Printf.sprintf "circuit %d (%s): its process failed" it.id it.cls);
      None

let run ~exes ~seed ~seconds ~traced =
  let tally = tally () in
  let sample_rng = rng seed "synth-sample" in
  let seen = Hashtbl.create 64 in
  let rows = ref [] in
  let first = round_items ~seed ~round:0 ~first_id:0 in
  let round = ref 0 and items = ref first and next_id = ref (List.length first) in
  let t_start = now () in
  let continue = ref true in
  while !continue do
    List.iter
      (fun (it : item) ->
        expect tally (not (Hashtbl.mem seen it.key)) (fun () ->
            Printf.sprintf "repeated circuit %s in one run" it.cls);
        Hashtbl.replace seen it.key ();
        let sample = Random.State.int sample_rng 3 = 0 in
        Option.iter
          (fun r -> rows := r :: !rows)
          (spawn ~exes ~traced ~tally ~sample ~tamper_it:(it.id = 0) it))
      !items;
    incr round;
    if now () -. t_start >= seconds then continue := false
    else begin
      items :=
        Trace.span ~rid:(-1) "gen.round" (fun () ->
            round_items ~seed ~round:!round ~first_id:!next_id);
      next_id := !next_id + List.length !items
    end
  done;
  let window = now () -. t_start in
  let rows = List.rev !rows in
  let total f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let gates = total (fun r -> fi r.gates) in
  let lats = List.map (fun r -> r.lat) rows in
  let heavies = List.map (fun r -> r.heavy) rows in
  let ms x = 1000.0 *. x in
  (* Throughputs are medians over circuits of gates per second: a sum
     over the run would be decided by the two large circuits alone. *)
  let rate f = median (List.map (fun r -> fi r.gates /. f r) rows) in
  let metrics =
    [
      m "synth.gates_per_s" "1/s" (rate (fun r -> r.lat));
      m "synth.p50_ms" "ms" (ms (median lats));
      m "synth.p90_ms" "ms" (ms (percentile 0.9 lats));
      m "cert.gates_per_s" "1/s" (rate (fun r -> r.t_record +. r.t_emit));
      m "check.gates_per_s" "1/s" (rate (fun r -> r.t_spawn));
    ]
  in
  let e2e =
    [
      m "throughput_per_s" "1/s" (rate (fun r -> r.lat));
      m "p50_ms" "ms" (ms (median lats));
      m "p90_ms" "ms" (ms (percentile 0.9 lats));
      m "heavy_p50_ms" "ms" (ms (median heavies));
      m "heavy_p90_ms" "ms" (ms (percentile 0.9 heavies));
    ]
  in
  let layer, ledger =
    if not traced then ([], [])
    else begin
      let of_cls cls = List.filter (fun r -> r.cls = cls) rows in
      let ids_of rs =
        let l = List.map (fun r -> r.id) rs in
        fun id -> List.mem id l
      in
      let large = of_cls "large" in
      let large_gates = List.fold_left (fun a r -> a +. fi r.gates) 0.0 large in
      let span_total ?ids name = sum (Trace.durations ?ids name) in
      let us_per_gate name = 1e6 *. span_total ~ids:(ids_of large) name /. large_gates in
      let retime_total = span_total "hash.retime" in
      let share name = span_total name /. retime_total in
      let class_median cls name =
        let rs = of_cls cls in
        ( median (List.map (fun r -> fi r.gates) rs),
          median (Trace.durations ~ids:(ids_of rs) name) )
      in
      let g_small, split_small = class_median "s298" "hash.split" in
      let g_large, split_large = class_median "large" "hash.split" in
      let count f = fi (List.fold_left (fun a r -> a + f r) 0 rows) in
      let kb = 1024.0 in
      let inproc = Trace.named "cert.check_inproc" in
      let spawn_minus_inproc =
        List.filter_map
          (fun r ->
            List.find_opt (fun s -> s.Trace.rid = r.id) inproc
            |> Option.map (fun s -> r.t_spawn -. Trace.dur s))
          rows
      in
      let phase_sum = total (fun r -> sum r.tm) in
      let lines, unacc = Trace.ledger ~title:"synth" ~window ~lanes:1 in
      ( [
          m "retiming.cut_us_per_gate" "us/gate" (us_per_gate "retiming.cut");
          m "retiming.forward_us_per_gate" "us/gate" (us_per_gate "retiming.forward");
          m "hash.retime_self_ms" "ms" (ms (median (Trace.durations "hash.retime")));
          m "hash.embed_share" "ratio" (share "hash.embed");
          m "hash.split_share" "ratio" (share "hash.split");
          m "hash.apply_share" "ratio" (share "hash.apply");
          m "hash.join_share" "ratio" (share "hash.join");
          m "hash.init_share" "ratio" (share "hash.init");
          m "hash.split_growth" "exponent"
            (log (split_large /. split_small) /. log (g_large /. g_small));
          m "logic.rule_apps_per_gate" "count/gate" (count (fun r -> r.rules) /. gates);
          m "logic.conv_memo_hit_ratio" "ratio"
            (ratio (count (fun r -> r.conv_hits)) (count (fun r -> r.conv_hits + r.conv_misses)));
          m "logic.term_intern_hit_ratio" "ratio"
            (ratio
               (count (fun r -> r.intern_hits))
               (count (fun r -> r.intern_hits + r.intern_misses)));
          m "logic.render_us_per_kb" "us/KB"
            (1e6 *. span_total "logic.render" /. (total (fun r -> fi r.thm_bytes) /. kb));
          m "logic.theorem_bytes" "bytes" (median (List.map (fun r -> fi r.thm_bytes) rows));
          m "gc.major_words_per_gate" "words/gate" (total (fun r -> r.major_words) /. gates);
          m "cert.record_overhead_ratio" "ratio" (span_total "cert.record" /. retime_total);
          m "cert.emit_us_per_kb" "us/KB"
            (1e6 *. span_total "cert.emit" /. (total (fun r -> fi r.cert_bytes) /. kb));
          m "cert.bytes_per_gate" "bytes/gate" (total (fun r -> fi r.cert_bytes) /. gates);
          m "cert.check_inproc_ms" "ms" (ms (median (List.map Trace.dur inproc)));
          m "cert.check_spawn_ms" "ms" (ms (median spawn_minus_inproc));
          m "ledger.synth.unaccounted_share" "ratio" unacc;
          m "ledger.synth.timings_gap_share" "ratio" (1.0 -. (phase_sum /. retime_total));
        ],
        lines )
    end
  in
  let first_round = List.filter (fun r -> r.id < List.length first) rows in
  let signature =
    [
      ( "synth.rule_apps",
        String.concat "," (List.map (fun r -> string_of_int r.rules) first_round) );
      ( "synth.cert_bytes",
        String.concat "," (List.map (fun r -> string_of_int r.cert_bytes) first_round) );
    ]
  in
  ( {
      workload = "synth";
      setup_s = nan;
      rss_mb = List.fold_left (fun a r -> Float.max a r.rss_mb) 0.0 rows;
      metrics;
      e2e;
      layer;
      attempted = tally.tried;
      failed = tally.bad;
      failures = List.rev tally.msgs;
      signature;
      ledger;
    },
    window )

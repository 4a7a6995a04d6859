(* Workload "verify": the paper's post-synthesis verification baselines,
   on the cells they decide well inside the budget — van Eijk on
   s298/s420/s526, Eijk* on s344, SIS and SMV on Figure 2 at gate level
   (n = 6) and SMV at n = 8.  Each pass submits the seven cells to a
   Parallel.Pool of min(2, nproc) domains, as the table sweeps do, and
   waits for every verdict.  The kernel does no work here; the bdd,
   engines and parallel layers do all of it.

   Cells that time out at the tables' budget (s641, s838, s1423, s5378,
   the multipliers) are left out: a timeout measures the budget, not the
   engine.  The circuits are the fixed Table I/II rows, so the seed
   changes nothing here.  Cells are submitted longest first: SMV at n = 8
   takes one domain for the whole pass while the other runs the rest in
   turn, so which domain runs which cell — and so each domain's reused
   BDD manager — is the same on every pass. *)

open Util

type cell = {
  engine : string;  (** eijk, eijk_star, sis, smv *)
  label : string;
  run : Engines.Common.budget -> Circuit.t -> Circuit.t -> Engines.Common.report;
  circ : Circuit.t;
  retimed : Circuit.t;
}

let budget_s = 60.0

let cells () =
  let iwls name = Lazy.force (Iwls.find name).Iwls.circuit in
  let mk engine label run c =
    { engine; label; run; circ = c; retimed = Forward.retime c (Cut.maximal c) }
  in
  [
    mk "smv" "smv fig2-8" Engines.Smv.equiv_report (Fig2.gate 8);
    mk "eijk" "eijk s420" (fun b -> Engines.Eijk.equiv_report b) (iwls "s420");
    mk "sis" "sis fig2-6" Engines.Sis_fsm.equiv_report (Fig2.gate 6);
    mk "eijk" "eijk s298" (fun b -> Engines.Eijk.equiv_report b) (iwls "s298");
    mk "eijk_star" "eijk* s344"
      (fun b -> Engines.Eijk.equiv_report ~exploit_dependencies:true b)
      (iwls "s344");
    mk "smv" "smv fig2-6" Engines.Smv.equiv_report (Fig2.gate 6);
    mk "eijk" "eijk s526" (fun b -> Engines.Eijk.equiv_report b) (iwls "s526");
  ]

(* Set-up: the circuits, their conventional retimings and the pool. *)
let setup () =
  let cs = cells () in
  (cs, Parallel.Pool.create ~jobs:Util.jobs ())

type done_cell = {
  c : cell;
  rid : int;
  submitted : float;
  started : float;
  finished : float;
  report : Engines.Common.report;
}

let run ~seconds ~traced =
  let tally = tally () in
  let cs, pool = setup () in
  let lanes = Parallel.Pool.size pool in
  let done_ = ref [] and passes = ref [] in
  let created0, reused0 = Engines.Common.bdd_domain_stats () in
  let t_start = now () in
  let pass = ref 0 in
  while !pass = 0 || now () -. t_start < seconds do
    let order = Array.of_list cs in
    let t0 = now () in
    let futs =
      Array.to_list order
      |> List.mapi (fun i c ->
             let submitted = now () in
             let rid = (!pass * 100) + i in
             ( c,
               rid,
               submitted,
               Parallel.Pool.submit pool (fun () ->
                   let started = now () in
                   let report =
                     c.run (Engines.Common.budget_of_seconds budget_s) c.circ c.retimed
                   in
                   (started, now (), report)) ))
    in
    List.iter
      (fun (c, rid, submitted, f) ->
        let started, finished, report = Parallel.Pool.await f in
        done_ := { c; rid; submitted; started; finished; report } :: !done_)
      futs;
    passes := (now () -. t0) :: !passes;
    incr pass
  done;
  let window = now () -. t_start in
  Parallel.Pool.shutdown pool;
  let created1, reused1 = Engines.Common.bdd_domain_stats () in
  let cells_done = List.rev !done_ in
  List.iter
    (fun d ->
      let tag = Engines.Common.result_tag d.report.Engines.Common.result in
      expect tally (tag = "equivalent") (fun () ->
          Printf.sprintf "%s: verdict %s, expected equivalent" d.c.label tag))
    cells_done;
  let cell_lat = List.map (fun d -> d.finished -. d.started) cells_done in
  let passes = List.rev !passes in
  let ms x = 1000.0 *. x in
  let metrics = [ m "verify.wall_s" "s" (median passes) ] in
  let e2e =
    [
      m "throughput_per_s" "1/s" (fi (List.length cells_done) /. sum passes);
      m "p50_ms" "ms" (ms (median cell_lat));
      m "p90_ms" "ms" (ms (percentile 0.9 cell_lat));
      m "heavy_p50_ms" "ms" (ms (median passes));
      m "heavy_p90_ms" "ms" (ms (percentile 0.9 passes));
    ]
  in
  let layer, ledger =
    if not traced then ([], [])
    else begin
      List.iter
        (fun d ->
          ignore (Trace.add ~parent:(-1) ~rid:d.rid "parallel.queue" d.submitted d.started);
          ignore
            (Trace.add ~parent:(-1) ~rid:d.rid ("engines." ^ d.c.engine) d.started d.finished))
        cells_done;
      (* queue waits overlap the cells they wait behind, so the ledger
         counts only the engine spans against the pool's capacity *)
      let saved = !Trace.spans in
      Trace.spans := List.filter (fun s -> Trace.layer s.Trace.name = "engines") saved;
      let lines, unacc = Trace.ledger ~title:"verify" ~window ~lanes in
      Trace.spans := saved;
      let bdd =
        List.fold_left (fun a d -> Obs.add a d.report.Engines.Common.bdd) Obs.empty cells_done
      in
      let engine_s e =
        (* per pass: total time of the engine's cells; median over passes *)
        let per_pass = Hashtbl.create 8 in
        List.iter
          (fun d ->
            if d.c.engine = e then
              let p = d.rid / 100 in
              Hashtbl.replace per_pass p
                (d.finished -. d.started +. Option.value ~default:0.0 (Hashtbl.find_opt per_pass p)))
          cells_done;
        median (Hashtbl.fold (fun _ v a -> v :: a) per_pass [])
      in
      let created = created1 - created0 and reused = reused1 - reused0 in
      ( [
          m "parallel.queue_wait_ms" "ms" (ms (median (Trace.durations "parallel.queue")));
          m "parallel.busy_ratio" "ratio" (sum cell_lat /. (window *. fi lanes));
          m "bdd.cache_hit_ratio" "ratio"
            (ratio (fi bdd.Obs.cache_hits) (fi (bdd.Obs.cache_hits + bdd.Obs.cache_misses)));
          m "bdd.unique_hit_ratio" "ratio"
            (ratio (fi bdd.Obs.unique_hits) (fi (bdd.Obs.unique_hits + bdd.Obs.unique_misses)));
          m "bdd.mk_calls" "count" (fi bdd.Obs.mk_calls);
          m "bdd.peak_nodes" "count"
            (fi
               (List.fold_left
                  (fun a d -> max a d.report.Engines.Common.bdd.Obs.peak_nodes)
                  0 cells_done));
          m "bdd.manager_reuse_ratio" "ratio" (ratio (fi reused) (fi (created + reused)));
          m "engines.eijk_s" "s" (engine_s "eijk");
          m "engines.eijk_star_s" "s" (engine_s "eijk_star");
          m "engines.sis_s" "s" (engine_s "sis");
          m "engines.smv_s" "s" (engine_s "smv");
          m "ledger.verify.unaccounted_share" "ratio" unacc;
        ],
        lines )
    end
  in
  let first_pass = List.filter (fun d -> d.rid < 100) cells_done in
  let signature =
    [
      ( "verify.verdicts",
        String.concat ","
          (List.map
             (fun d ->
               d.c.label ^ "=" ^ Engines.Common.result_tag d.report.Engines.Common.result)
             (List.sort (fun a b -> compare a.c.label b.c.label) first_pass)) );
    ]
  in
  ( {
      workload = "verify";
      setup_s = nan;
      rss_mb = peak_rss_mb 0;
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

(* Tests for the post-synthesis verification baselines. *)

open Circuit

let check = Alcotest.(check bool)
let budget () = Engines.Common.budget_of_seconds 20.0

let is_equiv = function Engines.Common.Equivalent -> true | _ -> false

let is_refuted = function
  | Engines.Common.Not_equivalent _ -> true
  | _ -> false

(* A mutated copy of a circuit: one gate operator flipped. *)
let sabotage c =
  let b = create (c.name ^ "_bad") in
  let map = Array.make (n_signals c) (-1) in
  Array.iteri
    (fun s d ->
      match d with
      | Input _ -> map.(s) <- input b c.widths.(s)
      | Reg_out _ | Gate _ -> ())
    c.drivers;
  let regs =
    Array.map (fun r -> reg b ~init:r.init (width_of_value r.init)) c.registers
  in
  Array.iteri
    (fun s d ->
      match d with
      | Reg_out r -> map.(s) <- regs.(r)
      | Input _ | Gate _ -> ())
    c.drivers;
  let flipped = ref false in
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) ->
          let op' =
            if !flipped then op
            else
              match op with
              | And ->
                  flipped := true;
                  Or
              | Xor ->
                  flipped := true;
                  Xnor
              | _ -> op
          in
          map.(s) <- gate b op' (List.map (fun a -> map.(a)) args)
      | Input _ | Reg_out _ -> ())
    (topo_order c);
  Array.iteri
    (fun i r -> connect_reg b regs.(i) ~data:map.(r.data))
    c.registers;
  Array.iter (fun (n, s) -> output b n map.(s)) c.outputs;
  (finish b, !flipped)

let retimed_pair n =
  let c = Fig2.gate n in
  (c, Forward.retime c (Cut.maximal c))

(* ------------------------------------------------------------------ *)
(* SMV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_smv_equiv () =
  let c, r = retimed_pair 4 in
  check "equivalent" true (is_equiv (Engines.Smv.equiv (budget ()) c r))

let test_smv_self () =
  let c = Fig2.gate 3 in
  check "self-equivalent" true (is_equiv (Engines.Smv.equiv (budget ()) c c))

let test_smv_refutes () =
  let c = Fig2.gate 3 in
  let bad, flipped = sabotage c in
  check "sabotage applied" true flipped;
  check "refuted" true (is_refuted (Engines.Smv.equiv (budget ()) c bad))

let test_smv_timeout () =
  let c, r = retimed_pair 8 in
  let b = Engines.Common.budget_of_seconds 0.0 in
  check "times out" true (Engines.Smv.equiv b c r = Engines.Common.Timeout)

let test_smv_stats () =
  let c, r = retimed_pair 3 in
  let res, iters, peak = Engines.Smv.equiv_stats (budget ()) c r in
  check "equivalent" true (is_equiv res);
  check "iterations counted" true (iters >= 1);
  check "peak size positive" true (peak >= 1)

(* The product's variable layout is a bijection: current, next and both
   input banks are distinct variables below [2k + 2i], each next-state
   variable directly follows its current-state variable, and
   [next_to_cur] inverts exactly the next-state variables. *)
let check_layout (p : Engines.Symbolic.product) =
  let open Engines.Symbolic in
  let k = p.n_regs and ni = p.n_inputs in
  let vars =
    List.init k p.cur_var @ List.init k p.nxt_var @ List.init ni p.inp_var
    @ List.init ni p.inp2_var
  in
  check "variables distinct" true
    (List.length (List.sort_uniq compare vars) = List.length vars);
  check "variables dense" true
    (List.for_all (fun v -> v >= 0 && v < (2 * k) + (2 * ni)) vars);
  check "next follows current" true
    (List.for_all (fun i -> p.nxt_var i = p.cur_var i + 1) (List.init k Fun.id));
  check "rename map" true
    (Array.length p.next_to_cur = (2 * k) + ni
    && List.for_all
         (fun v ->
           match List.find_opt (fun i -> p.nxt_var i = v) (List.init k Fun.id) with
           | Some i -> p.next_to_cur.(v) = p.cur_var i
           | None -> p.next_to_cur.(v) = -1)
         (List.init ((2 * k) + ni) Fun.id))

(* Node counts, not times: the fan-in order keeps the fig2 comparator and
   mux cones linear in the word width.  Under the former blocked order
   (every state bit above every input) the fig2-12 product left 553 548
   nodes and SMV on fig2-8 grew its manager to 950 375. *)
let test_product_order () =
  let c, r = retimed_pair 12 in
  let m = Bdd.manager () in
  let p = Engines.Symbolic.product m c r in
  check "fig2-12 product under 20 000 nodes" true (Bdd.node_count m < 20_000);
  check_layout p;
  check_layout (Engines.Symbolic.product ~interleave:true (Bdd.manager ()) c r);
  (* a cap one poll interval under the bound: answering at all means the
     fresh manager stayed under 200 000 nodes *)
  let c, r = retimed_pair 8 in
  let b =
    Engines.Common.budget_of_seconds
      ~max_bdd_nodes:(200_000 - Bdd.poll_interval)
      60.0
  in
  let res, _, _ = Engines.Smv.equiv_stats b c r in
  check "fig2-8 equivalent under 200 000 nodes" true (is_equiv res)

(* A node cap is enforced inside a single BDD operation: the run stops
   within one poll interval past the cap, and the domain's reused manager
   still answers correctly afterwards. *)
let test_budget_inside_ops () =
  let owned () =
    let m = Engines.Common.domain_manager () in
    Engines.Common.release_manager m;
    m
  in
  let m = owned () in
  let c, r = retimed_pair 24 in
  let cap = 100_000 in
  let rep =
    Engines.Smv.equiv_report
      (Engines.Common.budget_of_seconds ~max_bdd_nodes:cap 60.0)
      c r
  in
  check "capped run times out" true
    (rep.Engines.Common.result = Engines.Common.Timeout);
  check "growth within cap + one poll interval" true
    (rep.Engines.Common.bdd.Obs.peak_nodes <= cap + Bdd.poll_interval);
  check "same manager" true (owned () == m);
  let c, r = retimed_pair 4 in
  let verdict e = e.Engines.Common.result in
  check "equivalent afterwards" true
    (is_equiv (verdict (Engines.Smv.equiv_report (budget ()) c r)));
  check "eijk afterwards" true
    (is_equiv (verdict (Engines.Eijk.equiv_report (budget ()) c r)));
  let bad, _ = sabotage (Fig2.gate 3) in
  check "refuted afterwards" true
    (is_refuted (verdict (Engines.Smv.equiv_report (budget ()) (Fig2.gate 3) bad)));
  check "still the same manager" true (owned () == m)

(* ------------------------------------------------------------------ *)
(* SIS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sis_equiv () =
  let c, r = retimed_pair 3 in
  let res, states = Engines.Sis_fsm.equiv_stats (budget ()) c r in
  check "equivalent" true (is_equiv res);
  check "visited states" true (states >= 1)

let test_sis_refutes () =
  let c = Fig2.gate 3 in
  let bad, _ = sabotage c in
  check "refuted" true (is_refuted (Engines.Sis_fsm.equiv (budget ()) c bad))

let test_sis_too_many_inputs () =
  let c, r = retimed_pair 16 in
  match Engines.Sis_fsm.equiv (budget ()) c r with
  | Engines.Common.Inconclusive _ -> ()
  | _ -> Alcotest.fail "expected inconclusive on 32 inputs"

(* ------------------------------------------------------------------ *)
(* van Eijk                                                            *)
(* ------------------------------------------------------------------ *)

let test_eijk_equiv () =
  let c, r = retimed_pair 4 in
  check "equivalent" true (is_equiv (Engines.Eijk.equiv (budget ()) c r))

let test_eijk_star_equiv () =
  let c, r = retimed_pair 4 in
  check "equivalent" true
    (is_equiv (Engines.Eijk.equiv_star (budget ()) c r))

let test_eijk_incomplete_never_refutes () =
  let c = Fig2.gate 3 in
  let bad, _ = sabotage c in
  match Engines.Eijk.equiv (budget ()) c bad with
  | Engines.Common.Equivalent -> Alcotest.fail "must not claim equivalence"
  | Engines.Common.Not_equivalent _ ->
      Alcotest.fail "correspondence cannot refute"
  | Engines.Common.Inconclusive _ | Engines.Common.Timeout -> ()

let test_eijk_synthetic () =
  let e = Iwls.find "s298" in
  let c = Lazy.force e.Iwls.circuit in
  let r = Forward.retime c (Cut.maximal c) in
  check "s298 verified" true (is_equiv (Engines.Eijk.equiv (budget ()) c r))

(* ------------------------------------------------------------------ *)
(* Structural retiming matcher                                         *)
(* ------------------------------------------------------------------ *)

let test_retime_match () =
  let c, r = retimed_pair 5 in
  check "matches retimed pair" true
    (is_equiv (Engines.Retime_match.equiv (budget ()) c r))

let test_retime_match_limits () =
  (* a resynthesised (non-retiming) change defeats the matcher *)
  let c = Fig2.gate 3 in
  let bad, _ = sabotage c in
  match Engines.Retime_match.equiv (budget ()) c bad with
  | Engines.Common.Inconclusive _ -> ()
  | Engines.Common.Equivalent -> Alcotest.fail "must not match"
  | Engines.Common.Not_equivalent _ | Engines.Common.Timeout ->
      Alcotest.fail "unexpected result"

(* The union-find refiner and the retained list-based reference refiner
   must reach the same inductive fixpoint from one shared setup — on
   equivalent (retimed) pairs and on sabotaged ones.  The partitions are
   compared in canonical form, polarity included. *)
let prop_eijk_refiners_agree =
  QCheck.Test.make ~count:20 ~name:"eijk union-find matches list refinement"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:14 () in
      let agree a b =
        match
          Engines.Eijk.refine_both_for_tests
            (Engines.Common.budget_of_seconds 10.0)
            a b
        with
        | uf, listed -> uf = listed
        | exception Engines.Common.Out_of_budget -> true
      in
      let retimed_ok =
        match Cut.maximal c with
        | exception Cut.Invalid_cut _ -> true
        | cut -> agree c (Forward.retime c cut)
      in
      let bad, _ = sabotage c in
      retimed_ok && agree c bad)

(* All engines agree on random retimed pairs. *)
let prop_engines_agree =
  QCheck.Test.make ~count:25 ~name:"engines agree on random retimed pairs"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:14 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          let r = Forward.retime c cut in
          let b = Engines.Common.budget_of_seconds 10.0 in
          let smv = Engines.Smv.equiv b c r in
          let sis =
            Engines.Sis_fsm.equiv (Engines.Common.budget_of_seconds 10.0) c r
          in
          is_equiv smv
          && (is_equiv sis
             || sis = Engines.Common.Timeout
             || match sis with
                | Engines.Common.Inconclusive _ -> true
                | _ -> false))

(* SMV's reachability renames each image back onto the current state
   through the product's [next_to_cur] map; a wrong map misses states and
   could answer equivalent on a broken circuit.  Whenever SIS (explicit
   states) refutes a sabotaged circuit, SMV must too, and SMV never
   refutes a retimed pair. *)
let prop_smv_refutes_with_sis =
  QCheck.Test.make ~count:40 ~name:"smv refutes whenever sis does"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:14 () in
      let b () = Engines.Common.budget_of_seconds 10.0 in
      let retimed_ok =
        match Cut.maximal c with
        | exception Cut.Invalid_cut _ -> true
        | cut -> not (is_refuted (Engines.Smv.equiv (b ()) c (Forward.retime c cut)))
      in
      let bad, _ = sabotage c in
      retimed_ok
      && ((not (is_refuted (Engines.Sis_fsm.equiv (b ()) c bad)))
         || is_refuted (Engines.Smv.equiv (b ()) c bad)))

let suite =
  [
    Alcotest.test_case "smv equivalence" `Quick test_smv_equiv;
    Alcotest.test_case "smv self" `Quick test_smv_self;
    Alcotest.test_case "smv refutes" `Quick test_smv_refutes;
    Alcotest.test_case "smv timeout" `Quick test_smv_timeout;
    Alcotest.test_case "smv stats" `Quick test_smv_stats;
    Alcotest.test_case "product variable order" `Quick test_product_order;
    Alcotest.test_case "budget inside bdd operations" `Quick
      test_budget_inside_ops;
    Alcotest.test_case "sis equivalence" `Quick test_sis_equiv;
    Alcotest.test_case "sis refutes" `Quick test_sis_refutes;
    Alcotest.test_case "sis input cap" `Quick test_sis_too_many_inputs;
    Alcotest.test_case "eijk equivalence" `Quick test_eijk_equiv;
    Alcotest.test_case "eijk* equivalence" `Quick test_eijk_star_equiv;
    Alcotest.test_case "eijk never refutes" `Quick
      test_eijk_incomplete_never_refutes;
    Alcotest.test_case "eijk s298" `Slow test_eijk_synthetic;
    Alcotest.test_case "retime matcher" `Quick test_retime_match;
    Alcotest.test_case "retime matcher limits" `Quick
      test_retime_match_limits;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_eijk_refiners_agree;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_engines_agree;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |])
      prop_smv_refutes_with_sis;
  ]

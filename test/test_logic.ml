(* Tests for the LCF kernel, the boolean bootstrap, pairs and conversions. *)

open Logic

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let thm_str th = Kernel.string_of_thm th

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_ty_basics () =
  let ty = Ty.fn Ty.bool (Ty.prod Ty.alpha Ty.num) in
  check_str "pp" "(bool -> (:a # num))" (Ty.to_string ty);
  let a, b = Ty.dest_fn ty in
  check "dom" true (Ty.equal a Ty.bool);
  let x, y = Ty.dest_prod b in
  check "prod l" true (Ty.equal x Ty.alpha);
  check "prod r" true (Ty.equal y Ty.num);
  Alcotest.check_raises "dest_fn fail" (Failure "Ty.dest_fn: not a function type")
    (fun () -> ignore (Ty.dest_fn Ty.bool))

let test_ty_subst_match () =
  let pat = Ty.fn Ty.alpha (Ty.fn Ty.beta Ty.alpha) in
  let con = Ty.fn Ty.bool (Ty.fn Ty.num Ty.bool) in
  let theta = Ty.match_ pat con [] in
  check "match roundtrip" true (Ty.equal (Ty.subst theta pat) con);
  Alcotest.check_raises "clash"
    (Failure "Ty.match_: clashing binding")
    (fun () ->
      ignore
        (Ty.match_
           (Ty.fn Ty.alpha Ty.alpha)
           (Ty.fn Ty.bool Ty.num)
           []))

let test_tyvars () =
  let ty = Ty.fn Ty.alpha (Ty.prod Ty.beta Ty.alpha) in
  Alcotest.(check (list string)) "tyvars" [ "a"; "b" ] (Ty.tyvars ty)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let xb = Term.mk_var "x" Ty.bool
let yb = Term.mk_var "y" Ty.bool

let test_term_typing () =
  let f = Term.mk_var "f" (Ty.fn Ty.bool Ty.bool) in
  let fx = Term.mk_comb f xb in
  check "type_of app" true (Ty.equal (Term.type_of fx) Ty.bool);
  Alcotest.check_raises "ill-typed app"
    (Failure "Term.mk_comb: types do not agree") (fun () ->
      ignore (Term.mk_comb xb yb));
  let lam = Term.mk_abs xb fx in
  check "type_of abs" true
    (Ty.equal (Term.type_of lam) (Ty.fn Ty.bool Ty.bool))

let test_aconv () =
  let lam1 = Term.mk_abs xb xb in
  let lam2 = Term.mk_abs yb yb in
  check "alpha-equal" true (Term.aconv lam1 lam2);
  let c1 = Term.mk_abs xb yb in
  let c2 = Term.mk_abs yb yb in
  check "not alpha-equal (free vs bound)" false (Term.aconv c1 c2)

let test_vsubst_capture () =
  (* (\y. x) [x := y]  must rename the binder *)
  let tm = Term.mk_abs yb xb in
  let tm' = Term.vsubst [ (xb, yb) ] tm in
  let v, body = Term.dest_abs tm' in
  check "binder renamed" false (v = yb);
  check "body is y" true (body = yb);
  (* and the result is alpha-equal to \z. y *)
  check "alpha to \\z. y" true
    (Term.aconv tm' (Term.mk_abs (Term.mk_var "z" Ty.bool) yb))

let test_vsubst_simultaneous () =
  (* [x := y, y := x] swaps *)
  let tm = Boolean.mk_conj xb yb in
  let tm' = Term.vsubst [ (xb, yb); (yb, xb) ] tm in
  check "swap" true (Term.aconv tm' (Boolean.mk_conj yb xb))

let test_inst_rename () =
  (* \x:a. x:bool — instantiating a := bool must not confuse binders *)
  let xa = Term.mk_var "x" Ty.alpha in
  let tm = Term.mk_abs xa (Term.mk_abs xb xa) in
  let tm' = Term.inst [ ("a", Ty.bool) ] tm in
  (* result must be alpha-equal to \u. \v. u *)
  let u = Term.mk_var "u" Ty.bool and v = Term.mk_var "v" Ty.bool in
  check "inst renames to avoid confusion" true
    (Term.aconv tm' (Term.mk_abs u (Term.mk_abs v u)))

let test_term_match () =
  (* match (p /\ q) against (x \/ y) /\ ~x *)
  let p = Term.mk_var "p" Ty.bool and q = Term.mk_var "q" Ty.bool in
  let pat = Boolean.mk_conj p q in
  let tm = Boolean.mk_conj (Boolean.mk_disj xb yb) (Boolean.mk_neg xb) in
  let theta, tyin = Term.term_match [] pat tm in
  check "no ty insts" true (tyin = []);
  check "instantiates correctly" true
    (Term.aconv (Term.vsubst theta pat) tm);
  (* bound variables cannot escape *)
  let lam_pat = Term.mk_abs xb p in
  let lam_tm = Term.mk_abs yb yb in
  Alcotest.check_raises "escape"
    (Failure "Term.term_match: bound variable would escape") (fun () ->
      ignore (Term.term_match [] lam_pat lam_tm))

(* ------------------------------------------------------------------ *)
(* Kernel rules                                                        *)
(* ------------------------------------------------------------------ *)

let test_refl_trans () =
  let th1 = Kernel.refl xb in
  check_str "refl" "|- (x = x)" (thm_str th1);
  let th2 = Kernel.trans th1 th1 in
  check_str "trans" "|- (x = x)" (thm_str th2);
  Alcotest.check_raises "trans misaligned"
    (Failure "Kernel.trans: middle terms differ") (fun () ->
      ignore (Kernel.trans th1 (Kernel.refl yb)))

let test_assume_eq_mp () =
  let th = Kernel.assume xb in
  check "hyp" true (Kernel.hyp th = [ xb ]);
  Alcotest.check_raises "assume non-bool"
    (Failure "Kernel.assume: not a proposition") (fun () ->
      ignore (Kernel.assume (Term.mk_var "n" Ty.num)));
  let eq = Kernel.assume (Term.mk_eq xb yb) in
  let th' = Kernel.eq_mp eq th in
  check "eq_mp concl" true (Term.aconv (Kernel.concl th') yb);
  check "eq_mp hyps" true (List.length (Kernel.hyp th') = 2)

let test_abs_freeness () =
  let th = Kernel.assume (Term.mk_eq xb xb) in
  Alcotest.check_raises "abs with free hyp"
    (Failure "Kernel.abs: variable free in hypotheses") (fun () ->
      ignore (Kernel.abs xb th))

let test_beta () =
  let lam = Term.mk_abs xb (Boolean.mk_conj xb yb) in
  let th = Kernel.beta (Term.mk_comb lam xb) in
  check "beta" true
    (Term.aconv (snd (Term.dest_eq (Kernel.concl th)))
       (Boolean.mk_conj xb yb));
  Alcotest.check_raises "beta general redex rejected"
    (Failure "Kernel.beta: not a trivial beta-redex") (fun () ->
      ignore (Kernel.beta (Term.mk_comb lam yb)))

let test_deduct () =
  let thx = Kernel.assume xb and thy = Kernel.assume yb in
  let th = Kernel.deduct_antisym_rule thx thy in
  check "deduct concl" true
    (Term.aconv (Kernel.concl th) (Term.mk_eq xb yb));
  check "deduct hyps" true (List.length (Kernel.hyp th) = 2)

let test_definitions_audit () =
  check "T is defined" true (List.mem_assoc "T" (Kernel.definitions ()));
  check "/\\ is defined" true
    (List.mem_assoc "/\\" (Kernel.definitions ()));
  check "LET is defined" true
    (List.mem_assoc "LET" (Kernel.definitions ()))

(* ------------------------------------------------------------------ *)
(* Boolean derived rules                                               *)
(* ------------------------------------------------------------------ *)

let test_truth () = check_str "TRUTH" "|- T" (thm_str Boolean.truth)

let test_conj_rules () =
  let th = Boolean.conj Boolean.truth Boolean.truth in
  check_str "conj" "|- (T /\\ T)" (thm_str th);
  check_str "conjunct1" "|- T" (thm_str (Boolean.conjunct1 th));
  check_str "conjunct2" "|- T" (thm_str (Boolean.conjunct2 th))

let test_disch_mp () =
  let pq = Boolean.mk_conj xb yb in
  let th = Boolean.disch pq (Boolean.conjunct2 (Kernel.assume pq)) in
  check "disch closes" true (Kernel.hyp th = []);
  let th' = Boolean.mp th (Kernel.assume pq) in
  check "mp" true (Term.aconv (Kernel.concl th') yb);
  check "undisch" true
    (Term.aconv (Kernel.concl (Boolean.undisch th)) yb)

let test_gen_spec () =
  let th = Boolean.gen xb (Kernel.refl xb) in
  let sp = Boolean.spec (Boolean.mk_neg yb) th in
  check "spec instantiates" true
    (Term.aconv (Kernel.concl sp)
       (Term.mk_eq (Boolean.mk_neg yb) (Boolean.mk_neg yb)))

let test_contr () =
  let th = Boolean.contr xb (Kernel.assume Boolean.f_tm) in
  check "contr concl" true (Term.aconv (Kernel.concl th) xb)

let test_disj () =
  let th = Boolean.disj1 Boolean.truth Boolean.f_tm in
  check "disj1" true
    (Term.aconv (Kernel.concl th)
       (Boolean.mk_disj Boolean.t_tm Boolean.f_tm));
  let th2 = Boolean.disj2 Boolean.f_tm Boolean.truth in
  check "disj2" true
    (Term.aconv (Kernel.concl th2)
       (Boolean.mk_disj Boolean.f_tm Boolean.t_tm))

(* Ground evaluation agrees with OCaml's booleans on random formulas. *)
let gen_formula =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then map (fun b -> `Const b) bool
        else
          frequency
            [
              (1, map (fun b -> `Const b) bool);
              (2, map2 (fun a b -> `And (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> `Or (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> `Xor (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map (fun a -> `Not a) (self (n - 1)));
              ( 1,
                map3
                  (fun a b c -> `Cond (a, b, c))
                  (self (n / 3)) (self (n / 3)) (self (n / 3)) );
            ]))

let rec f_eval = function
  | `Const b -> b
  | `And (a, b) -> f_eval a && f_eval b
  | `Or (a, b) -> f_eval a || f_eval b
  | `Xor (a, b) -> f_eval a <> f_eval b
  | `Not a -> not (f_eval a)
  | `Cond (a, b, c) -> if f_eval a then f_eval b else f_eval c

let rec f_term = function
  | `Const b -> Boolean.bool_const b
  | `And (a, b) -> Boolean.mk_conj (f_term a) (f_term b)
  | `Or (a, b) -> Boolean.mk_disj (f_term a) (f_term b)
  | `Xor (a, b) -> Boolean.mk_xor (f_term a) (f_term b)
  | `Not a -> Boolean.mk_neg (f_term a)
  | `Cond (a, b, c) -> Boolean.mk_cond (f_term a) (f_term b) (f_term c)

let prop_bool_eval =
  QCheck.Test.make ~count:200 ~name:"bool_eval_conv agrees with semantics"
    (QCheck.make gen_formula) (fun f ->
      let th = Boolean.bool_eval_conv (f_term f) in
      let _, rhs = Term.dest_eq (Kernel.concl th) in
      Kernel.hyp th = [] && rhs = Boolean.bool_const (f_eval f))

(* ------------------------------------------------------------------ *)
(* Pairs and LET                                                       *)
(* ------------------------------------------------------------------ *)

let test_pairs () =
  let p = Pairs.mk_pair xb (Boolean.mk_neg yb) in
  let thf = Pairs.proj_conv (Pairs.mk_fst p) in
  check "fst" true (Term.aconv (snd (Term.dest_eq (Kernel.concl thf))) xb);
  let ths = Pairs.proj_conv (Pairs.mk_snd p) in
  check "snd" true
    (Term.aconv (snd (Term.dest_eq (Kernel.concl ths)))
       (Boolean.mk_neg yb))

let test_balanced_tuples () =
  let xs = List.init 5 (fun i -> Term.mk_var (Printf.sprintf "a%d" i) Ty.bool) in
  let tup = Pairs.list_mk_pair xs in
  List.iteri
    (fun i x ->
      let proj = Pairs.proj tup i 5 in
      let th = Conv.memo_top_depth_conv Pairs.let_proj_conv proj in
      Alcotest.(check bool)
        (Printf.sprintf "proj %d" i)
        true
        (Term.aconv (snd (Term.dest_eq (Kernel.concl th))) x))
    xs

let test_let_conv () =
  let v = Term.mk_var "v" Ty.bool in
  let tm = Pairs.mk_let v (Boolean.bool_const true) (Boolean.mk_neg v) in
  let th = Pairs.let_conv tm in
  check "let" true
    (Term.aconv
       (snd (Term.dest_eq (Kernel.concl th)))
       (Boolean.mk_neg Boolean.t_tm))

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let test_conv_combinators () =
  let tm = Boolean.mk_conj Boolean.t_tm Boolean.f_tm in
  let th = Conv.rewrite_conv Boolean.and_clauses tm in
  check "rewrite" true
    (snd (Term.dest_eq (Kernel.concl th)) = Boolean.f_tm);
  let th2 = Conv.try_conv Conv.no_conv tm in
  check "try_conv falls back to refl" true
    (Term.aconv (fst (Term.dest_eq (Kernel.concl th2))) tm);
  Alcotest.check_raises "changed_conv"
    (Failure "Conv.changed_conv: no change") (fun () ->
      ignore (Conv.changed_conv Conv.all_conv tm))

(* Normalising a term that is already in normal form (a circuit
   embedding) proves [refl] and nothing else: "unchanged" costs no
   kernel rule below the top. *)
let test_memo_conv_normal_term () =
  let e = Hash.Embed.embed Hash.Embed.Bit_level (Iwls.mult 4) in
  let fd = e.Hash.Embed.fd in
  let r0 = Kernel.rule_count () in
  let th = Hash.Embed.circuit_norm_conv fd in
  Alcotest.(check int) "one rule" 1 (Kernel.rule_count () - r0);
  check "refl" true (Drule.lhs th == fd && Drule.rhs th == fd)

(* Random small terms over a terminating rule set: Boolean clauses with
   free variables, pair projections, LET and redexes under a binder.  The memoised normaliser
   must reach the right-hand side of the plain [top_depth_conv]. *)
let conv_rules =
  Conv.orelsec
    (Conv.rewrs_conv
       (Boolean.and_clauses @ Boolean.or_clauses @ Boolean.not_clauses
      @ Boolean.xor_clauses @ Boolean.cond_clauses))
    Pairs.let_proj_conv

let memo_conv_rules = Conv.memo_top_depth_conv conv_rules

let gen_conv_term =
  let vars = List.map (fun n -> Term.mk_var n Ty.bool) [ "x"; "y"; "z" ] in
  QCheck.Gen.(
    sized_size (int_bound 12) @@ fix (fun self n ->
        let leaf =
          oneof
            [ map Boolean.bool_const bool; map (List.nth vars) (int_bound 2) ]
        in
        if n = 0 then leaf
        else
          let sub = self (n / 2) in
          frequency
            [
              (1, leaf);
              (2, map2 Boolean.mk_conj sub sub);
              (2, map2 Boolean.mk_disj sub sub);
              (1, map2 Boolean.mk_xor sub sub);
              (1, map Boolean.mk_neg (self (n - 1)));
              (1, map3 Boolean.mk_cond sub sub sub);
              (1, map2 (fun a b -> Pairs.mk_fst (Pairs.mk_pair a b)) sub sub);
              (1, map2 (fun a b -> Pairs.mk_snd (Pairs.mk_pair a b)) sub sub);
              ( 1,
                map3
                  (fun i e b -> Pairs.mk_let (List.nth vars i) e b)
                  (int_bound 2) sub sub );
              ( 1,
                map2
                  (fun i b -> Boolean.mk_forall (List.nth vars i) b)
                  (int_bound 2) sub );
            ]))

let prop_memo_conv_agrees =
  QCheck.Test.make ~count:300
    ~name:"memo_top_depth_conv agrees with top_depth_conv"
    (QCheck.make ~print:Term.to_string gen_conv_term) (fun tm ->
      let th = memo_conv_rules tm in
      let th' = Conv.top_depth_conv conv_rules tm in
      Kernel.hyp th = [] && Drule.lhs th == tm
      && Drule.rhs th == Drule.rhs th')

let suite =
  [
    Alcotest.test_case "ty basics" `Quick test_ty_basics;
    Alcotest.test_case "ty subst/match" `Quick test_ty_subst_match;
    Alcotest.test_case "tyvars" `Quick test_tyvars;
    Alcotest.test_case "term typing" `Quick test_term_typing;
    Alcotest.test_case "alpha conversion" `Quick test_aconv;
    Alcotest.test_case "vsubst capture" `Quick test_vsubst_capture;
    Alcotest.test_case "vsubst simultaneous" `Quick test_vsubst_simultaneous;
    Alcotest.test_case "inst renaming" `Quick test_inst_rename;
    Alcotest.test_case "term matching" `Quick test_term_match;
    Alcotest.test_case "refl/trans" `Quick test_refl_trans;
    Alcotest.test_case "assume/eq_mp" `Quick test_assume_eq_mp;
    Alcotest.test_case "abs freeness" `Quick test_abs_freeness;
    Alcotest.test_case "beta" `Quick test_beta;
    Alcotest.test_case "deduct_antisym" `Quick test_deduct;
    Alcotest.test_case "definitions audit" `Quick test_definitions_audit;
    Alcotest.test_case "TRUTH" `Quick test_truth;
    Alcotest.test_case "conj rules" `Quick test_conj_rules;
    Alcotest.test_case "disch/mp" `Quick test_disch_mp;
    Alcotest.test_case "gen/spec" `Quick test_gen_spec;
    Alcotest.test_case "contr" `Quick test_contr;
    Alcotest.test_case "disj" `Quick test_disj;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bool_eval;
    Alcotest.test_case "pairs" `Quick test_pairs;
    Alcotest.test_case "balanced tuples" `Quick test_balanced_tuples;
    Alcotest.test_case "let conv" `Quick test_let_conv;
    Alcotest.test_case "conv combinators" `Quick test_conv_combinators;
    Alcotest.test_case "memo conv: normal term is one rule" `Quick
      test_memo_conv_normal_term;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |])
      prop_memo_conv_agrees;
  ]

(* ------------------------------------------------------------------ *)
(* Printer and miscellaneous                                           *)
(* ------------------------------------------------------------------ *)

let test_printer_budget () =
  (* printing a dag whose tree expansion is astronomically large must
     terminate (the printer truncates with "...") *)
  let rec grow t n =
    if n = 0 then t else grow (Boolean.mk_conj t t) (n - 1)
  in
  let big = grow (Term.mk_var "x" Ty.bool) 60 in
  let s = Term.to_string big in
  check "truncated output is finite" true (String.length s < 1_000_000)

(* The [Format]-based printer that [Term.to_string] replaced, kept as the
   reference its output must match byte for byte (parenthesisation, the
   20 000-node budget per term and the "..." elision). *)
let rec ref_pp budget ppf (tm : Term.t) =
  decr budget;
  if !budget < 0 then Format.pp_print_string ppf "..."
  else
    let go = ref_pp budget in
    match tm.Term.node with
    | Term.Var (n, _) | Term.Const (n, _) -> Format.pp_print_string ppf n
    | Term.Comb
        ({ node = Term.Comb ({ node = Term.Const ("=", _); _ }, l); _ }, r) ->
        Format.fprintf ppf "(%a = %a)" go l go r
    | Term.Comb
        ({ node = Term.Comb ({ node = Term.Const ("/\\", _); _ }, l); _ }, r)
      ->
        Format.fprintf ppf "(%a /\\ %a)" go l go r
    | Term.Comb
        ({ node = Term.Comb ({ node = Term.Const ("==>", _); _ }, l); _ }, r)
      ->
        Format.fprintf ppf "(%a ==> %a)" go l go r
    | Term.Comb
        ({ node = Term.Const ("!", _); _ }, { node = Term.Abs (v, b); _ }) ->
        Format.fprintf ppf "(!%a. %a)" go v go b
    | Term.Comb
        ({ node = Term.Comb ({ node = Term.Const (",", _); _ }, l); _ }, r) ->
        Format.fprintf ppf "(%a, %a)" go l go r
    | Term.Comb (f, x) -> Format.fprintf ppf "(%a %a)" go f go x
    | Term.Abs (v, b) -> Format.fprintf ppf "(\\%a. %a)" go v go b

let ref_to_string tm = Format.asprintf "%a" (ref_pp (ref 20_000)) tm

let ref_string_of_thm th =
  let pp = ref_pp (ref 20_000) in
  match Kernel.hyp th with
  | [] -> Format.asprintf "|- %a" pp (Kernel.concl th)
  | hs ->
      Format.asprintf "%a |- %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf h -> ref_pp (ref 20_000) ppf h))
        hs pp (Kernel.concl th)

let test_printer_reference () =
  let x = Term.mk_var "x" Ty.bool and y = Term.mk_var "y" Ty.bool in
  let terms =
    [
      Boolean.mk_forall x (Boolean.mk_imp x (Boolean.mk_conj x y));
      Term.mk_abs x (Pairs.mk_pair x (Boolean.mk_neg y));
      Term.mk_eq x (Boolean.mk_cond x y (Boolean.mk_xor x y));
      (let rec grow t n = if n = 0 then t else grow (Boolean.mk_conj t t) (n - 1) in
       grow x 40);
    ]
  in
  List.iter
    (fun tm ->
      Alcotest.(check string) "term" (ref_to_string tm) (Term.to_string tm))
    terms;
  let th = Kernel.assume (Boolean.mk_conj x y) in
  let th = Kernel.deduct_antisym_rule th (Kernel.assume (Boolean.mk_neg x)) in
  Alcotest.(check string) "hyps" (ref_string_of_thm th) (Kernel.string_of_thm th);
  (* a theorem past the node budget *)
  let e = Hash.Embed.embed Hash.Embed.Bit_level (Iwls.mult 16) in
  let cut = Cut.maximal e.Hash.Embed.circuit in
  let st = Hash.Synthesis.retime Hash.Embed.Bit_level e.Hash.Embed.circuit cut in
  let th = st.Hash.Synthesis.theorem in
  let s = Kernel.string_of_thm th in
  let has_sub sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "elided" true (has_sub "..." s);
  Alcotest.(check string) "theorem" (ref_string_of_thm th) s;
  Alcotest.(check string) "pp" s (Format.asprintf "%a" Kernel.pp_thm th)

let test_prove_hyp () =
  let p = Term.mk_var "p" Ty.bool in
  let th1 = Boolean.eqt_elim (Boolean.eqt_intro (Kernel.assume p)) in
  (* th1 : {p} |- p ; discharging with |- T should leave it unchanged *)
  let th2 = Boolean.prove_hyp Boolean.truth th1 in
  Alcotest.(check int) "hyp unchanged" 1 (List.length (Kernel.hyp th2));
  let th3 = Boolean.prove_hyp (Kernel.assume p) th1 in
  (* {p} |- p discharged with {p} |- p stays {p} |- p *)
  Alcotest.(check int) "still one hyp" 1 (List.length (Kernel.hyp th3))

let test_gen_spec_all () =
  let x = Term.mk_var "x" Ty.bool and y = Term.mk_var "y" Ty.bool in
  let th = Kernel.refl (Boolean.mk_conj x y) in
  let g = Boolean.gen_all [ x; y ] th in
  let s = Boolean.spec_all [ Boolean.t_tm; Boolean.f_tm ] g in
  check "round trip" true
    (Term.aconv (Kernel.concl s)
       (Term.mk_eq
          (Boolean.mk_conj Boolean.t_tm Boolean.f_tm)
          (Boolean.mk_conj Boolean.t_tm Boolean.f_tm)))

let test_rule_count_monotone () =
  let before = Kernel.rule_count () in
  ignore (Kernel.refl (Term.mk_var "z" Ty.bool));
  check "counter advances" true (Kernel.rule_count () > before)

let test_mk_const_at () =
  let c = Kernel.mk_const_at "FST" (Ty.fn (Ty.prod Ty.bool Ty.num) Ty.bool) in
  check "instantiated" true
    (Ty.equal (Term.type_of c) (Ty.fn (Ty.prod Ty.bool Ty.num) Ty.bool));
  check "bad instance rejected" true
    (try
       ignore (Kernel.mk_const_at "FST" (Ty.fn Ty.bool Ty.bool));
       false
     with Failure _ -> true)

let test_new_axiom_requires_bool () =
  Alcotest.check_raises "non-boolean axiom"
    (Failure "Kernel.new_axiom: not a proposition") (fun () ->
      ignore (Kernel.new_axiom "BAD" (Term.mk_var "n" Ty.num)))

let suite = suite @ [
    Alcotest.test_case "printer budget" `Quick test_printer_budget;
    Alcotest.test_case "printer matches Format reference" `Quick
      test_printer_reference;
    Alcotest.test_case "prove_hyp" `Quick test_prove_hyp;
    Alcotest.test_case "gen_all/spec_all" `Quick test_gen_spec_all;
    Alcotest.test_case "rule counter" `Quick test_rule_count_monotone;
    Alcotest.test_case "mk_const_at" `Quick test_mk_const_at;
    Alcotest.test_case "axioms are propositions" `Quick
      test_new_axiom_requires_bool;
  ]

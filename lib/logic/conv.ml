type thm = Kernel.thm
type conv = Term.t -> thm

let all_conv = Kernel.refl
let no_conv _ = failwith "Conv.no_conv"

let thenc c1 c2 tm =
  let th1 = c1 tm in
  let th2 = c2 (Drule.rhs th1) in
  Kernel.trans th1 th2

let orelsec c1 c2 tm = try c1 tm with Failure _ -> c2 tm
let try_conv c = orelsec c all_conv

let rec repeatc c tm =
  (orelsec (thenc c (fun t -> repeatc c t)) all_conv) tm

let changed_conv c tm =
  let th = c tm in
  if Term.aconv (Drule.lhs th) (Drule.rhs th) then
    failwith "Conv.changed_conv: no change"
  else th

let rec first_conv cs tm =
  match cs with
  | [] -> failwith "Conv.first_conv: no conversion applied"
  | c :: rest -> ( try c tm with Failure _ -> first_conv rest tm)

let rand_conv c tm =
  let f, x = Term.dest_comb tm in
  Drule.ap_term f (c x)

let rator_conv c tm =
  let f, x = Term.dest_comb tm in
  Drule.ap_thm (c f) x

let abs_conv c tm =
  let v, body = Term.dest_abs tm in
  Kernel.abs v (c body)

let comb_conv c tm =
  let f, x = Term.dest_comb tm in
  Kernel.mk_comb_rule (c f) (c x)

let binder_conv c tm = rand_conv (abs_conv c) tm

let sub_conv c tm =
  match tm.Term.node with
  | Term.Comb (_, _) -> comb_conv c tm
  | Term.Abs (_, _) -> abs_conv c tm
  | _ -> all_conv tm

let rec depth_conv c tm =
  thenc (sub_conv (depth_conv c)) (repeatc c) tm

let rec redepth_conv c tm =
  thenc (sub_conv (redepth_conv c))
    (try_conv (thenc c (fun t -> redepth_conv c t)))
    tm

let rec top_depth_conv c tm =
  thenc (repeatc c)
    (try_conv
       (thenc (changed_conv (sub_conv (fun t -> top_depth_conv c t)))
          (try_conv (thenc c (fun t -> top_depth_conv c t)))))
    tm

let rec once_depth_conv c tm =
  (try_conv (orelsec c (sub_conv (fun t -> once_depth_conv c t)))) tm

let rewr_conv th tm =
  let l, _ = Term.dest_eq (Kernel.concl th) in
  let theta, tyin = Term.term_match [] l tm in
  let th' = Kernel.inst theta (Kernel.inst_type tyin th) in
  (* Align possible alpha-differences between the instantiated lhs and the
     original term. *)
  let l' = Drule.lhs th' in
  if l' == tm then th' else Kernel.trans (Drule.alpha_link tm l') th'

let rewrs_conv ths = first_conv (List.map rewr_conv ths)
let rewrite_conv ths = top_depth_conv (rewrs_conv ths)

(* Hook polled once per memo miss inside the normaliser below; the
   synthesis layer installs a budget check here so long normalisation runs
   can time out without threading a deadline through every conversion.
   Domain-local: each worker installs and polls its own hook. *)
let poll_key = Domain.DLS.new_key (fun () -> ref (fun () -> ()))
let poll () = !(Domain.DLS.get poll_key) ()

let with_poll hook f =
  let cell = Domain.DLS.get poll_key in
  let saved = !cell in
  cell := hook;
  Fun.protect ~finally:(fun () -> cell := saved) f

let memo_top_depth_conv c =
  (* The memo is allocated once per *partial application* and persists
     across calls: rewrite sets are context-independent, so a cached
     [|- t = t'] stays valid forever.  Generation bumps (wholesale
     invalidation when the table outgrows its cap) happen only between
     top-level calls — evicting entries mid-recursion could re-expand
     shared dag spines exponentially.

     One table per domain (keyed per partial application): cached
     theorems mention terms, and terms must not cross domains, so a
     worker always starts from an empty table.  All application sites
     are module-level bindings, so the number of DLS keys is bounded.

     Internally "unchanged" carries no theorem ([None]): a subterm that
     is already in normal form costs a memo probe and no kernel rule.
     [refl] is built only for the unchanged side of a changed [Comb]. *)
  let memo_key =
    Domain.DLS.new_key (fun () : thm option Memo.t -> Memo.create ~bits:12 ())
  in
  fun tm0 ->
    let memo = Domain.DLS.get memo_key in
    Memo.new_call memo;
    let rec norm tm =
      match Memo.find memo tm.Term.id with
      | Some r -> r
      | None ->
          poll ();
          let r = step tm in
          Memo.add memo tm.Term.id r;
          r
    and step tm =
      (* Reduce at the top as long as possible, then normalise children and
         retry the top only if a child changed (child normalisation can
         expose new redexes). *)
      let th1 = repeat_top tm in
      match sub (match th1 with None -> tm | Some th -> Drule.rhs th) with
      | None -> th1
      | Some th2 -> (
          let th12 =
            match th1 with None -> th2 | Some th1 -> Kernel.trans th1 th2
          in
          match try_top (Drule.rhs th2) with
          | None -> Some th12
          | Some th3 -> Some (Kernel.trans th12 th3))
    and sub tm =
      match tm.Term.node with
      | Term.Comb (f, x) -> (
          match (norm f, norm x) with
          | None, None -> None
          | thf, thx ->
              let side t = function Some th -> th | None -> Kernel.refl t in
              Some (Kernel.mk_comb_rule (side f thf) (side x thx)))
      | Term.Abs (v, body) -> Option.map (Kernel.abs v) (norm body)
      | _ -> None
    and repeat_top tm =
      match (try Some (c tm) with Failure _ -> None) with
      | None -> None
      | Some th ->
          let tm' = Drule.rhs th in
          if Term.aconv tm' tm then None
          else
            match repeat_top tm' with
            | None -> Some th
            | Some th' -> Some (Kernel.trans th th')
    and try_top tm =
      match (try Some (c tm) with Failure _ -> None) with
      | None -> None
      | Some th -> (
          match norm (Drule.rhs th) with
          | None -> Some th
          | Some th' -> Some (Kernel.trans th th'))
    in
    (* A recording trace must hold the answer.  When the whole answer is
       one theorem of [c]'s rule set returned as is (an un-instantiated
       clause), link it through [refl]. *)
    match norm tm0 with
    | None -> Kernel.refl tm0
    | Some th when Kernel.outside_trace th -> Kernel.trans (Kernel.refl tm0) th
    | Some th -> th

let memo_stats = Memo.stats
let global_memo_stats = Memo.global_stats
let conv_rule c th = Kernel.eq_mp (c (Kernel.concl th)) th

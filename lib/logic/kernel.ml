type thm = {
  hyps : Term.t list;
  concl : Term.t;
  ep : int; (* recording epoch this thm was proved under; 0 = none *)
  ix : int; (* step index in that epoch's trace; -1 = not recorded *)
}

let concl th = th.concl
let hyp th = th.hyps
let dest_thm th = (th.hyps, th.concl)

let string_of_thm th =
  let concl = "|- " ^ Term.to_string th.concl in
  match th.hyps with
  | [] -> concl
  | hs -> String.concat ", " (List.map Term.to_string hs) ^ " " ^ concl

let pp_thm ppf th = Format.pp_print_string ppf (string_of_thm th)

(* ------------------------------------------------------------------ *)
(* Hypothesis sets: lists sorted by alpha-order, without duplicates.   *)
(* ------------------------------------------------------------------ *)

let rec term_union l1 l2 =
  match (l1, l2) with
  | [], l | l, [] -> l
  | h1 :: t1, h2 :: t2 ->
      let c = Term.alphaorder h1 h2 in
      if c = 0 then h1 :: term_union t1 t2
      else if c < 0 then h1 :: term_union t1 l2
      else h2 :: term_union l1 t2

let term_remove t l = List.filter (fun t' -> not (Term.aconv t t')) l

let term_image f l =
  List.sort_uniq Term.alphaorder (List.map f l)

(* ------------------------------------------------------------------ *)
(* Signature                                                           *)
(* ------------------------------------------------------------------ *)

let the_type_constants : (string, int) Hashtbl.t = Hashtbl.create 16
let the_term_constants : (string, Ty.t) Hashtbl.t = Hashtbl.create 64

let () =
  Hashtbl.replace the_type_constants "bool" 0;
  Hashtbl.replace the_type_constants "fun" 2;
  Hashtbl.replace the_term_constants "="
    (Ty.fn Ty.alpha (Ty.fn Ty.alpha Ty.bool))

let new_type name arity =
  match Hashtbl.find_opt the_type_constants name with
  | Some a when a = arity -> ()
  | Some _ -> failwith ("Kernel.new_type: arity clash for " ^ name)
  | None -> Hashtbl.replace the_type_constants name arity

let new_constant name ty =
  if Hashtbl.mem the_term_constants name then
    failwith ("Kernel.new_constant: already declared: " ^ name)
  else Hashtbl.replace the_term_constants name ty

let get_const_type name = Hashtbl.find the_term_constants name
let is_constant name = Hashtbl.mem the_term_constants name

let types () =
  Hashtbl.fold (fun n a acc -> (n, a) :: acc) the_type_constants []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let constants () =
  Hashtbl.fold (fun n ty acc -> (n, ty) :: acc) the_term_constants []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mk_const name tyin =
  match Hashtbl.find_opt the_term_constants name with
  | None -> failwith ("Kernel.mk_const: undeclared constant: " ^ name)
  | Some gty -> Term.mk_const_raw name (Ty.subst tyin gty)

let mk_const_at name ty =
  match Hashtbl.find_opt the_term_constants name with
  | None -> failwith ("Kernel.mk_const_at: undeclared constant: " ^ name)
  | Some gty ->
      let tyin = Ty.match_ gty ty [] in
      Term.mk_const_raw name (Ty.subst tyin gty)

(* ------------------------------------------------------------------ *)
(* Proof traces                                                        *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  (* One event per primitive inference, in derivation order.  Integer
     operands are indices of earlier events in the same trace.  The
     three reference events ([Axiom_ref], [Def_ref], [Import]) are not
     inferences: they pull a theorem of the ambient theory (an axiom, a
     definitional theorem, or a theorem registered with
     [register_theorem]) into the trace by name, so an independent
     checker can resolve it against its own theory and verify the
     sequent instead of trusting ours. *)
  type event =
    | Refl of Term.t
    | Trans of int * int
    | Mk_comb of int * int
    | Abs of Term.t * int
    | Beta of Term.t
    | Assume of Term.t
    | Eq_mp of int * int
    | Deduct of int * int
    | Inst of (Term.t * Term.t) list * int
    | Inst_type of (string * Ty.t) list * int
    | Axiom_ref of string
    | Def_ref of string
    | Import of string

  (* Stored as a struct of arrays — a tag byte and two integer
     operands per step, with a boxed payload slot only for the events
     that carry one (terms, substitutions, names).  The dominant
     events of a synthesis proof (trans / mk_comb / eq_mp / deduct)
     then record with three unboxed stores and no allocation, which is
     what keeps the recording overhead a few percent instead of
     tens. *)
  type payload =
    | P_none
    | P_subst of (Term.t * Term.t) list
    | P_tysubst of (string * Ty.t) list
    | P_name of string

  (* Term payloads (refl/abs/beta/assume — a third of a typical trace)
     live in their own [Term.t array] rather than behind a [payload]
     constructor: the per-event box would be promoted out of the minor
     heap on every collection, and that churn dominates recording cost.
     The remaining payload kinds are rare (substitutions, theory-ref
     names) and stay boxed. *)
  type t = {
    t_epoch : int;
    tags : Bytes.t;
    opa : int array;
    opb : int array;
    tms : Term.t array;
    pay : payload array;
  }

  let epoch tr = tr.t_epoch
  let length tr = Bytes.length tr.tags

  let event tr k =
    let a = Array.unsafe_get tr.opa k and b = Array.unsafe_get tr.opb k in
    match (Bytes.get tr.tags k, Array.unsafe_get tr.pay k) with
    | 'r', _ -> Refl (Array.unsafe_get tr.tms k)
    | 't', _ -> Trans (a, b)
    | 'c', _ -> Mk_comb (a, b)
    | 'l', _ -> Abs (Array.unsafe_get tr.tms k, a)
    | 'b', _ -> Beta (Array.unsafe_get tr.tms k)
    | 'a', _ -> Assume (Array.unsafe_get tr.tms k)
    | 'm', _ -> Eq_mp (a, b)
    | 'd', _ -> Deduct (a, b)
    | 'i', P_subst s -> Inst (s, a)
    | 'y', P_tysubst s -> Inst_type (s, a)
    | 'A', P_name n -> Axiom_ref n
    | 'D', P_name n -> Def_ref n
    | 'I', P_name n -> Import n
    | _ -> assert false
end

(* ------------------------------------------------------------------ *)
(* Rule counter and per-domain recording state                         *)
(* ------------------------------------------------------------------ *)

(* Per-domain, registered for cross-domain totals (see Term/Ty for the
   same pattern).  Recording is also per-domain: a trace captures one
   domain's derivation, which is exactly the unit of work the pool
   schedules. *)

type rec_state = {
  mutable r_epoch : int;
  mutable r_tags : Bytes.t;
  mutable r_a : int array;
  mutable r_b : int array;
  mutable r_tm : Term.t array;
  mutable r_pay : Trace.payload array;
  mutable r_n : int;
  r_imports : (int, thm * int) Hashtbl.t;
      (* resolved theory refs, keyed by conclusion intern id (imports
         are closed theorems, so the hash-consed conclusion identifies
         one; the stored thm re-checks physical equality on hit) *)
  mutable r_poison : string option; (* first unresolvable input, if any *)
}

type rstate = {
  mutable rules : int;
  mutable recb : rec_state option;
  mutable r_spare : rec_state option;
      (* retired recording buffers, reused by the next [start_recording]
         on this domain: repeated recordings (serve daemon, benchmarks)
         would otherwise re-grow multi-thousand-entry arrays each run,
         and the major-heap churn of that costs more than the recording
         itself *)
}

let r_registry_mu = Mutex.create ()
let r_registry : rstate list ref = ref []

let r_key =
  Domain.DLS.new_key (fun () ->
      let st = { rules = 0; recb = None; r_spare = None } in
      Mutex.protect r_registry_mu (fun () -> r_registry := st :: !r_registry);
      st)

let rule_count () = (Domain.DLS.get r_key).rules

let total_rule_count () =
  Mutex.protect r_registry_mu (fun () ->
      List.fold_left (fun acc st -> acc + st.rules) 0 !r_registry)

(* ------------------------------------------------------------------ *)
(* Theory extension registries                                         *)
(* ------------------------------------------------------------------ *)

(* Guarded by one mutex so worker domains can read a consistent view
   (certificate headers are built from these on whichever domain ran
   the synthesis).  Lists are kept in reverse insertion order and
   re-reversed by the accessors, so readers always see insertion
   order — the deterministic order certificate headers rely on. *)

let ext_mu = Mutex.create ()
let the_definitions : (string * thm) list ref = ref []
let the_axioms : (string * thm) list ref = ref []
let the_registered : (string * thm) list ref = ref []

let axioms () = Mutex.protect ext_mu (fun () -> List.rev !the_axioms)
let definitions () = Mutex.protect ext_mu (fun () -> List.rev !the_definitions)

let registered_theorems () =
  Mutex.protect ext_mu (fun () -> List.rev !the_registered)

let register_theorem name th =
  Mutex.protect ext_mu (fun () ->
      if List.mem_assoc name !the_registered then
        failwith ("Kernel.register_theorem: already registered: " ^ name)
      else the_registered := (name, th) :: !the_registered)

(* Resolve a theorem proved outside the current trace: it must be an
   axiom, a definitional theorem, or a registered theorem — found by
   physical equality, which hash-consing makes equivalent to "the same
   theorem value the theory module exported". *)
let lookup_extension th =
  Mutex.protect ext_mu (fun () ->
      let find l = List.find_opt (fun (_, t) -> t == th) l in
      match find !the_axioms with
      | Some (n, _) -> Some ('A', n)
      | None -> (
          match find !the_definitions with
          | Some (n, _) -> Some ('D', n)
          | None -> (
              match find !the_registered with
              | Some (n, _) -> Some ('I', n)
              | None -> None)))

(* ------------------------------------------------------------------ *)
(* Recording plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* Filler for unused slots of the term-payload array (never read: the
   tag byte says which slots carry a term). *)
let dummy_tm = lazy (Term.mk_var "?trace" Ty.bool)

let grow rs =
  let cap = if rs.r_n = 0 then 1024 else 2 * rs.r_n in
  let tags = Bytes.make cap ' ' in
  Bytes.blit rs.r_tags 0 tags 0 rs.r_n;
  let a = Array.make cap (-1) in
  Array.blit rs.r_a 0 a 0 rs.r_n;
  let b = Array.make cap (-1) in
  Array.blit rs.r_b 0 b 0 rs.r_n;
  let tm = Array.make cap (Lazy.force dummy_tm) in
  Array.blit rs.r_tm 0 tm 0 rs.r_n;
  let p = Array.make cap Trace.P_none in
  Array.blit rs.r_pay 0 p 0 rs.r_n;
  rs.r_tags <- tags;
  rs.r_a <- a;
  rs.r_b <- b;
  rs.r_tm <- tm;
  rs.r_pay <- p

(* The payload-free push: three unboxed stores and a counter bump.
   Trans/mk_comb/eq_mp/deduct — the bulk of a synthesis trace — go
   through here and never touch the payload arrays (their slots keep
   the filler values, which [Trace.event] never reads for these
   tags). *)
let push rs tag i j =
  if rs.r_n = Bytes.length rs.r_tags then grow rs;
  let k = rs.r_n in
  Bytes.unsafe_set rs.r_tags k tag;
  Array.unsafe_set rs.r_a k i;
  Array.unsafe_set rs.r_b k j;
  rs.r_n <- k + 1;
  k

let push_tm rs tag i tm =
  let k = push rs tag i (-1) in
  Array.unsafe_set rs.r_tm k tm;
  k

let push_pay rs tag i p =
  let k = push rs tag i (-1) in
  Array.unsafe_set rs.r_pay k p;
  k

(* The step index standing for input theorem [th], appending a
   reference event if it comes from the ambient theory.  Returns -1 and
   poisons the trace when [th] cannot be accounted for (e.g. it leaked
   out of a memo table populated before recording started): the proof
   itself proceeds untouched, but [stop_recording] reports the failure
   instead of emitting a bogus certificate. *)
let input rs th =
  if th.ep = rs.r_epoch && th.ix >= 0 then th.ix
  else if not (rs.r_poison == None) then -1
  else
    match Hashtbl.find_opt rs.r_imports th.concl.Term.id with
    | Some (t, i) when t == th -> i
    | _ -> (
        match lookup_extension th with
        | Some (tag, name) ->
            let i = push_pay rs tag (-1) (Trace.P_name name) in
            Hashtbl.replace rs.r_imports th.concl.Term.id (th, i);
            i
        | None ->
            rs.r_poison <-
              Some
                ("input theorem proved outside the trace and not in the \
                  theory: " ^ string_of_thm th);
            -1)

let rec0_tm_slow rs hyps concl tag tm =
  if not (rs.r_poison == None) then { hyps; concl; ep = rs.r_epoch; ix = -1 }
  else { hyps; concl; ep = rs.r_epoch; ix = push_tm rs tag (-1) tm }

let[@inline] rec0_tm rs hyps concl tag tm =
  let k = rs.r_n in
  if rs.r_poison == None && k < Bytes.length rs.r_tags then begin
    Bytes.unsafe_set rs.r_tags k tag;
    Array.unsafe_set rs.r_a k (-1);
    Array.unsafe_set rs.r_b k (-1);
    Array.unsafe_set rs.r_tm k tm;
    rs.r_n <- k + 1;
    { hyps; concl; ep = rs.r_epoch; ix = k }
  end
  else rec0_tm_slow rs hyps concl tag tm

let rec0_pay rs hyps concl tag p =
  if not (rs.r_poison == None) then { hyps; concl; ep = rs.r_epoch; ix = -1 }
  else { hyps; concl; ep = rs.r_epoch; ix = push_pay rs tag (-1) p }

let rec1_tm rs hyps concl th tag tm =
  let i = input rs th in
  if i < 0 then { hyps; concl; ep = rs.r_epoch; ix = -1 }
  else { hyps; concl; ep = rs.r_epoch; ix = push_tm rs tag i tm }

let rec1_pay rs hyps concl th tag p =
  let i = input rs th in
  if i < 0 then { hyps; concl; ep = rs.r_epoch; ix = -1 }
  else { hyps; concl; ep = rs.r_epoch; ix = push_pay rs tag i p }

let rec2_slow rs hyps concl th1 th2 tag =
  let i = input rs th1 in
  let j = input rs th2 in
  if i < 0 || j < 0 then { hyps; concl; ep = rs.r_epoch; ix = -1 }
  else { hyps; concl; ep = rs.r_epoch; ix = push rs tag i j }

(* Specialised for the common case — both premises recorded in this
   trace and the buffer has room — with a tail call to the general
   path otherwise.  [@inline] is advisory without flambda, so the hot
   primitives below inline this test by hand instead of paying three
   nested calls per inference. *)
let[@inline] rec2 rs hyps concl th1 th2 tag =
  let ep = rs.r_epoch in
  let k = rs.r_n in
  if
    th1.ep = ep && th1.ix >= 0 && th2.ep = ep && th2.ix >= 0
    && k < Bytes.length rs.r_tags
  then begin
    Bytes.unsafe_set rs.r_tags k tag;
    Array.unsafe_set rs.r_a k th1.ix;
    Array.unsafe_set rs.r_b k th2.ix;
    rs.r_n <- k + 1;
    { hyps; concl; ep; ix = k }
  end
  else rec2_slow rs hyps concl th1 th2 tag

let epoch_ctr = Atomic.make 0

let start_recording () =
  let st = Domain.DLS.get r_key in
  (match st.recb with
  | Some _ -> failwith "Kernel.start_recording: already recording"
  | None -> ());
  (* Theorems memoised before this point would surface mid-proof as
     inputs with no recorded derivation; drop them now.  Any that slip
     through anyway (foreign epoch) poison the trace rather than
     corrupt it. *)
  Memo.invalidate_domain ();
  let ep = 1 + Atomic.fetch_and_add epoch_ctr 1 in
  let rs =
    match st.r_spare with
    | Some rs ->
        st.r_spare <- None;
        rs.r_epoch <- ep;
        rs.r_n <- 0;
        (* drop payload pointers left over from the previous recording,
           so a reused buffer does not keep its terms alive *)
        Array.fill rs.r_pay 0 (Array.length rs.r_pay) Trace.P_none;
        Array.fill rs.r_tm 0 (Array.length rs.r_tm) (Lazy.force dummy_tm);
        Hashtbl.reset rs.r_imports;
        rs.r_poison <- None;
        rs
    | None ->
        {
          r_epoch = ep;
          r_tags = Bytes.empty;
          r_a = [||];
          r_b = [||];
          r_tm = [||];
          r_pay = [||];
          r_n = 0;
          r_imports = Hashtbl.create 64;
          r_poison = None;
        }
  in
  st.recb <- Some rs

let recording () = (Domain.DLS.get r_key).recb <> None

let stop_recording () =
  let st = Domain.DLS.get r_key in
  match st.recb with
  | None -> failwith "Kernel.stop_recording: not recording"
  | Some rs -> (
      st.recb <- None;
      st.r_spare <- Some rs;
      match rs.r_poison with
      | Some msg -> Error msg
      | None ->
          Ok
            {
              Trace.t_epoch = rs.r_epoch;
              tags = Bytes.sub rs.r_tags 0 rs.r_n;
              opa = Array.sub rs.r_a 0 rs.r_n;
              opb = Array.sub rs.r_b 0 rs.r_n;
              tms = Array.sub rs.r_tm 0 rs.r_n;
              pay = Array.sub rs.r_pay 0 rs.r_n;
            })

let outside_trace th =
  match (Domain.DLS.get r_key).recb with
  | None -> false
  | Some rs -> not (th.ep = rs.r_epoch && th.ix >= 0)

let step_in (tr : Trace.t) th =
  if th.ep = tr.Trace.t_epoch && th.ix >= 0 then Some th.ix else None

(* ------------------------------------------------------------------ *)
(* Primitive rules                                                     *)
(* ------------------------------------------------------------------ *)

let refl t =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  let concl = Term.mk_eq t t in
  match st.recb with
  | None -> { hyps = []; concl; ep = 0; ix = -1 }
  | Some rs -> rec0_tm rs [] concl 'r' t

let trans th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  let a, b = Term.dest_eq th1.concl in
  let b', c = Term.dest_eq th2.concl in
  if not (Term.aconv b b') then failwith "Kernel.trans: middle terms differ"
  else
    let hyps = term_union th1.hyps th2.hyps in
    let concl = Term.mk_eq a c in
    match st.recb with
    | None -> { hyps; concl; ep = 0; ix = -1 }
    | Some rs -> rec2 rs hyps concl th1 th2 't'

let mk_comb_rule th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  let f, g = Term.dest_eq th1.concl in
  let x, y = Term.dest_eq th2.concl in
  (match (Term.type_of f).Ty.node with
  | Ty.Tyapp ("fun", [ a; _ ]) when a == Term.type_of x -> ()
  | _ -> failwith "Kernel.mk_comb_rule: types do not agree");
  let hyps = term_union th1.hyps th2.hyps in
  let concl = Term.mk_eq (Term.mk_comb f x) (Term.mk_comb g y) in
  match st.recb with
  | None -> { hyps; concl; ep = 0; ix = -1 }
  | Some rs -> rec2 rs hyps concl th1 th2 'c'

let abs v th =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if not (Term.is_var v) then failwith "Kernel.abs: not a variable"
  else if List.exists (Term.free_in v) th.hyps then
    failwith "Kernel.abs: variable free in hypotheses"
  else
    let l, r = Term.dest_eq th.concl in
    let concl = Term.mk_eq (Term.mk_abs v l) (Term.mk_abs v r) in
    match st.recb with
    | None -> { hyps = th.hyps; concl; ep = 0; ix = -1 }
    | Some rs -> rec1_tm rs th.hyps concl th 'l' v

let beta tm =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match tm.Term.node with
  | Term.Comb ({ Term.node = Term.Abs (v, body); _ }, arg) when arg == v -> (
      let concl = Term.mk_eq tm body in
      match st.recb with
      | None -> { hyps = []; concl; ep = 0; ix = -1 }
      | Some rs -> rec0_tm rs [] concl 'b' tm)
  | _ -> failwith "Kernel.beta: not a trivial beta-redex"

let assume p =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if not (Ty.equal (Term.type_of p) Ty.bool) then
    failwith "Kernel.assume: not a proposition"
  else
    match st.recb with
    | None -> { hyps = [ p ]; concl = p; ep = 0; ix = -1 }
    | Some rs -> rec0_tm rs [ p ] p 'a' p

let eq_mp th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  let a, b = Term.dest_eq th1.concl in
  if not (Term.aconv a th2.concl) then
    failwith "Kernel.eq_mp: theorems do not align"
  else
    let hyps = term_union th1.hyps th2.hyps in
    match st.recb with
    | None -> { hyps; concl = b; ep = 0; ix = -1 }
    | Some rs -> rec2 rs hyps b th1 th2 'm'

let deduct_antisym_rule th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  let hyps =
    term_union (term_remove th2.concl th1.hyps)
      (term_remove th1.concl th2.hyps)
  in
  let concl = Term.mk_eq th1.concl th2.concl in
  match st.recb with
  | None -> { hyps; concl; ep = 0; ix = -1 }
  | Some rs -> rec2 rs hyps concl th1 th2 'd'

let inst theta th =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if theta = [] then th
  else
    let hyps = term_image (Term.vsubst theta) th.hyps in
    let concl = Term.vsubst theta th.concl in
    match st.recb with
    | None -> { hyps; concl; ep = 0; ix = -1 }
    | Some rs -> rec1_pay rs hyps concl th 'i' (Trace.P_subst theta)

let inst_type tyin th =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if tyin = [] then th
  else
    let hyps = term_image (Term.inst tyin) th.hyps in
    let concl = Term.inst tyin th.concl in
    match st.recb with
    | None -> { hyps; concl; ep = 0; ix = -1 }
    | Some rs -> rec1_pay rs hyps concl th 'y' (Trace.P_tysubst tyin)

(* ------------------------------------------------------------------ *)
(* Extension principles                                                *)
(* ------------------------------------------------------------------ *)

let new_basic_definition eq =
  let l, r = Term.dest_eq eq in
  let name, ty = Term.dest_var l in
  if Term.frees r <> [] then
    failwith "Kernel.new_basic_definition: definiens has free variables"
  else if
    not
      (List.for_all
         (fun v -> List.mem v (Ty.tyvars ty))
         (List.concat_map (fun v -> Ty.tyvars (snd (Term.dest_var v)))
            (Term.frees r))
      && List.for_all
           (fun v -> List.mem v (Ty.tyvars ty))
           (Ty.tyvars (Term.type_of r)))
  then failwith "Kernel.new_basic_definition: type variables escape"
  else begin
    new_constant name ty;
    let st = Domain.DLS.get r_key in
    st.rules <- st.rules + 1;
    let concl = Term.mk_eq (mk_const name []) r in
    let th =
      match st.recb with
      | None -> { hyps = []; concl; ep = 0; ix = -1 }
      | Some rs -> rec0_pay rs [] concl 'D' (Trace.P_name name)
    in
    Mutex.protect ext_mu (fun () ->
        the_definitions := (name, th) :: !the_definitions);
    th
  end

let new_axiom name p =
  if not (Ty.equal (Term.type_of p) Ty.bool) then
    failwith "Kernel.new_axiom: not a proposition"
  else begin
    let st = Domain.DLS.get r_key in
    st.rules <- st.rules + 1;
    let th =
      match st.recb with
      | None -> { hyps = []; concl = p; ep = 0; ix = -1 }
      | Some rs -> rec0_pay rs [] p 'A' (Trace.P_name name)
    in
    Mutex.protect ext_mu (fun () -> the_axioms := (name, th) :: !the_axioms);
    th
  end

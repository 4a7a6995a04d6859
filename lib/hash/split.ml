open Logic

type t = {
  f_term : Term.t;
  g_term : Term.t;
  x_ty : Ty.t;
  split_thm : Kernel.thm;
}

(* Build f and g terms for a (possibly unvalidated) gate set. *)
let build_terms (e : Embed.t) f_gate_list =
  let c = e.Embed.circuit in
  let in_f = Array.make (Circuit.n_signals c) false in
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate _ -> in_f.(s) <- true
      | Circuit.Input _ | Circuit.Reg_out _ ->
          Errors.cut_mismatch "cut member %d is not a gate" s)
    f_gate_list;
  (* consumers outside f *)
  let consumed_outside = Array.make (Circuit.n_signals c) false in
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Gate (_, args) when not in_f.(s) ->
          List.iter (fun a -> consumed_outside.(a) <- true) args
      | _ -> ())
    c.Circuit.drivers;
  Array.iter (fun (_, s) -> consumed_outside.(s) <- true) c.Circuit.outputs;
  Array.iter
    (fun (r : Circuit.register) -> consumed_outside.(r.Circuit.data) <- true)
    c.Circuit.registers;
  let boundary =
    List.sort compare
      (List.filter (fun s -> consumed_outside.(s)) f_gate_list)
  in
  let passthrough =
    let keep = ref [] in
    Array.iteri
      (fun s d ->
        match d with
        | Circuit.Reg_out r when consumed_outside.(s) -> keep := r :: !keep
        | _ -> ())
      c.Circuit.drivers;
    List.sort compare !keep
  in
  let n_reg = Array.length c.Circuit.registers in
  let level = e.Embed.level in
  (* ---- f : s -> x ---- *)
  let sf_var = Term.mk_var "sf" e.Embed.s_ty in
  let fwire = Array.make (Circuit.n_signals c) sf_var in
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Reg_out r -> fwire.(s) <- Pairs.proj sf_var r n_reg
      | Circuit.Input _ ->
          fwire.(s) <- e.Embed.i_var (* flagged below if used by f *)
      | Circuit.Gate _ ->
          fwire.(s) <-
            Term.mk_var
              (Printf.sprintf "v%d" s)
              (Embed.signal_ty level (Circuit.width_of c s)))
    c.Circuit.drivers;
  if boundary = [] && passthrough = [] then
    Errors.cut_mismatch "empty retimed state: nothing to retime";
  let topo = Circuit.topo_order c in
  (* f gate terms: a dag over projections of sf *)
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args) when in_f.(s) ->
          List.iter
            (fun a ->
              match c.Circuit.drivers.(a) with
              | Circuit.Input _ ->
                  Errors.cut_mismatch
                    "f depends on primary input %d: it cannot be typed \
                     as a function of the state (false cut)"
                    a
              | Circuit.Gate _ when not in_f.(a) ->
                  Errors.cut_mismatch
                    "f-gate %d reads non-f gate %d (false cut)" s a
              | _ -> ())
            args;
          fwire.(s) <-
            Embed.gate_term level op (List.map (fun a -> fwire.(a)) args)
      | _ -> ())
    topo;
  let x_components =
    List.map (fun s -> fwire.(s)) boundary
    @ List.map (fun r -> Pairs.proj sf_var r n_reg) passthrough
  in
  let f_result = Pairs.list_mk_pair x_components in
  let f_term = Term.mk_abs sf_var f_result in
  let x_ty = Term.type_of f_result in
  (* ---- g : i -> x -> o # s' ---- *)
  let xg_var = Term.mk_var "xg" x_ty in
  let ig_var = Term.mk_var "ig" e.Embed.i_ty in
  let n_x = List.length x_components in
  let gwire = Array.make (Circuit.n_signals c) xg_var in
  let n_in = Circuit.n_inputs c in
  (* position of each boundary gate (by signal) and passthrough register
     (by index) in the x tuple, first occurrence for a repeated cut
     member; -1 = not a component *)
  let bnd_pos = Array.make (Circuit.n_signals c) (-1) in
  List.iteri (fun k s -> if bnd_pos.(s) < 0 then bnd_pos.(s) <- k) boundary;
  let pas_pos = Array.make n_reg (-1) in
  let n_bnd = List.length boundary in
  List.iteri (fun k r -> pas_pos.(r) <- n_bnd + k) passthrough;
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Input k -> gwire.(s) <- Pairs.proj ig_var k n_in
      | Circuit.Reg_out r ->
          (* a register outside x is read only by f; g never will *)
          if pas_pos.(r) >= 0 then gwire.(s) <- Pairs.proj xg_var pas_pos.(r) n_x
      | Circuit.Gate _ ->
          if bnd_pos.(s) >= 0 then gwire.(s) <- Pairs.proj xg_var bnd_pos.(s) n_x)
    c.Circuit.drivers;
  (* non-f gates as dag terms over the g-context references *)
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args) when not in_f.(s) ->
          gwire.(s) <-
            Embed.gate_term level op (List.map (fun a -> gwire.(a)) args)
      | _ -> ())
    topo;
  let o_tms =
    Array.to_list (Array.map (fun (_, s) -> gwire.(s)) c.Circuit.outputs)
  in
  let s'_tms =
    Array.to_list
      (Array.map
         (fun (r : Circuit.register) -> gwire.(r.Circuit.data))
         c.Circuit.registers)
  in
  let g_result =
    Pairs.mk_pair (Pairs.list_mk_pair o_tms) (Pairs.list_mk_pair s'_tms)
  in
  let g_term = Term.mk_abs ig_var (Term.mk_abs xg_var g_result) in
  (f_term, g_term, x_ty)

let prove_split (e : Embed.t) f_term g_term =
  (* pattern = \i s. g i (f s) *)
  let i = e.Embed.i_var and s = e.Embed.s_var in
  let pattern =
    Term.mk_abs i
      (Term.mk_abs s
         (Term.mk_comb (Term.mk_comb g_term i) (Term.mk_comb f_term s)))
  in
  let th1 = Embed.circuit_norm_conv e.Embed.fd in
  let th2 = Embed.circuit_norm_conv pattern in
  if not (Term.aconv (Drule.rhs th1) (Drule.rhs th2)) then
    Errors.cut_mismatch
      "the split does not reproduce the circuit: normal forms differ \
       (false cut)"
  else Kernel.trans th1 (Drule.sym th2)

let split_gates e gates =
  let f_term, g_term, x_ty = build_terms e gates in
  let split_thm =
    try prove_split e f_term g_term
    with Failure msg ->
      Errors.cut_mismatch "split proof failed in the logic: %s" msg
  in
  { f_term; g_term; x_ty; split_thm }

let split e (cut : Cut.t) = split_gates e cut.Cut.f_gates

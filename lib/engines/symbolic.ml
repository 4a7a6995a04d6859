open Circuit

type product = {
  man : Bdd.manager;
  n_regs : int;
  n_inputs : int;
  cur_var : int -> int;
  nxt_var : int -> int;
  inp_var : int -> int;
  inp2_var : int -> int;
  next_to_cur : int array;
  init : bool array;
  next_fn : Bdd.t array;
  out_a : Bdd.t array;
  out_b : Bdd.t array;
}

let compile_signals ?(check = fun () -> ()) m c ~inputs ~regs =
  let n = n_signals c in
  let vals = Array.make n (Bdd.zero m) in
  Array.iteri
    (fun s d ->
      match d with
      | Input i -> vals.(s) <- inputs.(i)
      | Reg_out r -> vals.(s) <- regs.(r)
      | Gate _ -> ())
    c.drivers;
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Input _ | Reg_out _ -> ()
      | Gate (op, args) ->
          check ();
          let a i = vals.(List.nth args i) in
          let v =
            match op with
            | Not -> Bdd.not_ m (a 0)
            | Buf -> a 0
            | And -> Bdd.and_ m (a 0) (a 1)
            | Or -> Bdd.or_ m (a 0) (a 1)
            | Nand -> Bdd.not_ m (Bdd.and_ m (a 0) (a 1))
            | Nor -> Bdd.not_ m (Bdd.or_ m (a 0) (a 1))
            | Xor -> Bdd.xor_ m (a 0) (a 1)
            | Xnor -> Bdd.xnor_ m (a 0) (a 1)
            | Mux -> Bdd.ite m (a 0) (a 1) (a 2)
            | Constb true -> Bdd.one m
            | Constb false -> Bdd.zero m
            | Winc | Wadd | Weq | Wmux | Wnot | Wand | Wor | Wxor
            | Wconst _ ->
                Common.unsupported
                  "Symbolic.compile_signals: word operator (bit-blast first)"
          in
          vals.(s) <- v)
    (topo_order c);
  vals

let reg_init (r : Circuit.register) =
  match r.init with
  | Bit b -> b
  | Word _ -> Common.unsupported "Symbolic: word register (bit-blast first)"

let bit_input_count c =
  Array.iter
    (function
      | B -> ()
      | W _ -> Common.unsupported "Symbolic: word input (bit-blast first)")
    c.input_widths;
  Array.length c.input_widths

(* Variable layout of the product machine.  Every register takes two
   adjacent variables, current then next; the second input bank (van
   Eijk's step) always comes last, after [2k + ia] variables.

   The default is the fan-in order of Malik et al. (ICCAD 1988): a
   depth-first walk from A's output j and B's output j for each j, then
   from the data inputs of A's and B's register i for each i, visiting
   gate arguments left to right and numbering each primary input and
   register output at its first visit.  Inputs land next to the state
   bits they are compared or multiplexed with, so the comparator and mux
   cones of a datapath stay linear in the word width; with every state
   bit above every input, the same cones remember whole words.

   [interleave] instead pairs register i of A with register i of B, the
   inputs after all state bits: van Eijk's correspondence conjuncts
   [a_i <-> b_i] correlate registers across the circuits, and the paired
   order keeps those BDDs near-linear. *)
let paired_layout ka kb ia =
  let kmin = min ka kb in
  let cur =
    Array.init (ka + kb) (fun i ->
        let pos =
          if i < ka then if i < kmin then 2 * i else kmin + i
          else
            let i = i - ka in
            if i < kmin then (2 * i) + 1 else kmin + i
        in
        2 * pos)
  in
  (cur, Array.init ia (fun j -> (2 * (ka + kb)) + j))

let fanin_layout ca cb ia =
  let ka = Array.length ca.registers and kb = Array.length cb.registers in
  let cur = Array.make (ka + kb) (-1) and inp = Array.make ia (-1) in
  let next = ref 0 in
  let take n =
    let v = !next in
    next := v + n;
    v
  in
  let walk c off seen root =
    (* an explicit stack, leftmost argument on top: deep chains cannot
       overflow the OCaml stack *)
    let rec go = function
      | [] -> ()
      | s :: rest when seen.(s) -> go rest
      | s :: rest -> (
          seen.(s) <- true;
          match c.drivers.(s) with
          | Input j ->
              if inp.(j) < 0 then inp.(j) <- take 1;
              go rest
          | Reg_out r ->
              if cur.(off + r) < 0 then cur.(off + r) <- take 2;
              go rest
          | Gate (_, args) -> go (args @ rest))
    in
    go [ root ]
  in
  let seen_a = Array.make (n_signals ca) false
  and seen_b = Array.make (n_signals cb) false in
  let walk_a = walk ca 0 seen_a and walk_b = walk cb ka seen_b in
  Array.iteri
    (fun j (_, s) ->
      walk_a s;
      walk_b (snd cb.outputs.(j)))
    ca.outputs;
  for i = 0 to max ka kb - 1 do
    if i < ka then walk_a ca.registers.(i).data;
    if i < kb then walk_b cb.registers.(i).data
  done;
  Array.iteri (fun i v -> if v < 0 then cur.(i) <- take 2) cur;
  Array.iteri (fun j v -> if v < 0 then inp.(j) <- take 1) inp;
  (cur, inp)

let product ?(check = fun () -> ()) ?(interleave = false) m ca cb =
  let ia = bit_input_count ca and ib = bit_input_count cb in
  if ia <> ib then Common.interface_mismatch "Symbolic.product: input counts differ";
  if Array.length ca.outputs <> Array.length cb.outputs then
    Common.interface_mismatch "Symbolic.product: output counts differ";
  let ka = Array.length ca.registers and kb = Array.length cb.registers in
  let k = ka + kb in
  let cur, inp =
    if interleave then paired_layout ka kb ia else fanin_layout ca cb ia
  in
  let cur_var i = cur.(i) in
  let nxt_var i = cur.(i) + 1 in
  let inp_var j = inp.(j) in
  let inp2_var j = (2 * k) + ia + j in
  let next_to_cur = Array.make ((2 * k) + ia) (-1) in
  Array.iter (fun v -> next_to_cur.(v + 1) <- v) cur;
  let inputs = Array.init ia (fun j -> Bdd.var m (inp_var j)) in
  let regs_a = Array.init ka (fun i -> Bdd.var m (cur_var i)) in
  let regs_b = Array.init kb (fun i -> Bdd.var m (cur_var (ka + i))) in
  let sig_a = compile_signals ~check m ca ~inputs ~regs:regs_a in
  let sig_b = compile_signals ~check m cb ~inputs ~regs:regs_b in
  let next_fn =
    Array.init k (fun i ->
        if i < ka then sig_a.(ca.registers.(i).data)
        else sig_b.(cb.registers.(i - ka).data))
  in
  let init =
    Array.init k (fun i ->
        if i < ka then reg_init ca.registers.(i)
        else reg_init cb.registers.(i - ka))
  in
  let out_a = Array.map (fun (_, s) -> sig_a.(s)) ca.outputs in
  let out_b = Array.map (fun (_, s) -> sig_b.(s)) cb.outputs in
  {
    man = m;
    n_regs = k;
    n_inputs = ia;
    cur_var;
    nxt_var;
    inp_var;
    inp2_var;
    next_to_cur;
    init;
    next_fn;
    out_a;
    out_b;
  }

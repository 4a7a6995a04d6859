(** Compilation of bit-level netlists to BDDs, and the product machine
    shared by the symbolic engines.

    Both circuits must be pure bit-level (no word signals): callers
    bit-blast first ({!Bitblast.expand}). *)

type product = {
  man : Bdd.manager;
  n_regs : int;  (** product register count (A's then B's) *)
  n_inputs : int;  (** shared primary-input count *)
  cur_var : int -> int;  (** BDD variable of current-state bit [i] *)
  nxt_var : int -> int;  (** BDD variable of next-state bit [i] *)
  inp_var : int -> int;  (** BDD variable of input bit [j] *)
  inp2_var : int -> int;  (** second input bank (for van Eijk's step) *)
  next_to_cur : int array;
      (** indexed by BDD variable below [2 * n_regs + n_inputs]: the
          current-state variable of a next-state variable, [-1] for
          every other variable (renames an image back onto the current
          state) *)
  init : bool array;  (** initial values of the product registers *)
  next_fn : Bdd.t array;
      (** next-state function of each product register over current-state
          and (first-bank) input variables *)
  out_a : Bdd.t array;  (** output functions of circuit A *)
  out_b : Bdd.t array;  (** output functions of circuit B *)
}

val compile_signals :
  ?check:(unit -> unit) ->
  Bdd.manager -> Circuit.t -> inputs:Bdd.t array -> regs:Bdd.t array ->
  Bdd.t array
(** BDD of every signal, given BDDs for the primary inputs and register
    outputs.  [check] is called before each gate (budget enforcement).
    @raise Common.Unsupported on word signals. *)

val product :
  ?check:(unit -> unit) ->
  ?interleave:bool ->
  Bdd.manager -> Circuit.t -> Circuit.t -> product
(** Build the product machine of two interface-compatible circuits.
    Each register takes two adjacent variables, [nxt_var i = cur_var i + 1],
    and the second input bank comes after every other variable.  By
    default the rest follows the fan-in order: a depth-first walk from
    the outputs (A's j, then B's j) and then the register data inputs
    (A's i, then B's i) numbers each input and register at its first
    visit, so inputs sit next to the state bits their logic reads —
    the right choice for reachability (SMV).  [interleave] instead pairs
    register [i] of A with register [i] of B, all state bits above all
    inputs — the right choice when the caller builds cross-circuit
    correspondence relations (van Eijk).
    @raise Common.Interface_mismatch if the interfaces differ. *)

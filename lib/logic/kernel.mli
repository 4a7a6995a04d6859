(** The LCF kernel: the only module that can create theorems.

    A value of type {!thm} asserts that its conclusion follows (in
    higher-order logic) from its hypotheses and from the registered axioms.
    The type is abstract; the primitive inference rules below are the only
    constructors, mirroring the security argument of the paper (§III.B):
    "the only way to derive a theorem is by deriving it from axioms and
    rules".

    The rule set is HOL Light's: [REFL], [TRANS], [MK_COMB], [ABS], [BETA],
    [ASSUME], [EQ_MP], [DEDUCT_ANTISYM_RULE], [INST], [INST_TYPE], plus the
    definitional principle [new_basic_definition] and an audited
    [new_axiom]. *)

type thm

val concl : thm -> Term.t
val hyp : thm -> Term.t list
val dest_thm : thm -> Term.t list * Term.t

val pp_thm : Format.formatter -> thm -> unit
val string_of_thm : thm -> string

(** {1 Signature management} *)

val new_type : string -> int -> unit
(** [new_type name arity] declares a type operator.
    @raise Failure if already declared with a different arity. *)

val new_constant : string -> Ty.t -> unit
(** Declare a constant with its generic type.
    @raise Failure if already declared. *)

val get_const_type : string -> Ty.t
(** The generic type of a declared constant.  @raise Not_found. *)

val is_constant : string -> bool

val mk_const : string -> (string * Ty.t) list -> Term.t
(** [mk_const name tyin] builds the constant with its generic type
    instantiated by [tyin].  @raise Failure if undeclared. *)

val mk_const_at : string -> Ty.t -> Term.t
(** [mk_const_at name ty] builds the constant at the concrete type [ty],
    checking that [ty] is an instance of the generic type. *)

val types : unit -> (string * int) list
(** Every declared type operator with its arity, sorted by name — the
    deterministic signature listing certificate headers are built
    from. *)

val constants : unit -> (string * Ty.t) list
(** Every declared constant with its generic type, sorted by name. *)

(** {1 Primitive inference rules} *)

val refl : Term.t -> thm
(** [refl t] is [|- t = t]. *)

val trans : thm -> thm -> thm
(** From [|- a = b] and [|- b' = c] with [b] alpha-equivalent to [b'],
    derive [|- a = c]. *)

val mk_comb_rule : thm -> thm -> thm
(** From [|- f = g] and [|- x = y], derive [|- f x = g y]. *)

val abs : Term.t -> thm -> thm
(** From [|- l = r], derive [|- (\v. l) = (\v. r)], provided [v] is not
    free in the hypotheses. *)

val beta : Term.t -> thm
(** [beta ((\x. t) x)] is [|- (\x. t) x = t]; the argument must be
    syntactically the bound variable (general beta-conversion is derived
    via [inst]). *)

val assume : Term.t -> thm
(** [assume p] is [p |- p]; [p] must be boolean. *)

val eq_mp : thm -> thm -> thm
(** From [|- a = b] and [|- a], derive [|- b]. *)

val deduct_antisym_rule : thm -> thm -> thm
(** From [A |- p] and [B |- q], derive
    [(A - {q}) u (B - {p}) |- p = q]. *)

val inst : (Term.t * Term.t) list -> thm -> thm
(** Instantiate free term variables throughout hypotheses and
    conclusion. *)

val inst_type : (string * Ty.t) list -> thm -> thm
(** Instantiate type variables throughout hypotheses and conclusion. *)

(** {1 Extension principles} *)

val new_basic_definition : Term.t -> thm
(** [new_basic_definition (mk_eq c_var t)] where the left-hand side is a
    variable [c] standing for the new constant name: declares constant [c]
    and returns [|- c = t].  [t] must be closed and may not contain type
    variables absent from its own type. *)

val new_axiom : string -> Term.t -> thm
(** [new_axiom name p] registers [p] as a named axiom and returns
    [|- p].  All registered axioms are reported by {!axioms}; the Automata
    theory keeps this list small and documented. *)

val axioms : unit -> (string * thm) list
(** Every axiom registered so far, in insertion order (deterministic:
    certificate headers depend on it).  Thread-safe. *)

val definitions : unit -> (string * thm) list
(** Every definitional theorem created so far, in insertion order.
    Thread-safe. *)

val register_theorem : string -> thm -> unit
(** [register_theorem name th] publishes a theorem {e derived} during
    theory-module initialisation (e.g. the Boolean evaluation clauses,
    [RETIMING_THM]) under a stable name, so proof recording can refer to
    it by name instead of tracing its (module-init-time) derivation.
    An independent checker resolves the name against the same theory
    modules — re-deriving the theorem through its own kernel — and
    verifies the sequent matches, so no trust is extended.
    @raise Failure if [name] is already registered. *)

val registered_theorems : unit -> (string * thm) list
(** Every registered theorem, in insertion order.  Thread-safe. *)

(** {1 Proof recording}

    While recording is on (per-domain), every primitive inference
    appends one event to an append-only trace; theorems carry the index
    of the event that proved them.  Inputs proved before recording
    started are resolved by name against the theory registries
    (axioms, definitions, registered theorems); an input that cannot be
    resolved {e poisons} the trace — the proof itself is unaffected,
    but {!stop_recording} returns [Error] instead of a trace, so a
    certificate can never silently omit a step. *)

module Trace : sig
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
    | Axiom_ref of string  (** named axiom of the ambient theory *)
    | Def_ref of string  (** definitional theorem, by constant name *)
    | Import of string  (** theorem registered via [register_theorem] *)

  type t
  (** A completed trace.  Stored packed (struct of arrays) so that the
      int-operand events that dominate synthesis proofs record without
      allocating; {!event} materialises the variant view on demand. *)

  val epoch : t -> int
  val length : t -> int

  val event : t -> int -> event
  (** [event tr k] is step [k], [0 <= k < length tr].  Undefined
      outside that range. *)
end

val start_recording : unit -> unit
(** Begin recording on the calling domain.  Invalidates the domain's
    memo tables first (a memoised theorem from before the trace began
    would be an unresolvable input).
    @raise Failure if already recording. *)

val recording : unit -> bool

val stop_recording : unit -> (Trace.t, string) result
(** Stop recording and return the trace, or [Error msg] if the trace
    was poisoned by an unresolvable input.
    @raise Failure if not recording. *)

val outside_trace : thm -> bool
(** [true] when this domain is recording and [th] is not a step of that
    recording: a theorem of the ambient theory, or one proved before the
    recording began.  Such a theorem enters the trace only as an input
    (by name, when the theory has it), so [Cert.emit] cannot end a
    certificate on it. *)

val step_in : Trace.t -> thm -> int option
(** The index of the event that proved [th] within [tr], if [th] was
    recorded in that trace. *)

val rule_count : unit -> int
(** Number of primitive rule applications performed so far {e in the
    current domain} (a cheap profiling aid used by the benchmarks). *)

val total_rule_count : unit -> int
(** Rule applications summed across every domain since startup.  Exact
    only while the other domains are quiescent (e.g. after a pool
    join). *)

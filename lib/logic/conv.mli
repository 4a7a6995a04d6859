(** Conversions and conversionals.

    A conversion maps a term [t] to a theorem [|- t = t'].  The combinators
    below mirror the classic HOL conversional suite; in addition,
    {!memo_top_depth_conv} provides a physically-memoised normaliser whose
    cost is proportional to the number of {e distinct} subterm nodes — the
    workhorse behind HASH's linear-in-circuit-size behaviour on dag-shaped
    circuit terms. *)

type thm = Kernel.thm
type conv = Term.t -> thm

val all_conv : conv
(** Always succeeds with [|- t = t]. *)

val no_conv : conv
(** Always fails. *)

val thenc : conv -> conv -> conv
val orelsec : conv -> conv -> conv
val try_conv : conv -> conv
val repeatc : conv -> conv
(** Apply until failure (at least zero times). *)

val changed_conv : conv -> conv
(** Fail unless the conversion changes the term. *)

val first_conv : conv list -> conv

val rand_conv : conv -> conv
(** Apply in the operand of a combination. *)

val rator_conv : conv -> conv
(** Apply in the operator of a combination. *)

val abs_conv : conv -> conv
(** Apply in the body of an abstraction. *)

val comb_conv : conv -> conv
(** Apply in both parts of a combination. *)

val binder_conv : conv -> conv
(** Apply in the body of [c (\x. b)] (e.g. under a quantifier). *)

val sub_conv : conv -> conv
(** Apply in all immediate subterms. *)

val depth_conv : conv -> conv
val redepth_conv : conv -> conv
val top_depth_conv : conv -> conv
val once_depth_conv : conv -> conv

val rewr_conv : thm -> conv
(** [rewr_conv |- l = r] rewrites a term matching [l] (first-order match
    with type instantiation) to the corresponding instance of [r]. *)

val rewrs_conv : thm list -> conv
(** First applicable rewrite. *)

val rewrite_conv : thm list -> conv
(** Exhaustive top-down rewriting with the given equations. *)

val memo_top_depth_conv : conv -> conv
(** Like [top_depth_conv], but memoised on interned node ids, so
    dag-shared subterms are converted once.  The memo table is allocated
    at {e partial application} and persists across calls — bind the result
    ([let my_conv = memo_top_depth_conv c]) to share normalisation work
    between invocations.  The table is generation-stamped: once it
    outgrows its cap, the next top-level call bumps the generation and
    lazily invalidates all entries (see {!Memo}).  Each domain gets its
    own table (cached theorems mention terms, which never cross domains).
    The base conversion must be context-independent (true for all rewrite
    sets used here).

    Subterms already in normal form cost no kernel rule: the memo
    records them as unchanged, without a theorem.  A term that is normal
    as a whole normalises with one [refl].  While the domain records a
    proof, the answer is always a step of that recording. *)

val with_poll : (unit -> unit) -> (unit -> 'a) -> 'a
(** [with_poll hook f] runs [f ()] with [hook] installed as the
    normaliser's poll function (called once per memo miss inside
    {!memo_top_depth_conv}); the previous hook is restored on exit.  The
    synthesis layer uses this to enforce time budgets. *)

val memo_stats : unit -> int * int
(** [(hits, misses)] accumulated across all conversion memo tables of the
    {e current domain}. *)

val global_memo_stats : unit -> int * int
(** [(hits, misses)] summed across every domain.  Exact only while the
    other domains are quiescent (e.g. after a pool join). *)

val conv_rule : conv -> thm -> thm
(** Apply a conversion to the conclusion of a theorem ([|- p] with
    [|- p = q] gives [|- q]). *)

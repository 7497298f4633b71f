package repro.core

/** Filter predicates supported by the μ-RA `σ_f` operator.
  *
  * The paper's grammar (Fig. 1) allows an arbitrary tuple filter `f`;
  * equality with a constant and equality between two columns cover every
  * query in the paper (UCRPQ constants and repeated variables).
  */
sealed trait Cond {
  /** Columns the condition reads. */
  def cols: Set[String]
  /** Rename column occurrences (used when renaming columns through terms). */
  def rename(from: String, to: String): Cond
}

/** `col = v` for a constant `v` (node id or label). */
final case class EqConst(col: String, v: Any) extends Cond {
  def cols: Set[String] = Set(col)
  def rename(from: String, to: String): Cond =
    if (col == from) EqConst(to, v) else this
}

/** `a = b` between two columns of the same tuple. */
final case class EqCols(a: String, b: String) extends Cond {
  def cols: Set[String] = Set(a, b)
  def rename(from: String, to: String): Cond =
    EqCols(if (a == from) to else a, if (b == from) to else b)
}

/** Abstract syntax of μ-RA (Fig. 1 of the paper).
  *
  * Relations are *sets* of tuples mapping column names to values. `Join`
  * is the natural join (on all common columns; cartesian product if
  * none), `Antijoin` is `▷` (tuples of the left with no natural-join
  * match in the right), `AntiProj` is `π̃_col` (drop one column),
  * `Rename` is `ρ_from^to`, and `Fix(x, body)` is the fixpoint operator
  * `μ(X = body)` binding the recursive variable `x` in `body`.
  */
sealed trait Term {
  /** All recursive variables occurring free in this term. */
  lazy val freeRecVars: Set[String] = this match {
    case RecVar(x)    => Set(x)
    case Fix(x, body) => body.freeRecVars - x
    case _            => unionOverChildren(_.freeRecVars)
  }

  /** All free database relation names. */
  lazy val freeRels: Set[String] = this match {
    case Rel(n) => Set(n)
    case _      => unionOverChildren(_.freeRels)
  }

  /** True iff the recursive variable `x` occurs free in this term. */
  def usesRec(x: String): Boolean = freeRecVars.contains(x)

  /** Every recursive-variable name bound or used in the term. */
  def recVarNames: Set[String] = this match {
    case RecVar(x)    => Set(x)
    case Fix(x, body) => body.recVarNames + x
    case _            => unionOverChildren(_.recVarNames)
  }

  /** This node with `f` applied to each of its direct subterms; the node
    * itself when `f` returns every subterm unchanged (by reference), so
    * that a walk which rewrites nothing shares the input and its cached
    * lazy values.
    */
  def mapChildren(f: Term => Term): Term = this match {
    case Rel(_) | RecVar(_) => this
    case Filter(c, t)       => val u = f(t); if (u eq t) this else Filter(c, u)
    case AntiProj(c, t)     => val u = f(t); if (u eq t) this else AntiProj(c, u)
    case Rename(a, b, t)    => val u = f(t); if (u eq t) this else Rename(a, b, u)
    case Fix(x, body)       => val u = f(body); if (u eq body) this else Fix(x, u)
    case Join(l, r)         => val a = f(l); val b = f(r); if ((a eq l) && (b eq r)) this else Join(a, b)
    case Antijoin(l, r)     => val a = f(l); val b = f(r); if ((a eq l) && (b eq r)) this else Antijoin(a, b)
    case Union(l, r)        => val a = f(l); val b = f(r); if ((a eq l) && (b eq r)) this else Union(a, b)
  }

  /** Direct subterms, left to right. */
  def children: List[Term] = this match {
    case Rel(_) | RecVar(_) => Nil
    case Join(l, r)         => l :: r :: Nil
    case Antijoin(l, r)     => l :: r :: Nil
    case Union(l, r)        => l :: r :: Nil
    case Filter(_, t)       => t :: Nil
    case AntiProj(_, t)     => t :: Nil
    case Rename(_, _, t)    => t :: Nil
    case Fix(_, body)       => body :: Nil
  }

  /** This node with its `i`-th direct subterm replaced by `c`. */
  def withChild(i: Int, c: Term): Term = {
    var j = -1
    mapChildren { old => j += 1; if (j == i) c else old }
  }

  private def unionOverChildren(f: Term => Set[String]): Set[String] = children match {
    case Nil      => Set.empty
    case c :: Nil => f(c)
    case cs       => cs.map(f).reduce(_ ++ _)
  }

  /** Every column name mentioned anywhere in the term (including
    * intermediate names introduced by renames). Used to pick fresh names.
    * Base schemas come from the catalog, so `Rel` contributes none.
    */
  lazy val allColNames: Set[String] = this match {
    case Filter(c, t)     => c.cols ++ t.allColNames
    case AntiProj(c, t)   => t.allColNames + c
    case Rename(f, t0, t) => t.allColNames + f + t0
    case _                => unionOverChildren(_.allColNames)
  }

  /** Compact single-line rendering, close to the paper's notation. */
  def pretty: String = this match {
    case Rel(n)            => n
    case RecVar(x)         => x
    case Filter(EqConst(c, v), t) => s"σ[$c=$v](${t.pretty})"
    case Filter(EqCols(a, b), t)  => s"σ[$a=$b](${t.pretty})"
    case Join(l, r)        => s"(${l.pretty} ⋈ ${r.pretty})"
    case Antijoin(l, r)    => s"(${l.pretty} ▷ ${r.pretty})"
    case Union(l, r)       => s"(${l.pretty} ∪ ${r.pretty})"
    case AntiProj(c, t)    => s"π̃[$c](${t.pretty})"
    case Rename(f, t0, t)  => s"ρ[$f→$t0](${t.pretty})"
    case Fix(x, body)      => s"μ($x = ${body.pretty})"
  }
}

/** A free database relation variable, bound to a table by the catalog. */
final case class Rel(name: String) extends Term

/** A recursive variable bound by an enclosing [[Fix]]. */
final case class RecVar(x: String) extends Term

/** `σ_cond(t)`. */
final case class Filter(cond: Cond, t: Term) extends Term

/** Natural join `l ⋈ r`. */
final case class Join(l: Term, r: Term) extends Term

/** Antijoin `l ▷ r`: tuples of `l` with no match in `r` on common columns. */
final case class Antijoin(l: Term, r: Term) extends Term

/** Set union `l ∪ r` (both sides must have the same sort). */
final case class Union(l: Term, r: Term) extends Term

/** Anti-projection `π̃_col(t)`: drop column `col` (with set dedup). */
final case class AntiProj(col: String, t: Term) extends Term

/** `ρ_from^to(t)`: rename column `from` to `to`. */
final case class Rename(from: String, to: String, t: Term) extends Term

/** Fixpoint `μ(x = body)`. */
final case class Fix(x: String, body: Term) extends Term {
  /** The decomposition of Prop. 2: the body's union branches split into
    * the constant part R (branches free of `x`) and the variable part φ
    * (branches using `x`), each in body order. Throws [[MuRaError]] when
    * R is empty.
    */
  lazy val branches: (List[Term], List[Term]) = {
    val (varB, constB) = Term.unionBranches(body).partition(_.usesRec(x))
    if (constB.isEmpty)
      throw MuRaError(s"fixpoint has no constant part (Prop. 2 form required): $pretty")
    (constB, varB)
  }
}

object Term {

  /** Drop several columns. */
  def antiProjAll(cols: Iterable[String], t: Term): Term =
    cols.foldLeft(t)((acc, c) => AntiProj(c, acc))

  /** Union of a non-empty list of terms. */
  def unionAll(ts: Seq[Term]): Term = ts.reduceLeft(Union(_, _))

  /** Flatten nested unions into a list of branches. */
  def unionBranches(t: Term): List[Term] = t match {
    case Union(l, r) => unionBranches(l) ++ unionBranches(r)
    case other       => List(other)
  }

  /** Composition of two binary path relations over columns (src, trg):
    * `compose(a, b) = π̃_m(ρ_trg^m(a) ⋈ ρ_src^m(b))` with `m` fresh.
    */
  def compose(a: Term, b: Term, avoid: Set[String] = Set.empty): Term = {
    val m = Fresh.col(a.allColNames ++ b.allColNames ++ avoid ++ Set(Cols.src, Cols.trg))
    AntiProj(m, Join(Rename(Cols.trg, m, a), Rename(Cols.src, m, b)))
  }

  /** Swap the src and trg columns of a binary relation (graph inverse). */
  def inverse(t: Term): Term = {
    val m = Fresh.col(t.allColNames ++ Set(Cols.src, Cols.trg))
    Rename(m, Cols.trg, Rename(Cols.trg, Cols.src, Rename(Cols.src, m, t)))
  }

  /** Transitive closure `t+` in right-appending (left-linear) form:
    * `μ(X = t ∪ compose(X, t))`. The variable is named `varName`, by
    * default the first `X<i>` not bound or free in `t`.
    */
  def closure(t: Term, varName: String = null): Term = {
    val x = if (varName != null) varName else Fresh.recVar(t.recVarNames)
    Fix(x, Union(t, compose(RecVar(x), t)))
  }

  /** Uniformly rename every occurrence of column name `from` to `to`
    * throughout the term (filters, renames and antiprojections included);
    * base relations whose schema contains `from` get an explicit ρ.
    * This is semantics-preserving *relabeling* provided `to` occurs
    * nowhere in the term: an injective relabeling of column names
    * commutes with every μ-RA operator. Free recursive variables are
    * left untouched: the caller must rebind them with the renamed sort
    * (this is exactly what sinking a ρ into a fixpoint does).
    */
  def renameEverywhere(t: Term, from: String, to: String,
                       relSort: String => Set[String]): Term = {
    require(!t.allColNames.contains(to), s"relabel target '$to' not fresh in ${t.pretty}")
    def rn(c: String): String = if (c == from) to else c
    def go(u: Term): Term = u match {
      case Rel(n) =>
        val s = relSort(n)
        if (s.contains(from)) {
          require(!s.contains(to), s"relabel target '$to' clashes with schema of $n")
          Rename(from, to, u)
        } else u
      case Filter(c, s)     => Filter(c.rename(from, to), go(s))
      case AntiProj(c, s)   => AntiProj(rn(c), go(s))
      case Rename(f, t0, s) => Rename(rn(f), rn(t0), go(s))
      case _                => u.mapChildren(go)
    }
    go(t)
  }
}

/** Conventional column names for graph edge relations. */
object Cols {
  val src  = "src"
  val pred = "pred"
  val trg  = "trg"
}

/** Fresh-name supply. Names are derived from the avoid-set so that term
  * construction is deterministic (important for test stability and for
  * structural memoization in the rewriter).
  */
object Fresh {
  def col(avoid: Set[String], base: String = "m"): String = {
    var i = 1
    while (avoid.contains(s"${base}_$i")) i += 1
    s"${base}_$i"
  }

  /** The first recursive-variable name `X<i>` not in `avoid`. */
  def recVar(avoid: Set[String]): String = {
    var i = 1
    while (avoid.contains(s"X$i")) i += 1
    s"X$i"
  }
}

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
    case Rel(_)              => Set.empty
    case RecVar(x)           => Set(x)
    case Filter(_, t)        => t.freeRecVars
    case Join(l, r)          => l.freeRecVars ++ r.freeRecVars
    case Antijoin(l, r)      => l.freeRecVars ++ r.freeRecVars
    case Union(l, r)         => l.freeRecVars ++ r.freeRecVars
    case AntiProj(_, t)      => t.freeRecVars
    case Rename(_, _, t)     => t.freeRecVars
    case Fix(x, body)        => body.freeRecVars - x
  }

  /** All free database relation names. */
  lazy val freeRels: Set[String] = this match {
    case Rel(n)          => Set(n)
    case RecVar(_)       => Set.empty
    case Filter(_, t)    => t.freeRels
    case Join(l, r)      => l.freeRels ++ r.freeRels
    case Antijoin(l, r)  => l.freeRels ++ r.freeRels
    case Union(l, r)     => l.freeRels ++ r.freeRels
    case AntiProj(_, t)  => t.freeRels
    case Rename(_, _, t) => t.freeRels
    case Fix(_, body)    => body.freeRels
  }

  /** True iff the recursive variable `x` occurs free in this term. */
  def usesRec(x: String): Boolean = freeRecVars.contains(x)

  /** This node with `f` applied to each of its direct subterms. */
  def mapChildren(f: Term => Term): Term = this match {
    case Rel(_) | RecVar(_) => this
    case Filter(c, t)       => Filter(c, f(t))
    case Join(l, r)         => Join(f(l), f(r))
    case Antijoin(l, r)     => Antijoin(f(l), f(r))
    case Union(l, r)        => Union(f(l), f(r))
    case AntiProj(c, t)     => AntiProj(c, f(t))
    case Rename(a, b, t)    => Rename(a, b, f(t))
    case Fix(x, body)       => Fix(x, f(body))
  }

  /** Direct subterms, left to right. */
  def children: List[Term] = {
    val b = List.newBuilder[Term]
    mapChildren { c => b += c; c }
    b.result()
  }

  /** Every column name mentioned anywhere in the term (including
    * intermediate names introduced by renames). Used to pick fresh names.
    */
  lazy val allColNames: Set[String] = this match {
    case Rel(_)              => Set.empty // base schemas come from the catalog
    case RecVar(_)           => Set.empty
    case Filter(c, t)        => c.cols ++ t.allColNames
    case Join(l, r)          => l.allColNames ++ r.allColNames
    case Antijoin(l, r)      => l.allColNames ++ r.allColNames
    case Union(l, r)         => l.allColNames ++ r.allColNames
    case AntiProj(c, t)      => t.allColNames + c
    case Rename(f, t0, t)    => t.allColNames + f + t0
    case Fix(_, body)        => body.allColNames
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
final case class Fix(x: String, body: Term) extends Term

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
    * `μ(X = t ∪ compose(X, t))`.
    */
  def closure(t: Term, varName: String = null): Term = {
    val x = if (varName != null) varName else Fresh.recVar()
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
    def go(u: Term): Term = u match {
      case Rel(n) =>
        val s = relSort(n)
        if (s.contains(from)) {
          require(!s.contains(to), s"relabel target '$to' clashes with schema of $n")
          Rename(from, to, Rel(n))
        } else Rel(n)
      case RecVar(x)         => RecVar(x)
      case Filter(c, s)      => Filter(c.rename(from, to), go(s))
      case Join(l, r)        => Join(go(l), go(r))
      case Antijoin(l, r)    => Antijoin(go(l), go(r))
      case Union(l, r)       => Union(go(l), go(r))
      case AntiProj(c, s)    => AntiProj(if (c == from) to else c, go(s))
      case Rename(f, t0, s)  => Rename(if (f == from) to else f, if (t0 == from) to else t0, go(s))
      case Fix(x, body)      => Fix(x, go(body))
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

  private val recCounter = new java.util.concurrent.atomic.AtomicInteger(0)
  def recVar(): String = s"X${recCounter.incrementAndGet()}"
}

package repro.core

/** Raised when a term is ill-sorted or violates the F_cond conditions. */
final case class MuRaError(msg: String) extends RuntimeException(msg)

/** Sort (column-set) computation and the F_cond well-formedness checks of
  * Sec. II-B of the paper: positivity, linearity, non-mutual recursion —
  * plus the `μ(X = R ∪ φ)` decomposition of Proposition 2.
  */
object Analysis {

  /** Maps a base relation name to its set of columns. */
  type Catalog = Map[String, Set[String]]

  /** Sorts of the free recursive variables of a term. */
  type RecEnv = Map[String, Set[String]]

  /** Column set of a term. `rec` gives the sorts of free recursive
    * variables. Throws [[MuRaError]] on ill-sorted terms.
    */
  def sort(t: Term, cat: Catalog, rec: RecEnv = Map.empty): Set[String] = sort(t, new Memo(cat), rec)

  /** [[sort]] under `m.cat`, with the sorts of closed subterms kept in `m`. */
  def sort(t: Term, m: Memo, rec: RecEnv): Set[String] = {
    val kept = m.sorts.get(t)
    if (kept != null) kept else m.keep(m.sorts, t, sortOf(t, m, rec))
  }

  private def sortOf(t: Term, m: Memo, rec: RecEnv): Set[String] = t match {
    case Rel(n) =>
      m.cat.getOrElse(n, throw MuRaError(s"unknown relation $n"))
    case RecVar(x) =>
      rec.getOrElse(x, throw MuRaError(s"unbound recursive variable $x"))
    case Filter(c, s) =>
      val ss = sort(s, m, rec)
      val missing = c.cols -- ss
      if (missing.nonEmpty) throw MuRaError(s"filter on missing column(s) $missing in ${s.pretty}")
      ss
    case Join(l, r) =>
      sort(l, m, rec) ++ sort(r, m, rec)
    case Antijoin(l, r) =>
      sort(r, m, rec) // type-check the right side too
      sort(l, m, rec)
    case Union(l, r) =>
      val sl = sort(l, m, rec); val sr = sort(r, m, rec)
      if (sl != sr) throw MuRaError(s"union of different sorts: $sl vs $sr")
      sl
    case AntiProj(c, s) =>
      val ss = sort(s, m, rec)
      if (!ss.contains(c)) throw MuRaError(s"anti-projection of missing column $c from $ss")
      ss - c
    case Rename(f, to, s) =>
      val ss = sort(s, m, rec)
      if (!ss.contains(f)) throw MuRaError(s"rename of missing column $f from $ss")
      if (ss.contains(to)) throw MuRaError(s"rename target $to already in sort $ss")
      ss - f + to
    case fix @ Fix(_, _) =>
      // Determined by the constant part, then checked against every
      // variable-part branch (union compatibility).
      val (constB, varB) = fix.branches
      val s0 = sort(constB.head, m, rec)
      constB.tail.foreach { b =>
        val sb = sort(b, m, rec)
        if (sb != s0) throw MuRaError(s"constant parts of fixpoint disagree: $s0 vs $sb")
      }
      varB.foreach { b =>
        val sb = sort(b, m, rec + (fix.x -> s0))
        if (sb != s0) throw MuRaError(s"variable part sort $sb differs from constant part $s0 in ${b.pretty}")
      }
      s0
  }

  /** Decompose a fixpoint into its constant part R and the list of
    * variable-part branches (Prop. 2, see [[Fix.branches]]). Also
    * verifies that each variable branch vanishes on the empty relation
    * (φ(∅) = ∅).
    */
  def decompose(fix: Fix): (Term, List[Term]) = {
    val (constB, varB) = fix.branches
    varB.foreach { b =>
      if (!vanishesOnEmpty(b, fix.x))
        throw MuRaError(s"variable part does not satisfy φ(∅)=∅: ${b.pretty}")
    }
    (Term.unionAll(constB), varB)
  }

  /** [[decompose]], done once per closed fixpoint of `m`. */
  private[core] def decompose(fix: Fix, m: Memo): (Term, List[Term]) = {
    val kept = m.parts.get(fix)
    if (kept != null) kept else m.keep(m.parts, fix, decompose(fix))
  }

  /** True iff the term evaluates to ∅ whenever `x` is bound to ∅.
    * Conservative syntactic check: a join with an empty side is empty,
    * filters/renames/antiprojections of empty are empty, an antijoin is
    * contained in its left side, and a union needs both branches empty.
    */
  def vanishesOnEmpty(t: Term, x: String): Boolean = t match {
    case RecVar(y)       => y == x
    case Rel(_)          => false
    case Filter(_, s)    => vanishesOnEmpty(s, x)
    case AntiProj(_, s)  => vanishesOnEmpty(s, x)
    case Rename(_, _, s) => vanishesOnEmpty(s, x)
    case Join(l, r)      => vanishesOnEmpty(l, x) || vanishesOnEmpty(r, x)
    case Antijoin(l, _)  => vanishesOnEmpty(l, x)
    case Union(l, r)     => vanishesOnEmpty(l, x) && vanishesOnEmpty(r, x)
    case Fix(_, _)       => false // constant nested fixpoints don't vanish
  }

  /** Check the three F_cond conditions of Sec. II-B on every fixpoint in
    * the term. Throws [[MuRaError]] on the first violation.
    *
    *  - positive: the right side of every antijoin is constant in every
    *    recursive variable;
    *  - linear: no join/antijoin has recursive variables on both sides;
    *  - non mutually recursive: a fixpoint body may only use its own
    *    recursive variable (a strictness superset of the paper's
    *    condition, sufficient for every term the system generates).
    */
  def checkFcond(t: Term): Unit = {
    t match {
      case Antijoin(_, r) if r.freeRecVars.nonEmpty =>
        throw MuRaError(s"not positive: recursive variable on antijoin right side: ${t.pretty}")
      case Join(l, r) if l.freeRecVars.nonEmpty && r.freeRecVars.nonEmpty =>
        throw MuRaError(s"not linear: recursive variables on both join sides: ${t.pretty}")
      case Fix(x, body) if (body.freeRecVars - x).nonEmpty =>
        throw MuRaError(s"mutually recursive fixpoint (uses ${body.freeRecVars - x}): ${t.pretty}")
      case _ => ()
    }
    t.children.foreach(checkFcond)
  }

  /** Substitute the recursive variable `x` by a term (used in tests and
    * by the merge rule's soundness argument).
    */
  def substRec(t: Term, x: String, by: Term): Term = t match {
    case RecVar(`x`) => by
    case Fix(`x`, _) => t
    case _           => t.mapChildren(substRec(_, x, by))
  }

  /** Canonical form for structural memoization and α-equivalence: every
    * fixpoint binder (and free recursive variable), and every column name
    * *not* in the free interface (base-relation schemas and the output
    * sort), is renamed to a canonical numbering in traversal order.
    * Binders are numbered per occurrence, so sibling fixpoints that reuse
    * a name get distinct numbers.
    */
  def canonical(t: Term, cat: Catalog): Term = canonical(t, new Memo(cat))

  /** [[canonical]] with the interface sort taken from `m`. */
  private[core] def canonical(t: Term, m: Memo): Term = {
    val interface: Set[String] =
      t.freeRels.flatMap(m.cat.getOrElse(_, Set.empty[String])) ++ sort(t, m, Map.empty)
    var colMap = Map.empty[String, String]
    var freeRec = Map.empty[String, String]
    var nRec = 0
    def colOf(c: String): String =
      if (interface.contains(c)) c
      else colMap.getOrElse(c, { val n = s"#c${colMap.size}"; colMap += c -> n; n })
    def nextRec(): String = { val n = s"#x$nRec"; nRec += 1; n }
    def condOf(c: Cond): Cond = c match {
      case EqConst(col, v) => EqConst(colOf(col), v)
      case EqCols(a, b)    => EqCols(colOf(a), colOf(b))
    }
    def go(u: Term, bound: Map[String, String]): Term = u match {
      case RecVar(x) =>
        RecVar(bound.getOrElse(x, freeRec.getOrElse(x, { val n = nextRec(); freeRec += x -> n; n })))
      case Fix(x, body)    => { val xx = nextRec(); Fix(xx, go(body, bound + (x -> xx))) }
      case Filter(c, s)    => Filter(condOf(c), go(s, bound))
      case AntiProj(c, s)  => { val s2 = go(s, bound); AntiProj(colOf(c), s2) }
      case Rename(f, o, s) => { val s2 = go(s, bound); Rename(colOf(f), colOf(o), s2) }
      case _               => u.mapChildren(go(_, bound))
    }
    go(t, Map.empty)
  }

  /** α-equivalence modulo recursive-variable names and internal
    * (non-interface) column names.
    */
  def alphaEq(a: Term, b: Term, cat: Catalog): Boolean =
    canonical(a, cat) == canonical(b, cat)
}

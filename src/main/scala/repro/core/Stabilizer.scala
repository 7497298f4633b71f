package repro.core

import Analysis.Catalog

/** Stable-column computation (the "stabilizer" of Definition 10 of [11],
  * as used in Sec. IV-A2 of the paper).
  *
  * A column `c` of a fixpoint `μ(X = R ∪ φ)` is *stable* when every tuple
  * produced by one application of φ copies its `c`-value unaltered from
  * the X-tuple it was derived from. Under F_cond (linearity: each
  * φ-branch uses X exactly once per join chain), stability implies that a
  * tuple with `c = v` in the fixpoint can only be derived from tuples of
  * R with `c = v` — which is what licenses (i) pushing `σ_{c=v}` into the
  * constant part and (ii) repartitioning R by `c` so the parallel local
  * fixpoints of P_plw are disjoint (no final distinct needed).
  *
  * We compute, for each output column of φ, its *provenance*: `Some(c)`
  * if the value is copied from column `c` of X, `None` otherwise
  * (constant-side columns, join-middle columns, renamed-away columns).
  */
object Stabilizer {

  /** Provenance of each output column of `t` with respect to the
    * recursive variable `x` (whose sort is `xSort`).
    */
  private def provenance(t: Term, x: String, xSort: Set[String], m: Memo): Map[String, Option[String]] = {
    def go(u: Term): Map[String, Option[String]] = u match {
      case RecVar(`x`)   => xSort.map(c => c -> Some(c)).toMap
      case Filter(_, s)  => go(s)
      case AntiProj(c, s) => go(s) - c
      case Rename(f, to, s) =>
        val p = go(s)
        (p - f) + (to -> p(f))
      case Join(l, r) =>
        val pl = go(l); val pr = go(r)
        (pl.keySet ++ pr.keySet).map { c =>
          // A shared column's value is equal on both sides after the
          // natural join, so either side's provenance is valid.
          c -> pl.getOrElse(c, None).orElse(pr.getOrElse(c, None))
        }.toMap
      case Antijoin(l, _) => go(l)
      case Union(l, r) =>
        val pl = go(l); val pr = go(r)
        pl.keySet.map(c => c -> (if (pl(c) == pr.getOrElse(c, None)) pl(c) else None)).toMap
      case _ =>
        // A base relation, or a nested fixpoint, which is constant in x
        // (F_cond): no provenance.
        Analysis.sort(u, m, Map(x -> xSort)).map(c => c -> (None: Option[String])).toMap
    }
    go(t)
  }

  /** Stable columns of a fixpoint in decomposed form: the columns whose
    * provenance is the identity in *every* variable-part branch.
    */
  def stableCols(fix: Fix, cat: Catalog): Set[String] = stableCols(fix, new Memo(cat))

  /** [[stableCols]], computed once per closed fixpoint of `m`. */
  def stableCols(fix: Fix, m: Memo): Set[String] = {
    val kept = m.stable.get(fix)
    if (kept != null) kept
    else {
      val xSort = Analysis.sort(fix, m, Map.empty)
      val (_, varBranches) = Analysis.decompose(fix, m)
      m.keep(m.stable, fix, varBranches.foldLeft(xSort) { (acc, b) =>
        val p = provenance(b, fix.x, xSort, m)
        acc.filter(c => p.getOrElse(c, None).contains(c))
      })
    }
  }

  /** Push a selection that reads only `cols` (for instance the partition
    * test `hash(c) mod n = k`) down the closed term `t`, as far as the
    * filter-pushing rules allow: through filters, renames,
    * anti-projections, unions, the left side of an antijoin, every join
    * side that holds all of `cols`, and into the constant part of a
    * fixpoint that `enters` admits and on which all of `cols` are stable
    * (property (i) above). Each subterm `u` where the selection stops is
    * replaced by `stop(u, cs)`, where `cs` are `cols` as named at `u`.
    */
  def pushSelection(t: Term, cols: Seq[String], m: Memo, enters: Fix => Boolean = _ => true)
                   (stop: (Term, Seq[String]) => Term): Term = {
    def holds(u: Term, cs: Seq[String]): Boolean = cs.toSet.subsetOf(Analysis.sort(u, m, Map.empty))
    def go(u: Term, cs: Seq[String]): Term = u match {
      case Filter(c, s)     => Filter(c, go(s, cs))
      case AntiProj(c, s)   => AntiProj(c, go(s, cs))
      case Rename(f, to, s) => Rename(f, to, go(s, cs.map(c => if (c == to) f else c)))
      case Union(l, r)      => Union(go(l, cs), go(r, cs))
      case Antijoin(l, r)   => Antijoin(go(l, cs), r)
      case Join(l, r) =>
        val (inL, inR) = (holds(l, cs), holds(r, cs))
        if (inL || inR) Join(if (inL) go(l, cs) else l, if (inR) go(r, cs) else r)
        else stop(u, cs)
      case fix: Fix if enters(fix) && cs.toSet.subsetOf(stableCols(fix, m)) =>
        val (constB, varB) = fix.branches
        Fix(fix.x, Term.unionAll(constB.map(go(_, cs)) ++ varB))
      case _ => stop(u, cs)
    }
    go(t, cols)
  }
}

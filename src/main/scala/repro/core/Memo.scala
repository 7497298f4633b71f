package repro.core

import java.util.IdentityHashMap
import Analysis.Catalog

/** The analyses of one planning run, each computed at most once per plan
  * node: a node's sort, a fixpoint's decomposition (with its φ(∅)=∅
  * check) and stable columns, a node's cost estimate and its normal form
  * (`Rewriter.normalize`), all under one catalog and one set of
  * statistics. This is the memo of Graefe's
  * Cascades framework (IEEE Data Eng. Bull. 1995) over the μ-RA plan
  * space: plans built by `mapChildren`, `withChild` and the rewriter
  * share their unchanged subterms by reference, so analysing a rewritten
  * plan re-analyses only the path it rebuilt.
  *
  * Entries are keyed by node identity, not by structural equality (a
  * structural hash walks the whole subterm). Only closed subterms are
  * kept, because an open subterm's sort and estimate depend on the
  * bindings of its free recursive variables; under F_cond every fixpoint
  * is closed. A computation that throws stores nothing, so the same
  * [[MuRaError]] is thrown again on the next call. A memo lives for one
  * `MuRaEngine.optimize` call, for one `Executor` (one per
  * `MuRaEngine.execute` call), or for one call of an entry point that
  * takes a catalog (`Analysis.sort`, `Cost.estimate`, …).
  */
final class Memo(val cat: Catalog, val stats: Map[String, RelStats] = Map.empty) {
  private[core] val sorts = new IdentityHashMap[Term, Set[String]]
  private[core] val parts = new IdentityHashMap[Term, (Term, List[Term])]
  private[core] val stable = new IdentityHashMap[Term, Set[String]]
  private[core] val ests = new IdentityHashMap[Term, Est]
  private[core] val normal = new IdentityHashMap[Term, Term]

  /** `v`, kept in `m` as the value of `t` when `t` is closed. Callers
    * look `t` up in `m` first and compute `v` only when it is absent;
    * the value is passed strictly, so a lookup that hits allocates no
    * closure.
    */
  private[core] def keep[V](m: IdentityHashMap[Term, V], t: Term, v: V): V = {
    if (t.freeRecVars.isEmpty) m.put(t, v)
    v
  }
}

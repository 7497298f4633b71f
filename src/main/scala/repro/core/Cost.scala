package repro.core

import Analysis.Catalog

/** Per-relation statistics used by the cost model: row count and distinct
  * value counts per column (the inputs of the cardinality estimation
  * technique of [20], simplified).
  */
final case class RelStats(rows: Double, distinct: Map[String, Double]) {
  def d(c: String): Double = distinct.getOrElse(c, math.max(1.0, rows / 2))
}

/** Cardinality + cost estimate of a (sub)term. `distinct` has one entry
  * per column of the term, so its key set is the term's sort. `cost`
  * accumulates the sizes of all intermediate relations produced — the
  * quantity the paper minimizes implicitly by preferring plans with small
  * intermediate results (Sec. I, Sec. III).
  */
final case class Est(rows: Double, distinct: Map[String, Double], cost: Double) {
  def d(c: String): Double = distinct.getOrElse(c, math.max(1.0, rows / 2))
}

/** The CostEstimator component (Sec. III). Estimates bottom-up:
  * selectivities for filters, containment-assumption join cardinality,
  * and a geometric expansion model for fixpoints with a saturation cap.
  * Used to rank the plans produced by [[Rewriter.explore]].
  */
object Cost {

  /** Assumed recursion depth for fixpoint estimation (graphs above the
    * connectivity threshold have small diameter; trees have log depth).
    */
  val DefaultDepth = 10

  /** Estimate of a closed term. Throws [[MuRaError]] on an unbound
    * recursive variable or a fixpoint that violates φ(∅)=∅.
    */
  def estimate(t: Term, stats: Map[String, RelStats], cat: Catalog): Est =
    estimate(t, new Memo(cat, stats))

  /** [[estimate]] under `m.stats` and `m.cat`, with the estimates of
    * closed subterms kept in `m`.
    */
  def estimate(t: Term, m: Memo): Est = est(t, m, Map.empty)

  private def est(t: Term, m: Memo, env: Map[String, Est]): Est = {
    val kept = m.ests.get(t)
    if (kept != null) kept else m.keep(m.ests, t, estOf(t, m, env))
  }

  private def estOf(t: Term, m: Memo, env: Map[String, Est]): Est = t match {
    case Rel(n) =>
      val s = m.stats.getOrElse(n, RelStats(1000.0, Map.empty))
      Est(s.rows, m.cat(n).map(c => c -> s.d(c)).toMap, 0.0)

    case RecVar(x) => env.getOrElse(x, throw MuRaError(s"unbound recursive variable $x"))

    case Filter(EqConst(c, _), s) =>
      val e = est(s, m, env)
      val out = e.rows / math.max(1.0, e.d(c))
      Est(out, e.distinct.map { case (k, v) => k -> math.min(v, out) } + (c -> 1.0),
          e.cost + e.rows)

    case Filter(EqCols(a, b), s) =>
      val e = est(s, m, env)
      val out = e.rows / math.max(1.0, math.max(e.d(a), e.d(b)))
      Est(out, e.distinct.map { case (k, v) => k -> math.min(v, out) }, e.cost + e.rows)

    case Join(l, r) =>
      val el = est(l, m, env)
      val er = est(r, m, env)
      val common = el.distinct.keySet intersect er.distinct.keySet
      val denom = common.foldLeft(1.0)((acc, c) => acc * math.max(1.0, math.max(el.d(c), er.d(c))))
      val out = el.rows * er.rows / denom
      val dist = (el.distinct ++ er.distinct).map { case (k, v) => k -> math.min(v, out) }
      Est(out, dist, el.cost + er.cost + out)

    case Antijoin(l, r) =>
      val el = est(l, m, env)
      val er = est(r, m, env)
      Est(el.rows * 0.5, el.distinct, el.cost + er.cost + el.rows)

    case Union(l, r) =>
      val el = est(l, m, env)
      val er = est(r, m, env)
      val out = el.rows + er.rows
      Est(out, (el.distinct ++ er.distinct).map { case (k, v) => k -> math.min(v, out) },
          el.cost + er.cost + out)

    case AntiProj(c, s) =>
      val e = est(s, m, env)
      // Dedup after dropping a column: mild reduction.
      val out = math.max(1.0, e.rows * 0.9)
      Est(out, e.distinct - c, e.cost + e.rows)

    case Rename(f, to, s) =>
      val e = est(s, m, env)
      Est(e.rows, (e.distinct - f) + (to -> e.d(f)), e.cost)

    case fix @ Fix(x, _) =>
      val (constT, varB) = Analysis.decompose(fix, m)
      val e0 = est(constT, m, env)
      // One φ application on the initial delta, to measure the expansion
      // ratio of a single step.
      val stepEnv = env + (x -> Est(e0.rows, e0.distinct, 0.0))
      val stepEsts = varB.map(b => est(b, m, stepEnv))
      val stepRows = stepEsts.map(_.rows).sum
      val stepCost = stepEsts.map(_.cost).sum
      val ratio = math.max(0.1, stepRows / math.max(1.0, e0.rows))
      // Saturation cap: the fixpoint cannot exceed the cross-product of
      // per-column value universes. A *stable* column only ever holds
      // values of the constant part; a non-stable column keeps receiving
      // fresh values from φ's joins, so its universe is the global one.
      val stable = Stabilizer.stableCols(fix, m)
      val globalUniverse = m.stats.values.foldLeft(64.0) { (a, s) =>
        math.max(a, s.distinct.values.foldLeft(1.0)(math.max))
      }
      val cap = e0.distinct.keySet.foldLeft(1.0) { (acc, c) =>
        // A stable column's values come exclusively from the constant
        // part: exactly e0.d(c) of them. Non-stable columns keep
        // receiving fresh values from φ's joins (global universe).
        val u = if (stable.contains(c)) e0.d(c)
                else math.max(e0.d(c) * 4, globalUniverse)
        acc * math.max(1.0, u)
      }
      var total = e0.rows
      var delta = e0.rows
      var work = stepCost
      var i = 0
      while (i < DefaultDepth && delta >= 1.0 && total < cap) {
        delta = delta * ratio * 0.8 // semi-naive: a growing share is not new
        total = math.min(cap, total + delta)
        work += delta
        i += 1
      }
      val dist = e0.distinct.map { case (k, v) => k -> math.min(math.max(v, total / 2), total) }
      // Communication cost: a fixpoint with no stable column cannot be
      // evaluated with P_plw (Sec. IV-B-c) — P_gld shuffles every
      // iteration: its tuples cost more AND each iteration pays a fixed
      // shuffle/driver-round-trip latency regardless of tuple count.
      val commCost =
        if (stable.nonEmpty) 0.0
        else (total + work) * (GldShufflePenalty - 1.0) + math.max(1, i) * GldIterOverhead
      Est(total, dist, e0.cost + total + work + commCost)
  }

  /** Relative cost of a P_gld iteration tuple vs a P_plw one. */
  val GldShufflePenalty = 3.0

  /** Fixed per-iteration cost of a P_gld round (shuffle latency), in
    * tuple-equivalents.
    */
  val GldIterOverhead = 10000.0

  /** Pick the cheapest plan among candidates (first wins ties). */
  def best(candidates: Seq[Term], stats: Map[String, RelStats], cat: Catalog): Term =
    best(candidates, new Memo(cat, stats))

  /** [[best]] by the estimates in `m`: a lookup for each candidate that
    * was estimated under `m` before.
    */
  def best(candidates: Seq[Term], m: Memo): Term = candidates.minBy(estimate(_, m).cost)
}

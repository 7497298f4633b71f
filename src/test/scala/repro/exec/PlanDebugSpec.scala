package repro.exec

import repro.SparkSpec
import repro.core._
import repro.graphdata.GraphData
import repro.queries.MuRaTerms

/** Plan-choice sanity: the cost model must keep the stable column for
  * reach-style queries so P_plw applies (communication-cost penalty).
  */
class PlanDebugSpec extends SparkSpec {

  test("reach plan keeps a stable-column fixpoint (P_plw eligible)") {
    val rnd = GraphData.erdosRenyi(spark, 10000, 0.001, seed = 10)
    val eng = Engines.distMuRA(spark, Map("R" -> rnd), Map.empty, 8)
    val cands = Rewriter.explore(MuRaTerms.reach(1L), eng.cat, RewriteConfig.all)
    cands.foreach { c =>
      val e = Cost.estimate(c, eng.stats, eng.cat)
      info(f"cost=${e.cost}%.0f rows=${e.rows}%.0f  ${c.pretty}")
    }
    val plan = eng.optimize(MuRaTerms.reach(1L))
    info(s"chosen plan: ${plan.pretty}")
    def fixes(t: Term): Seq[Fix] =
      (t match { case f: Fix => Seq(f); case _ => Seq.empty }) ++ t.children.flatMap(fixes)
    val fs = fixes(plan)
    assert(fs.nonEmpty)
    assert(fs.forall(f => Stabilizer.stableCols(f, eng.cat).nonEmpty),
      s"fixpoint lost its stable column: ${plan.pretty}")
  }
}

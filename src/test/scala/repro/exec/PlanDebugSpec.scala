package repro.exec

import repro.SparkSpec
import repro.core._
import repro.graphdata.GraphData
import repro.queries.{MuRaTerms, PaperQueries}
import repro.ucrpq.Query2Mu

/** Plan-choice sanity: the cost model must keep the stable column for
  * reach-style queries so P_plw applies (communication-cost penalty), and
  * every plan the cost-ranked exploration finds for the paper's queries
  * is well formed, normalised and has a finite cost. `optimize` picks
  * the plan the benchmark's traced pass picks from the same candidates.
  */
class PlanDebugSpec extends SparkSpec {

  private def fixes(t: Term): Seq[Fix] =
    (t match { case f: Fix => Seq(f); case _ => Seq.empty }) ++ t.children.flatMap(fixes)

  /** Yago Q1-Q25, Uniprot Q26-Q50 and concat n=2..6, each on a small
    * graph: the graph, its constants and the queries.
    */
  private lazy val workloads = {
    val yago = GraphData.yagoLite(spark, scale = 0.03, seed = 3)
    val uniprot = GraphData.uniprotLite(spark, 2000, seed = 3)
    val labels = (0 until 6).map(i => s"a$i")
    val concat = GraphData.withRandomLabels(spark, GraphData.erdosRenyi(spark, 40, 0.08, seed = 5), labels, seed = 6)
    Seq(
      (yago.edges, yago.constants, PaperQueries.yago.map(_.query)),
      (uniprot.edges, uniprot.constants, PaperQueries.uniprot.map(_.query)),
      (concat, Map.empty[String, Any], (2 to 6).map(k => PaperQueries.concatClosure(labels.take(k)))))
  }

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
    val fs = fixes(plan)
    assert(fs.nonEmpty)
    assert(fs.forall(f => Stabilizer.stableCols(f, eng.cat).nonEmpty),
      s"fixpoint lost its stable column: ${plan.pretty}")
  }

  test("every cost-ranked plan of Yago Q1-Q25, Uniprot Q26-Q50 and concat n=2..6 is well formed") {
    // σ directly above a π̃ of a column it does not read: normalisation
    // sinks every such filter.
    def filterOverAntiProj(t: Term): Boolean = t match {
      case Filter(c, AntiProj(d, _)) if !c.cols.contains(d) => true
      case _                                               => t.children.exists(filterOverAntiProj)
    }
    for ((g, consts, queries) <- workloads) {
      val eng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> g), consts, 2)
      val cost = (p: Term) => Cost.estimate(p, eng.stats, eng.cat).cost
      queries.foreach { q =>
        val plans = Rewriter.explore(Query2Mu.translate(q, consts), eng.cat, RewriteConfig.all, cost)
        plans.foreach { p =>
          Analysis.checkFcond(p)
          Analysis.sort(p, eng.cat)
          fixes(p).foreach(Analysis.decompose)
          assert(!filterOverAntiProj(p), s"$q: σ above π̃ in ${p.pretty}")
          assert(cost(p) < Double.PositiveInfinity, s"$q: ${p.pretty}")
        }
      }
    }
  }

  test("optimize picks the plan Cost.best picks from explore's candidates, ties included") {
    for ((g, consts, queries) <- workloads) {
      val eng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> g), consts, 2)
      queries.foreach { q =>
        val t = Query2Mu.translate(q, consts)
        // What the benchmark's traced pass runs: no memo shared across calls.
        val cands = Rewriter.explore(t, eng.cat, eng.cfg.rewrite, p => Cost.estimate(p, eng.stats, eng.cat).cost)
        val traced = Cost.best(cands, eng.stats, eng.cat)
        assert(eng.optimize(t) == traced, q)
      }
    }
  }
}

package repro.exec

import repro.SparkSpec
import repro.graphdata.GraphData
import repro.queries.PaperQueries
import repro.ucrpq.Query2Mu

/** Regression: deep rewrite chains (Q17-style: reverse both closures,
  * push the filter, push the join, push the anti-projection) must be
  * reachable by the cost-guided exploration, and the chosen plans must
  * execute quickly relative to the unoptimized baseline.
  */
class YagoPlanSpec extends SparkSpec {

  test("Q17/Q10/Q20 optimized plans run fast and match BigDatalog-lite results") {
    val g = GraphData.yagoLite(spark, scale = 0.5)
    g.edges.cache().count()
    val cat = Map(Query2Mu.GraphRel -> g.edges)
    val dist = Engines.distMuRA(spark, cat, g.constants, 8)
    val bd = Engines(Engines.BigDatalogLite, spark, cat, g.constants, 8)
    dist.warmup(); bd.warmup()
    for (qid <- Seq("Q17", "Q10", "Q20", "Q9")) {
      val q = PaperQueries.yago.find(_.id == qid).get.query
      val t0 = System.nanoTime()
      val distRows = dist.runQuery(q).collect().toSet
      val distMs = (System.nanoTime() - t0) / 1000000
      val t1 = System.nanoTime()
      val bdRows = bd.runQuery(q).collect().toSet
      val bdMs = (System.nanoTime() - t1) / 1000000
      info(s"$qid: dist=${distMs}ms bd=${bdMs}ms rows=${distRows.size}")
      assert(distRows == bdRows, s"$qid results differ")
      // Dist must not be drastically slower than the restricted engine.
      assert(distMs < math.max(20000, 4 * bdMs), s"$qid: dist=${distMs}ms bd=${bdMs}ms")
    }
  }
}

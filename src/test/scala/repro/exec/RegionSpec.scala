package repro.exec

import java.util.concurrent.Executors
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import repro.{SparkJobs, SparkSpec}
import repro.core._
import repro.graphdata.GraphData
import repro.queries.PaperQueries
import repro.ucrpq.Query2Mu

/** Region execution of `P_plw^s` and `P_plw^pg`: the partition
  * selection pushed down a plan and its fixpoint chain gives disjoint
  * per-task results whose union is the plan, on every plan the rewriter
  * finds, and the same per-task results whichever engine runs the tasks;
  * a nested `P_plw` fixpoint over broadcast relations is evaluated in the
  * tasks, of a region or of a `P_gld` loop, so a warm count runs two
  * stages; a base relation above `broadcastThreshold` is exchanged in,
  * on every plan choice; a fixpoint-free query runs as a region too;
  * `execute` returns a DataFrame that only scans the rows; and a warm
  * engine builds a plan without running a Spark job and counts it with
  * at most two.
  */
class RegionSpec extends SparkSpec {

  private val labels = Seq("a0", "a1", "a2")
  private lazy val concatG: DataFrame =
    GraphData.withRandomLabels(spark, GraphData.erdosRenyi(spark, 40, 0.08, seed = 5), labels, seed = 6).cache()
  private lazy val yago = GraphData.yagoLite(spark, scale = 0.03, seed = 3)

  private def yagoQuery(id: String): String = PaperQueries.yago.find(_.id == id).get.query

  private val choices = Seq(PlanChoice.Auto, PlanChoice.ForceGld, PlanChoice.ForcePlwS, PlanChoice.ForcePlwPg)

  private def local(g: DataFrame): Map[String, LocalRel] =
    Map(Query2Mu.GraphRel -> LocalRel(g.columns.toVector, g.collect().toVector.map(_.toSeq.toVector)))

  private def rowsOf(r: LocalRel): Set[Seq[Any]] = r.aligned(r.cols.sorted).rows.map(_.toSeq).toSet

  private def rowsOf(df: DataFrame): Set[Seq[Any]] = {
    val cols = df.columns.sorted
    df.select(cols.toSeq.map(df.col): _*).collect().map(_.toSeq).toSet
  }

  /** The outermost fixpoints of a term: those the executor starts regions at. */
  private def outerFixes(t: Term): List[Fix] = t match {
    case f: Fix => List(f)
    case _      => t.children.flatMap(outerFixes)
  }

  /** Every plan of `query` on 1, 3 and 4 partitions: the result equals
    * the unoptimised term on [[LocalEval]], and the tasks of the region
    * over the whole plan and of each outermost fixpoint's region return
    * disjoint sets whose union is that term. At 3 partitions `P_plw^pg`
    * gives the same result, and the same set in each task.
    */
  private def checkPlans(g: DataFrame, constants: Map[String, Any], query: String): Unit = {
    val env = local(g)
    val t = Query2Mu.translate(query, constants)
    val expected = rowsOf(LocalEval.eval(t, env))
    val cat = Map(Query2Mu.GraphRel -> g.columns.toSet)
    val plans = Rewriter.explore(t, cat, RewriteConfig.all)
    info(s"$query: ${plans.size} plans, ${expected.size} rows")
    // Plans are checked on a few threads: each check is a handful of
    // small Spark jobs, so job latency, not work, bounds the test time.
    val pool = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      def executor(plan: PlanChoice, n: Int): Executor = {
        val ex = new Executor(spark, Map(Query2Mu.GraphRel -> g), ExecConfig(plan, n, 1000))
        ex.broadcasts(Query2Mu.GraphRel)
        ex
      }
      def tasks(ex: Executor, t: Term): Seq[Set[Seq[Any]]] =
        ex.region(t)._2.glom().collect().toSeq.map(_.map(_.toSeq).toSet)
      val checks = for (n <- Seq(1, 3, 4)) yield {
        val ex = executor(PlanChoice.Auto, n)
        val pg = Option.when(n == 3)(executor(PlanChoice.ForcePlwPg, n))
        plans.map(p => Future {
          assert(rowsOf(ex.eval(p)) == expected, s"n=$n: ${p.pretty}")
          pg.foreach(pg => assert(rowsOf(pg.eval(p)) == expected, s"P_plw^pg n=$n: ${p.pretty}"))
          (p :: outerFixes(p)).distinct.filter(u => outerFixes(u).forall(Stabilizer.stableCols(_, cat).nonEmpty))
            .foreach { u =>
              val parts = tasks(ex, u)
              assert(parts.length == n)
              val union = parts.foldLeft(Set.empty[Seq[Any]])(_ ++ _)
              assert(parts.map(_.size).sum == union.size, s"n=$n: tasks overlap on ${u.pretty}")
              assert(union == rowsOf(LocalEval.eval(u, env)), s"n=$n: ${u.pretty}")
              pg.foreach(pg => assert(tasks(pg, u) == parts, s"P_plw^pg n=$n: tasks differ on ${u.pretty}"))
            }
        })
      }
      Await.result(Future.sequence(checks.flatten), 10.minutes)
    } finally pool.shutdown()
  }

  test("concat n2: every plan, disjoint regions") {
    checkPlans(concatG, Map.empty, PaperQueries.concatClosure(labels.take(2)))
  }

  test("concat n3: every plan, disjoint regions") {
    checkPlans(concatG, Map.empty, PaperQueries.concatClosure(labels))
  }

  for (q <- Seq("Q4", "Q13", "Q16", "Q20", "Q21", "Q25")) {
    test(s"Yago-lite $q: every plan, disjoint regions") {
      checkPlans(yago.edges, yago.constants, yagoQuery(q))
    }
  }

  /** The subterms where the partition selection of `plan`'s outermost
    * fixpoint stops.
    */
  private def stops(plan: Term, cat: Analysis.Catalog): Seq[Term] = {
    val fix = outerFixes(plan).head
    val key = Stabilizer.stableCols(fix, cat).toSeq.sorted.take(1)
    val found = mutable.ArrayBuffer.empty[Term]
    Term.unionBranches(fix.body).filterNot(_.usesRec(fix.x)).foreach { b =>
      Stabilizer.pushSelection(b, key, new Memo(cat)) { (u, _) => found += u; u }
    }
    found.toSeq
  }

  test("concat n3 and Q25: the selection stops at one inner closure") {
    val concat = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> concatG), Map.empty, 4)
    val q25 = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> yago.edges), yago.constants, 4)
    for ((eng, q) <- Seq(concat -> PaperQueries.concatClosure(labels), q25 -> yagoQuery("Q25"))) {
      val plan = eng.plan(q)
      val fixStops = stops(plan, eng.cat).collect { case f: Fix => f }
      assert(fixStops.size == 1, plan.pretty)
      assert(!Stabilizer.stableCols(fixStops.head, eng.cat).isEmpty)
      assert(rowsOf(eng.execute(plan)) == rowsOf(LocalEval.eval(Query2Mu.translate(q, eng.constants),
        local(eng.catalog(Query2Mu.GraphRel)))))
    }
  }

  test("concat n3, Q25, Q16: a warm count runs two Spark stages") {
    // The inner closure where the selection stops (concat n3, Q25) and
    // the closure on Q16's join side it never reaches are evaluated in
    // the region's tasks, not exchanged into them: the count runs the
    // region's stage and the aggregate's, with no stage of their own.
    val concat = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> concatG), Map.empty, 4)
    val yagoEng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> yago.edges), yago.constants, 4)
    concat.warmup()
    yagoEng.warmup()
    for ((eng, q) <- Seq(concat -> PaperQueries.concatClosure(labels), yagoEng -> yagoQuery("Q25"),
                         yagoEng -> yagoQuery("Q16"))) {
      val plan = eng.plan(q)
      eng.execute(plan).count()
      val df = eng.execute(plan)
      val (_, stages) = SparkJobs.stagesDuring(spark)(df.count())
      assert(stages == 2, s"$q: $stages stages\n${plan.pretty}")
      assert(rowsOf(df) == rowsOf(LocalEval.eval(Query2Mu.translate(q, eng.constants),
        local(eng.catalog(Query2Mu.GraphRel)))), q)
    }
  }

  test("P_gld with a P_plw closure in φ equals LocalEval") {
    // The nodes reached by an a1 edge and then any number of a0+ paths.
    // X's one column comes from the closure, so X has no stable column
    // and runs P_gld under Auto; the a0 closure in φ has one, and each
    // P_gld task evaluates it once against the broadcast.
    val graph = local(concatG)
    val edge = (l: String) => AntiProj("pred", Filter(EqConst("pred", l), Rel(Query2Mu.GraphRel)))
    val inner = Term.closure(edge("a0"), "Y")
    val step = AntiProj("m", Join(Rename("trg", "m", RecVar("X")), Rename("src", "m", inner)))
    val fix = Fix("X", Union(AntiProj("src", edge("a1")), step))
    val cat = Map(Query2Mu.GraphRel -> concatG.columns.toSet)
    assert(Stabilizer.stableCols(fix, cat).isEmpty)
    assert(Stabilizer.stableCols(inner.asInstanceOf[Fix], cat).nonEmpty)
    val expected = rowsOf(LocalEval.eval(fix, graph))
    assert(expected.size > rowsOf(LocalEval.eval(AntiProj("src", edge("a1")), graph)).size)
    for (choice <- choices) {
      val ex = new Executor(spark, Map(Query2Mu.GraphRel -> concatG), ExecConfig(choice, 4, 1000))
      assert(rowsOf(ex.eval(fix)) == expected, choice)
    }
  }

  test("Yago-lite Q4, Q16, Q20: on a warm engine the chosen plan builds with no Spark job, counts with two") {
    val eng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> yago.edges), yago.constants, 4)
    eng.warmup()
    for (q <- Seq("Q4", "Q16", "Q20")) {
      val plan = eng.plan(yagoQuery(q))
      eng.execute(plan).count()
      val (df, build) = SparkJobs.during(spark)(eng.execute(plan))
      val (_, count) = SparkJobs.during(spark)(df.count())
      assert(build == 0, q)
      assert(count <= 2, s"$q: $count jobs")
    }
  }

  test("a fixpoint-free query runs as a region") {
    val eng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> concatG), Map.empty, 4)
    eng.warmup()
    val q = "?x,?y <- ?x a0 ?y"
    val plan = eng.plan(q)
    val (_, firstBuild) = SparkJobs.during(spark)(eng.execute(plan))
    assert(firstBuild > 0, "the first build collects the base relation")
    val (df, build) = SparkJobs.during(spark)(eng.execute(plan))
    val (_, count) = SparkJobs.during(spark)(df.count())
    assert(build == 0)
    assert(count <= 2, s"$count jobs")
    assert(rowsOf(df) == rowsOf(LocalEval.eval(Query2Mu.translate(q, Map.empty), local(concatG))))
  }

  test("execute returns a single scan of the rows, with no Join, Filter, Aggregate or Project node") {
    val eng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> concatG), Map.empty, 4)
    for (q <- Seq("?x,?y <- ?x a0/a1 ?y", PaperQueries.concatClosure(labels))) {
      val logical = eng.runQuery(q).queryExecution.logical
      assert(logical.isInstanceOf[LogicalRDD], s"$q:\n$logical")
    }
  }

  test("a base relation above broadcastThreshold read above the fixpoints is exchanged into the region") {
    val big = spark.createDataFrame(
      spark.sparkContext.parallelize((0L until 400L).map(i => Row(i % 40, i)), 2),
      StructType(Seq(StructField("trg", LongType), StructField("z", LongType))))
    val closure = Term.closure(AntiProj("pred", Filter(EqConst("pred", "a0"), Rel(Query2Mu.GraphRel))))
    val t = Join(closure, Rel("B"))
    val graph = local(concatG)
    val env = graph + ("B" -> LocalRel(Vector("trg", "z"), big.collect().toVector.map(_.toSeq.toVector)))
    assert(concatG.count() < 300)
    for (choice <- choices) {
      val ex = new Executor(spark, Map(Query2Mu.GraphRel -> concatG, "B" -> big),
        ExecConfig(choice, 4, 1000, broadcastThreshold = 300))
      assert(rowsOf(ex.eval(t)) == rowsOf(LocalEval.eval(t, env)), choice)
      assert(ex.broadcasts.refused.keySet == Set("B"), choice)
    }
  }

  test("a base relation above broadcastThreshold under the fixpoints is exchanged into their tasks") {
    val q = PaperQueries.concatClosure(labels)
    val t = Query2Mu.translate(q, Map.empty)
    val plan = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> concatG), Map.empty, 4).optimize(t)
    for (choice <- choices) {
      val ex = new Executor(spark, Map(Query2Mu.GraphRel -> concatG),
        ExecConfig(choice, 4, 1000, broadcastThreshold = 5))
      assert(rowsOf(ex.eval(plan)) == rowsOf(LocalEval.eval(t, local(concatG))), choice)
      assert(ex.broadcasts.refused.keySet == Set(Query2Mu.GraphRel), choice)
    }
  }

  test("concat n3: no Spark job while building, at most two to count; broadcast once, not in warmup") {
    // Every variant whose fixpoints may run as a region: a forced P_gld
    // loop runs Spark jobs while it builds.
    for (v <- Engines.variants if v.plan != PlanChoice.ForceGld) {
      val eng = Engines(v, spark, Map(Query2Mu.GraphRel -> concatG), Map.empty, 4)
      eng.warmup()
      val plan = eng.plan(PaperQueries.concatClosure(labels))
      val (_, firstBuild) = SparkJobs.during(spark)(eng.execute(plan))
      assert(firstBuild > 0, s"${eng.cfg.name}: the first query collects the base relation")
      val (df, build) = SparkJobs.during(spark)(eng.execute(plan))
      val (_, count) = SparkJobs.during(spark)(df.count())
      assert(build == 0, eng.cfg.name)
      assert(count <= 2, s"${eng.cfg.name}: $count jobs")
    }
  }
}

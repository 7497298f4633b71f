package repro.exec

import repro.SparkSpec
import repro.SparkTestData._
import repro.baselines.{CentralizedMuRA, GraphXRPQ}
import repro.core._
import repro.core.TestGraphs.{labeledRel, randLabeled}
import repro.graphdata.GraphData
import repro.queries.PaperQueries
import repro.ucrpq.Query2Mu

/** End-to-end engine tests: every engine variant (Dist-μ-RA with each
  * plan, BigDatalog-lite, Myria-lite, Centralized μ-RA, GraphX) must
  * produce identical results on queries covering all six classes
  * C1–C6 of Sec. V-D.
  */
class EngineSpec extends SparkSpec {

  private val g: Set[(Long, String, Long)] = randLabeled(14, 40, Seq("a", "b"), seed = 11) ++
    Set((1L, "a", 2L), (2L, "b", 3L)) // make sure constants participate
  private lazy val gDf = labeledDf(spark, g).cache()
  private val consts: Map[String, Any] = Map("N1" -> 1L, "N2" -> 2L, "N3" -> 3L)
  private def catalog = Map(Query2Mu.GraphRel -> gDf)

  /** Queries covering each class alone and combinations (Sec. V-D). */
  private val queries: Seq[(String, String)] = Seq(
    "C1 single recursion"        -> "?x,?y <- ?x a+ ?y",
    "C2 filter right"            -> "?x <- ?x a+ N3",
    "C3 filter left"             -> "?x <- N1 a+ ?x",
    "C4 concat right"            -> "?x,?y <- ?x a+/b ?y",
    "C5 concat left"             -> "?x,?y <- ?x b/a+ ?y",
    "C6 concat recursions"       -> "?x,?y <- ?x a+/b+ ?y",
    "C2+C5 combined"             -> "?x <- ?x b/a+ N3",
    "C3+C4 combined"             -> "?x <- N1 a+/b ?x",
    "alternation closure"        -> "?x,?y <- ?x (a|b)+ ?y",
    "inverse closure"            -> "?x,?y <- ?x (a/-a)+ ?y",
    "conjunction"                -> "?x,?z <- ?x a+ ?y, ?y b+ ?z",
    "projection head"            -> "?y <- ?x a+ ?y",
  )

  /** Reference: unoptimized term evaluated by the in-memory evaluator. */
  private def reference(q: String): Set[Seq[Any]] = {
    val t = Query2Mu.translate(q, consts)
    val r = LocalEval.eval(t, Map(Query2Mu.GraphRel -> labeledRel(g)))
    val sorted = r.aligned(r.cols.sorted)
    sorted.rows.map(_.toSeq).toSet
  }

  private def resultOf(df: org.apache.spark.sql.DataFrame): Set[Seq[Any]] = {
    val cols = df.columns.sorted
    df.select(cols.toSeq.map(df.col): _*).collect().map(_.toSeq).toSet
  }

  private lazy val engines: Seq[(String, String => org.apache.spark.sql.DataFrame)] =
    Engines.variants.map(v => v.name -> Engines(v, spark, catalog, consts, 4).runQuery _) ++ Seq(
      "Centralized mu-RA" -> new CentralizedMuRA(spark, catalog, consts).runQuery _,
      "GraphX" -> ((q: String) => GraphXRPQ.runQuery(spark, gDf, q, consts)))

  for ((cls, q) <- queries; (engName, run) <- engines) {
    test(s"$cls [$q] on $engName") {
      assert(resultOf(run(q)) == reference(q), s"wrong result for $q on $engName")
    }
  }

  test("Dist-mu-RA picks a filtered-base plan for C2 (reversal + push)") {
    val eng = Engines.distMuRA(spark, catalog, consts, 4)
    val plan = eng.plan("?x <- ?x a+ N3")
    // The chosen plan must contain a fixpoint whose constant part filters on N3.
    def hasFilteredBase(t: Term): Boolean = t match {
      case f: Fix      => mentionsFilterOnN3(Analysis.decompose(f)._1) || hasFilteredBase(f.body)
      case _: Antijoin => false
      case _           => t.children.exists(hasFilteredBase)
    }
    assert(hasFilteredBase(plan), plan.pretty)
  }

  test("BigDatalog-lite cannot push the C2 filter (stays outside the fixpoint)") {
    val eng = Engines(Engines.BigDatalogLite, spark, catalog, consts, 4)
    val plan = eng.plan("?x <- ?x a+ N3")
    def fixHasFilter(t: Term): Boolean = t match {
      case f: Fix => Term.unionBranches(f.body).exists { b =>
        !b.usesRec(f.x) && b.allColNames.nonEmpty && mentionsFilterOnN3(b)
      }
      case _: Antijoin => false
      case _           => t.children.exists(fixHasFilter)
    }
    assert(!fixHasFilter(plan), plan.pretty)
  }

  test("Dist-mu-RA avoids joining two materialized closures on C6; BigDatalog-lite cannot") {
    def countFix(t: Term): Int =
      (if (t.isInstanceOf[Fix]) 1 else 0) + t.children.map(countFix).sum
    // A "join of two closures" = some Join with a fixpoint on each side.
    def joinsTwoFixes(t: Term): Boolean = t match {
      case Join(l, r) if countFix(l) > 0 && countFix(r) > 0 => true
      case _ => t.children.exists(joinsTwoFixes)
    }
    val distEng = Engines.distMuRA(spark, catalog, consts, 4)
    val distPlan = distEng.plan("?x,?y <- ?x a+/b+ ?y")
    val bdPlan = Engines(Engines.BigDatalogLite, spark, catalog, consts, 4).plan("?x,?y <- ?x a+/b+ ?y")
    // Dist-μ-RA's plan uses merge/push-join: no join of two materialized
    // closures (the chosen plan nests one fixpoint in the other's base or
    // merges them into a single fixpoint — the paper's "mixture").
    assert(!joinsTwoFixes(distPlan), distPlan.pretty)
    // BigDatalog-lite computes the two closures separately and joins them.
    assert(joinsTwoFixes(bdPlan), bdPlan.pretty)
    // The fully merged single fixpoint is among Dist-μ-RA's candidates.
    val t = Query2Mu.translate("?x,?y <- ?x a+/b+ ?y", consts)
    val candidates = Rewriter.explore(t, distEng.cat, RewriteConfig.all)
    assert(candidates.exists(countFix(_) == 1), "merged plan not found in the plan space")
  }

  test("planning is deterministic: the same query twice gives equal plans") {
    val eng = Engines.distMuRA(spark, catalog, consts, 4)
    val q = "?x,?y <- ?x a+/b+ ?y"
    assert(eng.plan(q) == eng.plan(q))
    // The two largest plan spaces of the benchmark: concat n=6 and Yago Q20.
    val labels = (0 until 6).map(i => s"a$i")
    val concat = GraphData.withRandomLabels(spark, GraphData.erdosRenyi(spark, 40, 0.08, seed = 5), labels, seed = 6)
    val yago = GraphData.yagoLite(spark, scale = 0.03, seed = 3)
    Seq(
      (concat, Map.empty[String, Any], PaperQueries.concatClosure(labels)),
      (yago.edges, yago.constants, PaperQueries.yago.find(_.id == "Q20").get.query)).foreach { case (g, cs, q) =>
      val e = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> g), cs, 4)
      val p = e.plan(q)
      assert(e.plan(q) == p, q)
      assert(Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> g), cs, 4).plan(q) == p, q)
    }
  }

  test("RDBMS backends reject a column type DuckDB tables cannot hold") {
    val cat = Map("D" -> spark.sql("SELECT DATE'2024-01-01' AS src, DATE'2024-01-02' AS trg"))
    val t = Term.closure(Rel("D"))
    def error(run: => Unit): String = intercept[MuRaError](run).getMessage
    assert(error(new CentralizedMuRA(spark, cat, Map.empty).run(t).collect()).contains("DateType"))
    assert(error(Engines(Engines.DistMuRAPlwPg, spark, cat, Map.empty, 2).run(t).collect()).contains("DateType"))
  }

  test("Centralized mu-RA returns a BooleanType column with the same schema and rows as Dist-mu-RA") {
    val e = spark.createDataFrame(Seq((1L, 2L), (2L, 3L), (3L, 4L))).toDF("src", "trg")
    val b = spark.createDataFrame(Seq((1L, 2L, true), (3L, 4L, false))).toDF("src", "trg", "ok")
    val cat = Map("E" -> e, "B" -> b)
    // B ∘ E*, carrying B's flag along
    val t = Fix("X", Union(Rel("B"),
      AntiProj("m", Join(Rename("trg", "m", RecVar("X")), Rename("src", "m", Rel("E"))))))
    val central = new CentralizedMuRA(spark, cat, Map.empty).run(t)
    val dist = Engines.distMuRA(spark, cat, Map.empty, 2).run(t)
    assert(central.schema == dist.schema)
    assert(resultOf(central) == resultOf(dist))
    val cores = spark.sparkContext.defaultParallelism
    if (cores > 1) assert(central.rdd.getNumPartitions > 1, s"one partition of $cores cores")
  }

  test("execute returns Scala values of each column's type, as LocalEval does, on every plan choice") {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types._
    def df(schema: StructType, rows: Seq[Row]) = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
    // Equal numbers of different types (30, 30L, 30.0; 1, 1L; 2, 2L, 2.0)
    // share a dictionary code, and a code decodes to the first value given it.
    val people = Seq(Row("ann", 30, 1L, 30.0, true), Row("bob", null, 30L, 1.5, false),
      Row("cy", 1, 2L, null, null), Row("dan", 2, 3L, 2.0, true))
    val knows = Seq(Row("ann", "bob"), Row("bob", "cy"), Row("cy", "ann"), Row("cy", "dan"))
    val p = df(StructType(Seq(StructField("name", StringType), StructField("age", IntegerType),
      StructField("id", LongType), StructField("score", DoubleType), StructField("adult", BooleanType))), people)
    val k = df(StructType(Seq(StructField("src", StringType), StructField("trg", StringType))), knows)
    val cat = Map("P" -> p, "K" -> k)
    val env = Map("P" -> LocalRel(p.columns.toVector, people.toVector.map(_.toSeq.toVector)),
      "K" -> LocalRel(k.columns.toVector, knows.toVector.map(_.toSeq.toVector)))
    // Whom each person reaches by `knows`, with the reached one's columns.
    val t = Join(Term.closure(Rel("K")), Rename("name", "trg", Rel("P")))
    val expected = LocalEval.eval(t, env)
    assert(expected.size == 12)
    val external: Map[DataType, Class[_]] = Map(StringType -> classOf[String],
      IntegerType -> classOf[java.lang.Integer], LongType -> classOf[java.lang.Long],
      DoubleType -> classOf[java.lang.Double], BooleanType -> classOf[java.lang.Boolean])
    for (v <- Seq(Engines.DistMuRA, Engines.DistMuRAGld, Engines.DistMuRAPlwS, Engines.DistMuRAPlwPg)) {
      val out = Engines(v, spark, cat, Map.empty, 4).execute(t)
      assert(out.schema.map(f => f.name -> f.dataType) == Seq("adult" -> BooleanType, "age" -> IntegerType,
        "id" -> LongType, "score" -> DoubleType, "src" -> StringType, "trg" -> StringType), v.name)
      val rows = out.collect().toSeq
      assert(rows.map(_.toSeq).toSet == expected.aligned(out.columns.toVector).rows.toSet, v.name)
      for (r <- rows; (f, i) <- out.schema.fields.zipWithIndex if !r.isNullAt(i))
        assert(r.get(i).getClass == external(f.dataType), s"${v.name}: ${f.name} = ${r.get(i)}")
    }
  }

  test("engine rejects non-F_cond terms") {
    val eng = Engines.distMuRA(spark, catalog, consts, 4)
    assertThrows[MuRaError](
      eng.run(Fix("X", Union(edgeTerm, Join(RecVar("X"), RecVar("X"))))))
  }

  test("optimize rejects a fixpoint whose variable part does not vanish on the empty relation") {
    val e = edgeDf(spark, Set((1L, 2L), (2L, 3L)))
    val eng = Engines.distMuRA(spark, Map("E" -> e, "S" -> e), Map.empty, 2)
    // φ = π̃_c(ρ_trg^c(X ∪ E) ⋈ ρ_src^c(E)) is not empty when X is (AnalysisSpec's bad2)
    val bad = Fix("X", Union(Rel("S"), AntiProj("c",
      Join(Rename("trg", "c", Union(RecVar("X"), Rel("E"))), Rename("src", "c", Rel("E"))))))
    assert(intercept[MuRaError](eng.optimize(bad)).getMessage.contains("φ(∅)=∅"))
  }

  private def edgeTerm = Query2Mu.edge("a")

  /** Whether `u` filters on the constant N3 outside any antijoin or
    * nested fixpoint.
    */
  private def mentionsFilterOnN3(u: Term): Boolean = u match {
    case Filter(EqConst(_, v), _) => v == 3L
    case _: Antijoin | _: Fix     => false
    case _                        => u.children.exists(mentionsFilterOnN3)
  }

  test("engine stats collect row and distinct counts") {
    val eng = Engines.distMuRA(spark, catalog, consts, 4)
    val st = eng.stats(Query2Mu.GraphRel)
    assert(st.rows == g.size.toDouble)
    assert(st.distinct.keySet == Set("src", "pred", "trg"))
  }
}

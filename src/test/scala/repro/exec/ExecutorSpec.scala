package repro.exec

import repro.{Oracle, SparkJobs, SparkSpec, SparkTestData}
import repro.SparkTestData._
import repro.core._
import repro.core.TestGraphs._

/** Distributed execution of μ-RA terms: non-recursive operators, which
  * run as regions, and all three fixpoint physical plans (P_gld, P_plw^s,
  * P_plw^pg), cross-checked against the in-memory evaluator and the
  * DuckDB oracle with independently hand-written recursive SQL.
  */
class ExecutorSpec extends SparkSpec {

  private def env = Map(
    "E" -> edgeDf(spark, paperE),
    "S" -> edgeDf(spark, paperS))

  private def exec(plan: PlanChoice, nPart: Int = 4) =
    new Executor(spark, env, ExecConfig(plan, nPart, maxIters = 1000))

  // ------------------------------------------------- non-recursive ops

  test("filter, rename, antiproject") {
    val t = AntiProj("m", Rename("trg", "m", Filter(EqConst("src", 1L), Rel("E"))))
    val df = exec(PlanChoice.Auto).eval(t)
    assert(df.columns.toSeq == Seq("src"))
    assert(toLongs(df) == Set(1L))
  }

  test("natural join matches composition") {
    val t = Term.compose(Rel("S"), Rel("E"))
    val df = exec(PlanChoice.Auto).eval(t)
    assert(toPairs(df) == bruteCompose(paperS, paperE))
  }

  test("antijoin keeps the left rows with no match on the right") {
    val df = exec(PlanChoice.Auto).eval(Antijoin(Rel("E"), Rel("S")))
    assert(toPairs(df) == paperE -- paperS)
  }

  test("antijoin with no common columns builds no Spark job: empty right keeps left, else empty") {
    val right = Rename("src", "a", Rename("trg", "b", Rel("S")))
    val empty = Filter(EqConst("a", -1L), right)
    val ex = exec(PlanChoice.Auto)
    ex.broadcasts("E")
    ex.broadcasts("S")
    // With E and S broadcast, building runs no job unless it evaluates a side.
    val (keep, jobs) = SparkJobs.during(spark)(ex.eval(Antijoin(Rel("E"), empty)))
    assert(jobs == 0)
    assert(toPairs(keep) == paperE)
    assert(toPairs(ex.eval(Antijoin(Rel("E"), right))).isEmpty)
  }

  test("union deduplicates") {
    val df = exec(PlanChoice.Auto).eval(Union(Rel("E"), Rel("S")))
    assert(df.count() == paperE.size)
  }

  test("column-equality filter") {
    val withLoop = edgeDf(spark, paperE + ((3L, 3L)))
    val ex = new Executor(spark, Map("E" -> withLoop), ExecConfig(PlanChoice.Auto, 4))
    assert(toPairs(ex.eval(Filter(EqCols("src", "trg"), Rel("E")))) == Set((3L, 3L)))
  }

  // ------------------------------------------------------ fixpoint plans

  private val plans = Seq(
    "P_gld" -> PlanChoice.ForceGld,
    "P_plw_s" -> PlanChoice.ForcePlwS,
    "P_plw_pg" -> PlanChoice.ForcePlwPg,
    "Auto" -> PlanChoice.Auto)

  for ((name, p) <- plans) {
    test(s"$name: Example 2 fixpoint matches the paper trace") {
      val df = exec(p).eval(example2)
      assert(toPairs(df) == bruteFrom(paperS, paperE))
    }

    test(s"$name: E+ equals brute transitive closure") {
      val df = exec(p).eval(closureE)
      assert(toPairs(df) == bruteClosure(paperE))
    }

    test(s"$name: no duplicates in the result") {
      val df = exec(p).eval(closureE)
      assert(df.count() == df.distinct().count())
    }

    test(s"$name: random graph closure matches oracle (recursive SQL)") {
      val e = randEdges(15, 30, seed = 7)
      val eDf = edgeDf(spark, e)
      val ex = new Executor(spark, Map("E" -> eDf), ExecConfig(p, 4, 1000))
      val df = ex.eval(closureE)
      Oracle.assertEquivalent(
        df.select(df.col("src"), df.col("trg")),
        """WITH RECURSIVE tc AS (
          |  SELECT src, trg FROM e
          |  UNION
          |  SELECT tc.src, e.trg FROM tc JOIN e ON tc.trg = e.src
          |) SELECT src, trg FROM tc""".stripMargin,
        "e" -> eDf)
    }

    test(s"$name: merged-style fixpoint (two variable branches)") {
      val prepend = AntiProj("k1", Join(Rename("trg", "k1", Rel("E")), Rename("src", "k1", RecVar("Z"))))
      val append  = AntiProj("k2", Join(Rename("trg", "k2", RecVar("Z")), Rename("src", "k2", Rel("E"))))
      val fix = Fix("Z", Union(Rel("S"), Union(prepend, append)))
      val df = exec(p).eval(fix)
      assert(toPairs(df) == asPairs(LocalEval.eval(fix,
        Map("E" -> rel(paperE), "S" -> rel(paperS)))))
    }
  }

  test("Auto picks P_plw for stable fixpoints and results match P_gld") {
    val a = exec(PlanChoice.Auto).eval(example2)
    val g = exec(PlanChoice.ForceGld).eval(example2)
    assert(toPairs(a) == toPairs(g))
  }

  test("fixpoint with nested constant fixpoint in φ is hoisted and correct") {
    // μ(X = S ∪ X ∘ (E+)) = S ∘ (E+)* = S ∘ E*  restricted to ≥0 E+ steps
    val fix = Fix("X", Union(Rel("S"),
      AntiProj("c", Join(Rename("trg", "c", RecVar("X")),
        Rename("src", "c", Term.closure(Rel("E"), "Y"))))))
    for ((_, p) <- plans) {
      val df = exec(p).eval(fix)
      assert(toPairs(df) == bruteFrom(paperS, bruteClosure(paperE)))
    }
  }

  test("P_plw_s partitions more than workers still correct") {
    val df = exec(PlanChoice.ForcePlwS, nPart = 13).eval(closureE)
    assert(toPairs(df) == bruteClosure(paperE))
  }

  test("single-partition P_plw_s equals local evaluation") {
    val df = exec(PlanChoice.ForcePlwS, nPart = 1).eval(example2)
    assert(toPairs(df) == bruteFrom(paperS, paperE))
  }

  test("maxIters guard fires in P_gld") {
    val ex = new Executor(spark, env, ExecConfig(PlanChoice.ForceGld, 4, maxIters = 1))
    assertThrows[MuRaError](ex.eval(closureE).count())
  }

  test("P_gld runs one Spark job per iteration, semi-naive and naive") {
    // The closure of a path of L edges takes L iterations: the i-th finds
    // the paths of i + 1 edges, the L-th finds none.
    val l = 12
    val path = edgeDf(spark, (0L until l.toLong).map(i => (i, i + 1)).toSet)
    for (semiNaive <- Seq(true, false)) {
      val ex = new Executor(spark, Map("E" -> path), ExecConfig(PlanChoice.ForceGld, 4, semiNaive = semiNaive))
      ex.broadcasts("E")
      val (df, build) = SparkJobs.during(spark)(ex.eval(closureE))
      val (rows, count) = SparkJobs.during(spark)(df.count())
      assert(rows == l * (l + 1) / 2)
      // With E broadcast, building runs one job per iteration, the count
      // of the new delta; counting the result takes at most two more.
      assert(build <= l, s"semiNaive=$semiNaive: $build jobs to build")
      assert(build + count <= l + 2, s"semiNaive=$semiNaive: $build + $count jobs")
    }
  }

  test("P_gld stops when its thread is interrupted") {
    val ex = exec(PlanChoice.ForceGld)
    Thread.currentThread().interrupt()
    try assertThrows[InterruptedException](ex.eval(closureE).count())
    finally Thread.interrupted()
  }

  test("labeled-graph fixpoint through σ_pred (edge terms)") {
    val g = randLabeled(10, 25, Seq("a", "b"), seed = 3)
    val gDf = labeledDf(spark, g)
    val edgeA = AntiProj("pred", Filter(EqConst("pred", "a"), Rel("G")))
    val t = Term.closure(edgeA)
    val expected = bruteClosure(g.collect { case (s, "a", o) => (s, o) })
    for ((_, p) <- plans) {
      val ex = new Executor(spark, Map("G" -> gDf), ExecConfig(p, 4, 1000))
      assert(toPairs(ex.eval(t)) == expected)
    }
  }

  test("a fixpoint with no stable column gives each row once on every plan") {
    // Nodes reachable from the node of largest out-degree: its successors
    // start tasks of their own under P_plw and reach common nodes.
    val e = randEdges(15, 30, seed = 7)
    val start = e.groupBy(_._1).toSeq.sortBy { case (n, out) => (-out.size, n) }.head._1
    val step = AntiProj("m", Join(Rename("trg", "m", RecVar("X")), Rename("src", "m", Rel("E"))))
    val fix = Fix("X", Union(AntiProj("src", Filter(EqConst("src", start), Rel("E"))), step))
    val expected = bruteClosure(e).filter(_._1 == start).map(_._2)
    for ((name, p) <- plans) {
      val df = new Executor(spark, Map("E" -> edgeDf(spark, e)), ExecConfig(p, 4, 1000)).eval(fix)
      assert(df.count() == expected.size, name)
      assert(SparkTestData.toLongs(df) == expected, name)
    }
  }

  test("reach-style single-column fixpoint on all plans") {
    // reachable node set from node 1: μ(X = π̃_src σ_src=1(E) ∪ step)
    val base = AntiProj("src", Filter(EqConst("src", 1L), Rel("E")))
    val step = AntiProj("m", Join(Rename("trg", "m", RecVar("X")),
      Rename("src", "m", Rel("E"))))
    val fix = Fix("X", Union(base, step))
    val expected = bruteClosure(paperE).filter(_._1 == 1L).map(_._2)
    for ((_, p) <- plans) {
      val df = exec(p).eval(fix)
      assert(SparkTestData.toLongs(df) == expected)
    }
  }
}

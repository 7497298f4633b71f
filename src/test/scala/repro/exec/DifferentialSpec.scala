package repro.exec

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.SparkTestData.labeledDf
import repro.core._
import repro.core.TestGraphs.{labeledRel, randLabeled}
import repro.ucrpq.{Alt, Concat, Conjunct, Endpoint, Inv, Label, Path, Plus, QConst, QVar, Query, Query2Mu}

/** Differential checks of the executor, each against [[LocalEval]].
  * Random well-sorted terms, closures under a join, union,
  * anti-projection or filter (so that the operators above the fixpoint
  * run in the region tasks) and fixpoint-free terms, evaluated by
  * [[Executor.eval]] under every [[PlanChoice]], and under Myria-lite's
  * naive `P_gld` loop, on 3 partitions, give what `LocalEval` gives, each
  * row once. Random UCRPQs, optimised and run by Dist-μ-RA, give what
  * `LocalEval` gives for their unoptimised translation.
  */
class DifferentialSpec extends SparkSpec {

  private def frame(r: LocalRel): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(r.rows.map(Row.fromSeq), 2),
      StructType(r.cols.map(StructField(_, LongType))))

  /** The rows of `df`, its columns sorted; a row that occurs twice is a failure. */
  private def rowsOf(df: DataFrame, what: => String): Set[Seq[Any]] = {
    val cols = df.columns.sorted
    val rows = df.select(cols.toSeq.map(df.col): _*).collect().map(_.toSeq)
    assert(rows.length == rows.distinct.length, s"duplicate rows: $what")
    rows.toSet
  }

  private val configs = Seq(PlanChoice.Auto, PlanChoice.ForcePlwS, PlanChoice.ForcePlwPg, PlanChoice.ForceGld)
    .map(ExecConfig(_, 3, 1000)) :+ ExecConfig(PlanChoice.ForceGld, 3, 1000, semiNaive = false)

  private def rowsOf(r: LocalRel): Set[Seq[Any]] = r.aligned(r.cols.sorted).rows.map(_.toSeq).toSet

  /** `t` on `env` under every config equals [[LocalEval]], each row once. */
  private def agrees(t: Term, env: Map[String, LocalRel]): Boolean = {
    Analysis.checkFcond(t)
    val expected = rowsOf(LocalEval.eval(t, env))
    val frames = env.map { case (n, r) => n -> frame(r) }
    val broadcasts = new Broadcasts(spark, frames, ExecConfig(PlanChoice.Auto, 3).broadcastThreshold)
    configs.foreach { cfg =>
      val what = s"${cfg.plan}, semiNaive=${cfg.semiNaive}: ${t.pretty}"
      assert(rowsOf(new Executor(spark, frames, cfg, broadcasts).eval(t), what) == expected, what)
    }
    true
  }

  test("random closures under ⋈, ∪, π̃ or σ: every plan choice equals LocalEval (16 cases, n = 3)") {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(16).withInitialSeed(Seed(9L))
    val gen = for (t <- RandomTerms.topped(3); env <- RandomTerms.relations) yield (t, env)
    val res = SCTest.check(params, Prop.forAll(gen) { case (t, env) => agrees(t, env) })
    assert(res.passed, res.status.toString)
  }

  test("random fixpoint-free terms: every plan choice equals LocalEval (24 cases, n = 3)") {
    val cat = Map("E" -> Set("src", "trg"), "S" -> Set("src", "trg"), "V" -> Set("src"))
    def holdsFix(t: Term): Boolean = t.isInstanceOf[Fix] || t.children.exists(holdsFix)
    def disjoint(l: Term, r: Term): Boolean = (Analysis.sort(l, cat) intersect Analysis.sort(r, cat)).isEmpty
    /** The joins and antijoins of `t` whose sides share no column. */
    def crossings(t: Term): Seq[String] = (t match {
      case Join(l, r) if disjoint(l, r)     => Seq("join")
      case Antijoin(l, r) if disjoint(l, r) => Seq("antijoin")
      case _                                => Nil
    }) ++ t.children.flatMap(crossings)
    val seen = Set.newBuilder[String]
    val params = SCTest.Parameters.default.withMinSuccessfulTests(24).withInitialSeed(Seed(10L))
    val gen = for ((t, _) <- RandomTerms.term(3).suchThat(u => !holdsFix(u._1)); env <- RandomTerms.relations)
      yield (t, env)
    val res = SCTest.check(params, Prop.forAll(gen) { case (t, env) => seen ++= crossings(t); agrees(t, env) })
    assert(res.passed, res.status.toString)
    assert(seen.result() == Set("join", "antijoin"), "a join and an antijoin with no common column")
  }

  /** A regular path over `labels`, at most `depth` operators deep. */
  private def path(labels: Seq[String], depth: Int): Gen[Path] = {
    val label = Gen.oneOf(labels).flatMap(l => Gen.oneOf[Path](Label(l), Inv(l)))
    if (depth == 0) label
    else {
      val sub = path(labels, depth - 1)
      Gen.frequency(
        2 -> label,
        2 -> Gen.listOfN(2, sub).map(Concat(_)),
        1 -> Gen.listOfN(2, sub).map(Alt(_)),
        2 -> sub.map(Plus(_)))
    }
  }

  /** A UCRPQ of one or two atoms over `labels`, each atom with a constant
    * at one end or none, its head a non-empty subset of its variables.
    */
  private def query(labels: Seq[String], constants: Seq[String]): Gen[Query] = {
    val vars = Seq("x", "y", "z")
    val atom = for {
      p <- path(labels, 2); l <- Gen.oneOf(vars); r <- Gen.oneOf(vars); k <- Gen.oneOf(constants)
      ends <- Gen.oneOf[(Endpoint, Endpoint)]((QVar(l), QVar(r)), (QConst(k), QVar(r)), (QVar(l), QConst(k)))
    } yield Conjunct(ends._1, p, ends._2)
    for {
      atoms <- Gen.choose(1, 2).flatMap(Gen.listOfN(_, atom))
      heads <- Gen.atLeastOne(atoms.flatMap(a => Seq(a.left, a.right)).collect { case QVar(v) => v }.distinct)
    } yield Query(heads.toList, atoms)
  }

  test("generated UCRPQs over three labels: Dist-mu-RA equals LocalEval of the unoptimised term (40 cases)") {
    val labels = Seq("a", "b", "c")
    val g = randLabeled(8, 64, labels, seed = 21)
    val constants: Map[String, Any] = Map("N1" -> 1L, "N2" -> 2L, "N3" -> 3L)
    val eng = Engines.distMuRA(spark, Map(Query2Mu.GraphRel -> labeledDf(spark, g).cache()), constants, 3)
    val env = Map(Query2Mu.GraphRel -> labeledRel(g))
    val params = SCTest.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(11L))
    var nonEmpty = 0
    val res = SCTest.check(params, Prop.forAll(query(labels, constants.keys.toSeq.sorted)) { q =>
      val t = Query2Mu.translate(q, constants)
      val expected = rowsOf(LocalEval.eval(t, env))
      if (expected.nonEmpty) nonEmpty += 1
      assert(rowsOf(eng.run(t), q.toString) == expected, q.toString)
      true
    })
    assert(res.passed, res.status.toString)
    assert(nonEmpty > 20, s"only $nonEmpty of 40 queries have a row")
  }
}

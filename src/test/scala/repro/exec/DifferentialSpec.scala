package repro.exec

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.scalacheck.{Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.core._

/** Differential check of the executor: random well-sorted terms, each a
  * closure under a join, union, anti-projection or filter (so that the
  * operators above the fixpoint run in the region tasks), evaluated by
  * [[Executor.eval]] under every [[PlanChoice]], and under Myria-lite's
  * naive `P_gld` loop, on 3 partitions, give what [[LocalEval]] gives,
  * each row once.
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

  test("random closures under ⋈, ∪, π̃ or σ: every plan choice equals LocalEval (16 cases, n = 3)") {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(16).withInitialSeed(Seed(9L))
    val gen = for (t <- RandomTerms.topped(3); env <- RandomTerms.relations) yield (t, env)
    val res = SCTest.check(params, Prop.forAll(gen) { case (t, env) =>
      Analysis.checkFcond(t)
      val expected = {
        val r = LocalEval.eval(t, env)
        r.aligned(r.cols.sorted).rows.map(_.toSeq).toSet
      }
      val frames = env.map { case (n, r) => n -> frame(r) }
      val broadcasts = new Broadcasts(spark, frames, ExecConfig(PlanChoice.Auto, 3).broadcastThreshold)
      configs.foreach { cfg =>
        val what = s"${cfg.plan}, semiNaive=${cfg.semiNaive}: ${t.pretty}"
        assert(rowsOf(new Executor(spark, frames, cfg, broadcasts).eval(t), what) == expected, what)
      }
      true
    })
    assert(res.passed, res.status.toString)
  }
}

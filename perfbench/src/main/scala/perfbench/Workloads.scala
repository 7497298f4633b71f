package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Term
import repro.exec.{Engines, MuRaEngine}
import repro.graphdata.GraphData
import repro.queries.PaperQueries
import repro.ucrpq.Query2Mu
import scala.collection.immutable.ListMap

/** One benchmark query: a UCRPQ against the dataset named `data`. */
final case class BenchQuery(id: String, data: String, ucrpq: String) {
  def translated(constants: Map[String, Any]): Term = Query2Mu.translate(ucrpq, constants)
}

/** A generated dataset: its catalog, its constants and the engine over it. */
final case class Dataset(name: String, catalog: Map[String, DataFrame],
                         constants: Map[String, Any], engine: MuRaEngine) {
  def edges: Long = catalog.values.map(_.count()).sum
}

/** A workload: datasets generated from the seed, the timed queries, and
  * cheap non-recursive warm-up queries run as part of set-up.
  */
trait Workload {
  def name: String
  /** Sizes that define the inputs (recorded in the run metadata). */
  def sizes: ListMap[String, Any]
  def queries: Seq[BenchQuery]
  def warmQueries: Seq[BenchQuery]
  /** Generate the graphs (not yet cached) for `seed`. */
  def generate(spark: SparkSession, seed: Long): Seq[(String, Map[String, DataFrame], Map[String, Any])]

  /** Generate, cache and materialise the graphs, build one engine per
    * dataset with `nPartitions` and gather its cost-model statistics.
    */
  def setup(spark: SparkSession, seed: Long, nPartitions: Int): Map[String, Dataset] =
    generate(spark, seed).map { case (dn, cat, consts) =>
      cat.values.foreach(df => df.cache().count())
      val eng = Engines.distMuRA(spark, cat, consts, nPartitions)
      eng.warmup()
      dn -> Dataset(dn, cat, consts, eng)
    }.toMap
}

object Workloads {

  /** Yago queries of paper Fig. 9 on Yago-lite at scale 0.2: the subset
    * Q4, Q13, Q16, Q20, Q21, Q25 of Q1–Q25, so that one run stays under a
    * minute.
    */
  object Yago extends Workload {
    val name = "yago"
    private val scale = 0.2
    private val picked = Seq("Q4", "Q13", "Q16", "Q20", "Q21", "Q25")
    val sizes: ListMap[String, Any] = ListMap("yago_scale" -> scale, "yago_queries" -> picked.mkString(","))
    val queries: Seq[BenchQuery] =
      PaperQueries.yago.filter(q => picked.contains(q.id)).map(q => BenchQuery(q.id, "yago", q.query))
    val warmQueries: Seq[BenchQuery] = Seq(BenchQuery("warm", "yago", "?a,?b <- ?a livesIn ?b"))
    def generate(spark: SparkSession, seed: Long) = {
      val g = GraphData.yagoLite(spark, scale, seed)
      Seq(("yago", Map(Query2Mu.GraphRel -> g.edges), g.constants))
    }
  }

  /** Concatenated closures a1+/…/an+ (paper Fig. 10) for n = 2, 3, 6 on
    * ER(800, 0.015) with 10 random labels.
    */
  object Concat extends Workload {
    val name = "concat"
    private val (n, p, lengths) = (800, 0.015, Seq(2, 3, 6))
    private val labels = (0 until 10).map(i => s"a$i")
    val sizes: ListMap[String, Any] = ListMap(
      "concat_n" -> n, "concat_p" -> p, "concat_labels" -> labels.size, "concat_lengths" -> lengths.mkString(","))
    val queries: Seq[BenchQuery] =
      lengths.map(k => BenchQuery(s"n$k", "concat", PaperQueries.concatClosure(labels.take(k))))
    val warmQueries: Seq[BenchQuery] = Seq(BenchQuery("warm", "concat", "?x,?y <- ?x a0 ?y"))
    def generate(spark: SparkSession, seed: Long) = {
      val g = GraphData.withRandomLabels(spark, GraphData.erdosRenyi(spark, n, p, seed * 2 + 1), labels, seed * 2 + 2)
      Seq(("concat", Map(Query2Mu.GraphRel -> g), Map.empty[String, Any]))
    }
  }

  val all: Seq[Workload] = Seq(Yago, Concat)

  def apply(name: String): Workload = all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
    s"unknown workload '$name' (expected one of ${all.map(_.name).mkString(", ")})"))
}

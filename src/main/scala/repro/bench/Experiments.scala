package repro.bench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{CentralizedMuRA, GraphXRPQ}
import repro.core.Term
import repro.exec.{Engines, MuRaEngine}
import repro.graphdata.GraphData
import repro.queries.{MuRaTerms, PaperQueries}
import repro.ucrpq.Query2Mu
import Harness._

/** The runner of the paper's evaluation artifacts (Table I and
  * Figs. 7–14). Each artifact builds one table, checks it, and writes it
  * into EXPERIMENTS.md between its markers:
  *
  * {{{
  *   sbt "runMain repro.bench.Experiments fig9 fig10"
  *   spark-submit --class repro.bench.Experiments target/scala-2.13/repro_2.13-*.jar
  * }}}
  *
  * With no ids it runs every artifact. Dataset scales are the constants
  * below, reduced for one 4-core machine (DESIGN.md §4).
  */
object Experiments {

  // ------------------------------------------------------------- scales

  val YagoScale: Double = 0.2
  val RndGraphs: Seq[(Int, Double)] = Seq(1000 -> 0.005, 2000 -> 0.002, 3000 -> 0.001)
  /** Random trees at the paper's `tree_10` and `tree_150` sizes. */
  val Table1Trees: Seq[Int] = Seq(10000, 150000)
  val Table1UniprotEdges: Seq[Long] = Seq(20000L, 50000L, 100000L)
  val ConcatNodes: Int = 1500
  val ConcatP: Double = 0.01
  val AnbnNodes: Int = 1000
  val SameGenTreeNodes: Int = 2000
  val ReachNodes: Int = 10000
  val Fig12TreeNodes: Seq[Int] = Seq(500, 1000, 2000, 4000)
  val Fig13Edges: Long = 20000L
  val Fig14Edges: Long = 8000L
  val Fig8Edges: Seq[Long] = Seq(10000L, 30000L, 60000L)

  /** Spark SQL shuffle partitions of the runner's session. */
  private val ShufflePartitions: Int = 64

  /** The session the runner (and the test suites) use: `SPARK_MASTER`
    * or all local cores, Spark logging at WARN, and broadcast joins off,
    * so that the Catalyst plans that remain, the GraphX baseline's joins
    * of its conjuncts and `table1`'s distinct node count, exercise the
    * shuffle path at test scale; the engines build none.
    */
  def session(appName: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
    // At INFO, Spark writes some 400k log lines per test run.
    s.sparkContext.setLogLevel("WARN")
    s
  }

  // ---------------------------------------------------------- artifacts

  /** One evaluation artifact: its id, the first cell of every row its
    * table must have, and how to build that table.
    */
  final case class Artifact(id: String, rows: Seq[String], build: SparkSession => Table)

  val artifacts: Seq[Artifact] = Seq(
    Artifact("table1", table1Names, table1),
    Artifact("fig7", fig7Queries.map(_.id), fig7),
    Artifact("fig8", PaperQueries.uniprot.map(_.id), fig8),
    Artifact("fig9", PaperQueries.yago.map(_.id), fig9),
    Artifact("fig10", concatKs.map(k => s"n=$k"), fig10),
    Artifact("fig11", Seq("anbn", "same_generation", "reach"), fig11),
    Artifact("fig12", Fig12TreeNodes.map(n => s"tree_$n"), fig12),
    Artifact("fig13", PaperQueries.uniprot.map(_.id), fig13),
    Artifact("fig14", PaperQueries.uniprot.map(_.id), fig14),
  )

  /** The artifacts named by `ids`, in order; unknown ids are an error. */
  def select(ids: Seq[String]): Seq[Artifact] = {
    val byId = artifacts.map(a => a.id -> a).toMap
    val unknown = ids.filterNot(byId.contains)
    if (unknown.nonEmpty)
      throw new IllegalArgumentException(
        s"unknown artifact id(s) ${unknown.mkString(", ")}; valid ids: ${artifacts.map(_.id).mkString(" ")}")
    ids.map(byId)
  }

  /** The artifact's sanity check: every expected row is present and no
    * Dist-μ-RA cell failed (a timeout is a measured result).
    */
  def check(a: Artifact, t: Table): Unit = {
    val present = t.rows.map(_.head).toSet
    val missing = a.rows.filterNot(present)
    val failed = for {
      r <- t.rows
      (h, c) <- t.header.zip(r)
      if h.startsWith(Engines.DistMuRA.name) && c.startsWith("fail")
    } yield s"${r.head} on $h: $c"
    if (missing.nonEmpty || failed.nonEmpty)
      throw new IllegalStateException(
        s"${a.id}: missing rows [${missing.mkString(", ")}]; Dist-mu-RA failed on [${failed.mkString(", ")}]")
  }

  /** `doc` with the block between the artifact's begin and end markers
    * replaced by `block`. Each marker must occur exactly once.
    */
  def splice(doc: String, id: String, block: String): String = {
    val (begin, end) = (s"<!-- BEGIN $id -->", s"<!-- END $id -->")
    def at(marker: String): Int = {
      val i = doc.indexOf(marker)
      if (i < 0 || doc.indexOf(marker, i + 1) >= 0)
        throw new IllegalArgumentException(s"$id: the document needs exactly one '$marker' marker")
      i
    }
    val (b, e) = (at(begin) + begin.length, at(end))
    if (b > e) throw new IllegalArgumentException(s"$id: '$end' comes before '$begin'")
    doc.substring(0, b) + "\n" + block.trim + "\n" + doc.substring(e)
  }

  private val ExperimentsFile: Path = Paths.get("EXPERIMENTS.md")

  /** Run the artifacts named in `args` (all by default) and write each
    * table into EXPERIMENTS.md, in the working directory, once it passes
    * its check. An unknown id, a missing marker or a failed check throws.
    */
  def main(args: Array[String]): Unit = {
    val chosen = select(if (args.isEmpty) artifacts.map(_.id) else args.toSeq)
    chosen.foreach(a => splice(Files.readString(ExperimentsFile), a.id, ""))
    val spark = session("repro-experiments")
    try chosen.foreach { a =>
      val t0 = System.nanoTime()
      val t = a.build(spark)
      println(t.render)
      check(a, t)
      val block = t.render + f"\nWall time: ${(System.nanoTime() - t0) / 1e9}%.0f s on " +
        s"`${spark.sparkContext.master}`, defaultParallelism ${spark.sparkContext.defaultParallelism}."
      Files.writeString(ExperimentsFile, splice(Files.readString(ExperimentsFile), a.id, block))
    } finally spark.stop()
  }

  // ------------------------------------------------------------ helpers

  /** A system under measurement: its name, its untimed preparation and
    * how it answers a UCRPQ.
    */
  private final case class Contender(name: String, runQuery: String => DataFrame,
                                     prepare: () => Unit = () => ())

  private def engine(spark: SparkSession, v: Engines.Variant, catalog: Map[String, DataFrame],
                     constants: Map[String, Any]): MuRaEngine =
    Engines(v, spark, catalog, constants, spark.sparkContext.defaultParallelism)

  private def contender(e: MuRaEngine): Contender = Contender(e.cfg.name, e.runQuery, () => e.warmup())

  private def centralized(spark: SparkSession, catalog: Map[String, DataFrame],
                          constants: Map[String, Any]): Contender = {
    val c = new CentralizedMuRA(spark, catalog, constants)
    Contender(c.name, c.runQuery, () => c.warmup())
  }

  private def graphX(spark: SparkSession, edges: DataFrame, constants: Map[String, Any]): Contender =
    Contender("GraphX", q => GraphXRPQ.runQuery(spark, edges, q, constants))

  /** Variant `v` answering each id of `terms` with its term and catalog. */
  private def termContender(spark: SparkSession, v: Engines.Variant,
                            terms: Seq[(String, Map[String, DataFrame], Term)]): Contender = {
    val engines = terms.map { case (id, cat, t) => id -> (engine(spark, v, cat, Map.empty), t) }.toMap
    Contender(v.name, id => engines(id)._1.run(engines(id)._2), () => engines.values.foreach(_._1.warmup()))
  }

  /** Prepare every contender and run each of `warm`, then the first of
    * `queries`, once on each (JIT and codegen), untimed; then time every
    * query on every contender.
    */
  private def measure(spark: SparkSession, contenders: Seq[Contender], warm: Seq[String],
                      queries: Seq[(String, String)]): Seq[Measurement] = {
    val warmUp = warm ++ queries.take(1).map(_._2)
    contenders.foreach { c => c.prepare(); warmUp.foreach(q => timed(spark, c.name, "warm-up")(c.runQuery(q))) }
    for ((id, q) <- queries; c <- contenders) yield timed(spark, c.name, id)(c.runQuery(q))
  }

  private def classes(qs: Seq[PaperQueries.Q]): String =
    "Classes: " + qs.map(q => s"${q.id}:${q.classes.mkString("/")}").mkString(" ")

  private def cached(df: DataFrame): DataFrame = { df.cache().count(); df }

  // ------------------------------------------------------------ Table I

  private def table1Names: Seq[String] =
    RndGraphs.map { case (n, p) => s"rnd_${n / 1000}k_$p" } ++ Table1Trees.map(n => s"tree_${n / 1000}") ++
      Table1UniprotEdges.map(n => s"uniprot_${n / 1000}k") :+ "yago_lite"

  /** Table I: edges, nodes, TC size per dataset (ours, scaled; the
    * paper's values are recorded in EXPERIMENTS.md for comparison).
    */
  def table1(spark: SparkSession): Table = {
    def unlabeled(df: DataFrame): Seq[Long] = Seq(df.count(),
      df.select("src").union(df.select("trg")).distinct().count(),
      engine(spark, Engines.DistMuRA, Map("R" -> df), Map.empty).run(MuRaTerms.tc).count())
    val counts = RndGraphs.map { case (n, p) => unlabeled(GraphData.erdosRenyi(spark, n, p)) } ++
      Table1Trees.map(n => unlabeled(GraphData.randomTree(spark, n))) ++
      (Table1UniprotEdges.map(GraphData.uniprotLite(spark, _)) :+ GraphData.yagoLite(spark, YagoScale))
        .map(g => Seq(g.nEdges, g.nNodes))
    Table("Table I — real and synthetic graphs (ours, scaled)", Seq("dataset", "edges", "nodes", "TC size"),
      table1Names.zip(counts).map { case (name, cs) => name +: cs.map(_.toString).padTo(3, "-") })
  }

  // ----------------------------------------------------- Yago workloads

  private def yagoCatalog(spark: SparkSession): (Map[String, DataFrame], Map[String, Any]) = {
    val g = GraphData.yagoLite(spark, YagoScale)
    (Map(Query2Mu.GraphRel -> cached(g.edges)), g.constants)
  }

  private val yagoWarmQuery = "?a,?b <- ?a livesIn ?b"
  private def fig7Queries: Seq[PaperQueries.Q] = PaperQueries.yago.take(9)

  /** Fig. 7: the two P_plw implementations (SetRDD-style vs per-worker
    * RDBMS) on Yago queries.
    */
  def fig7(spark: SparkSession): Table = {
    val (cat, consts) = yagoCatalog(spark)
    val cs = Seq(Engines.DistMuRAPlwS, Engines.DistMuRAPlwPg).map(v => contender(engine(spark, v, cat, consts)))
    pivot("Fig. 7 — P_plw implementations on Yago-lite",
      measure(spark, cs, Seq(yagoWarmQuery), fig7Queries.map(q => q.id -> q.query)))
  }

  /** Fig. 9: running times on Yago across the five systems. */
  def fig9(spark: SparkSession): Table = {
    val (cat, consts) = yagoCatalog(spark)
    val cs = Seq(Engines.DistMuRA, Engines.DistMuRAGld, Engines.BigDatalogLite)
      .map(v => contender(engine(spark, v, cat, consts))) ++
      Seq(centralized(spark, cat, consts), graphX(spark, cat(Query2Mu.GraphRel), consts))
    pivot("Fig. 9 — running times on Yago-lite",
      measure(spark, cs, Seq(yagoWarmQuery), PaperQueries.yago.map(q => q.id -> q.query)),
      classes(PaperQueries.yago))
  }

  // ------------------------------------------- Fig. 10: concat closures

  private def concatKs: Seq[Int] = 2 to 10

  def fig10(spark: SparkSession): Table = {
    val labels = (0 until 10).map(i => s"a$i")
    val base = GraphData.erdosRenyi(spark, ConcatNodes, ConcatP, seed = 5)
    val gdf = cached(GraphData.withRandomLabels(spark, base, labels, seed = 6))
    val cat = Map(Query2Mu.GraphRel -> gdf)
    val cs = Seq(Engines.DistMuRA, Engines.BigDatalogLite).map(v => contender(engine(spark, v, cat, Map.empty))) ++
      Seq(centralized(spark, cat, Map.empty), graphX(spark, gdf, Map.empty))
    val queries = concatKs.map(k => s"n=$k" -> PaperQueries.concatClosure(labels.take(k)))
    pivot(s"Fig. 10 — concatenated closures a1+/../an+ (rnd_${ConcatNodes}_$ConcatP, 10 labels)",
      measure(spark, cs, Seq("?x,?y <- ?x a0 ?y"), queries))
  }

  // ---------------------------------------------- Fig. 11: μ-RA queries

  def fig11(spark: SparkSession): Table = {
    // a^n b^n on a labeled random graph
    val ab = GraphData.withRandomLabels(spark,
      GraphData.erdosRenyi(spark, AnbnNodes, 0.01, seed = 8), Seq("a", "b"), seed = 9)
    // same generation on a random tree; reach on a random graph, from node 1
    val tree = GraphData.randomTree(spark, SameGenTreeNodes)
    val rnd = GraphData.erdosRenyi(spark, ReachNodes, 0.001, seed = 10)
    val terms: Seq[(String, Map[String, DataFrame], Term)] = Seq(
      ("anbn", Map("G" -> cached(ab)), MuRaTerms.anbn),
      ("same_generation", Map("R" -> cached(tree)), MuRaTerms.sameGeneration),
      ("reach", Map("R" -> cached(rnd)), MuRaTerms.reach(1L)))
    val cs = Seq(Engines.DistMuRA, Engines.BigDatalogLite).map(termContender(spark, _, terms))
    pivot("Fig. 11 — general μ-RA terms", measure(spark, cs, Nil, terms.map(t => t._1 -> t._1)))
  }

  // ------------------------------------- Fig. 12: same generation/Myria

  def fig12(spark: SparkSession): Table = {
    val terms = Fig12TreeNodes.map(n =>
      (s"tree_$n", Map("R" -> cached(GraphData.randomTree(spark, n))), MuRaTerms.sameGeneration))
    val cs = Seq(Engines.DistMuRA, Engines.MyriaLite).map(termContender(spark, _, terms))
    pivot("Fig. 12 — same generation vs Myria-lite (random trees)",
      measure(spark, cs, Nil, terms.map(t => t._1 -> t._1)))
  }

  // ----------------------------------- Figs. 8, 13, 14: Uniprot workload

  /** Q26–Q50 on uniprot-lite with `nEdges` edges, each variant's column
    * headed by its name and `suffix`.
    */
  private def uniprot(spark: SparkSession, nEdges: Long, variants: Seq[Engines.Variant],
                      withGraphX: Boolean = false, suffix: String = ""): Seq[Measurement] = {
    val g = GraphData.uniprotLite(spark, nEdges)
    val cat = Map(Query2Mu.GraphRel -> cached(g.edges))
    val cs = variants.map(v => contender(engine(spark, v, cat, g.constants))) ++
      (if (withGraphX) Seq(graphX(spark, g.edges, g.constants)) else Nil)
    measure(spark, cs.map(c => c.copy(name = c.name + suffix)), Seq("?x,?y <- ?x interacts ?y"),
      PaperQueries.uniprot.map(q => q.id -> q.query))
  }

  /** Fig. 13: running times on uniprot-lite (the paper's uniprot_1M). */
  def fig13(spark: SparkSession): Table =
    pivot(s"Fig. 13 — running times on uniprot-lite ($Fig13Edges edges)",
      uniprot(spark, Fig13Edges, Seq(Engines.DistMuRA, Engines.BigDatalogLite), withGraphX = true),
      classes(PaperQueries.uniprot))

  /** Fig. 14: Myria comparison on a smaller file (the paper's uniprot_100k). */
  def fig14(spark: SparkSession): Table =
    pivot(s"Fig. 14 — Myria-lite vs Dist-mu-RA on uniprot-lite ($Fig14Edges edges)",
      uniprot(spark, Fig14Edges, Seq(Engines.DistMuRA, Engines.MyriaLite)),
      classes(PaperQueries.uniprot))

  /** Fig. 8: Dist-μ-RA and BigDatalog-lite across uniprot-lite sizes. */
  def fig8(spark: SparkSession): Table =
    pivot(s"Fig. 8 — scalability on uniprot-lite (${Fig8Edges.mkString("/")} edges)",
      Fig8Edges.flatMap(n => uniprot(spark, n, Seq(Engines.DistMuRA, Engines.BigDatalogLite),
        suffix = s" @${n / 1000}k")),
      s"Result rows are those at ${Fig8Edges.head} edges.")
}

package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{CentralizedMuRA, GraphXRPQ}
import repro.exec.{Engines, MuRaEngine}
import repro.graphdata.GraphData
import repro.queries.{MuRaTerms, PaperQueries}
import repro.ucrpq.Query2Mu
import Harness._

/** One experiment per evaluation artifact of the paper (Table I and
  * Figs. 7–14). Each returns a printable table; the bench suites tee
  * these into bench_output.txt and EXPERIMENTS.md records them next to
  * the paper's numbers. Dataset scales are reduced for a single machine
  * (see DESIGN.md §2) and are env-tunable.
  */
object Experiments {

  private def envD(name: String, d: Double): Double = sys.env.get(name).map(_.toDouble).getOrElse(d)
  private def envL(name: String, d: Long): Long = sys.env.get(name).map(_.toLong).getOrElse(d)

  def nPart: Int = 16

  // ------------------------------------------------------------ Table I

  /** Table I: edges, nodes, TC size per dataset (ours, scaled; the
    * paper's values are recorded in EXPERIMENTS.md for comparison).
    */
  def table1(spark: SparkSession): String = {
    def tcSize(edges: DataFrame): Long = {
      val eng = Engines.distMuRA(spark, Map("R" -> edges), Map.empty, nPart)
      eng.run(MuRaTerms.tc).count()
    }
    def nodes(edges: DataFrame): Long =
      edges.select("src").union(edges.select("trg")).distinct().count()

    val rows = Seq.newBuilder[Seq[String]]
    def addUnlabeled(name: String, df: DataFrame): Unit = {
      val e = df.count(); val n = nodes(df)
      rows += Seq(name, e.toString, n.toString, tcSize(df).toString)
    }
    addUnlabeled("rnd_1k_0.005", GraphData.erdosRenyi(spark, 1000, 0.005))
    addUnlabeled("rnd_2k_0.002", GraphData.erdosRenyi(spark, 2000, 0.002))
    addUnlabeled("rnd_3k_0.001", GraphData.erdosRenyi(spark, 3000, 0.001))
    addUnlabeled("tree_10 (10k nodes, paper scale)", GraphData.randomTree(spark, 10000))
    addUnlabeled("tree_150 (150k nodes, paper scale)", GraphData.randomTree(spark, 150000))
    Seq(20000L, 50000L, 100000L).foreach { n =>
      val g = GraphData.uniprotLite(spark, envL("UNIPROT_EDGES", n))
      rows += Seq(s"uniprot_${n / 1000}k", g.nEdges.toString, g.nNodes.toString, "-")
    }
    val y = GraphData.yagoLite(spark, envD("YAGO_SCALE", 1.0))
    rows += Seq("yago_lite", y.nEdges.toString, y.nNodes.toString, "-")
    table("Table I — real and synthetic graphs (ours, scaled)",
      Seq("dataset", "edges", "nodes", "TC size"), rows.result())
  }

  // ----------------------------------------------------- Yago workloads

  def yagoCatalog(spark: SparkSession): (Map[String, DataFrame], Map[String, Any]) = {
    val g = GraphData.yagoLite(spark, envD("YAGO_SCALE", 1.0))
    (Map(Query2Mu.GraphRel -> g.edges), g.constants)
  }

  /** Fig. 7: the two P_plw implementations (SetRDD-style vs per-worker
    * RDBMS) on Yago queries.
    */
  def fig7(spark: SparkSession): String = {
    val (cat, consts) = yagoCatalog(spark)
    cat.values.foreach(df => df.cache().count())
    val plwS = Engines.distMuRAPlwS(spark, cat, consts, nPart)
    val plwPg = Engines.distMuRAPlwPg(spark, cat, consts, nPart)
    Seq(plwS, plwPg).foreach(_.warmup())
    val queries = PaperQueries.yago.take(9)
    val ms = for {
      q <- queries
      (sys, eng) <- Seq("P_plw^s (SetRDD)" -> plwS, "P_plw^pg (RDBMS)" -> plwPg)
    } yield timed(spark, sys, q.id)(eng.runQuery(q.query))
    pivot("Fig. 7 — P_plw implementations on Yago-lite", ms)
  }

  /** Fig. 9: running times on Yago across the five systems. */
  def fig9(spark: SparkSession): String = {
    val (cat, consts) = yagoCatalog(spark)
    cat.values.foreach(df => df.cache().count())
    val dist = Engines.distMuRA(spark, cat, consts, nPart)
    val gld = Engines.distMuRAGld(spark, cat, consts, nPart)
    val bd = Engines.bigDatalogLite(spark, cat, consts, nPart)
    val central = new CentralizedMuRA(spark, cat, consts)
    Seq(dist, gld, bd).foreach(_.warmup()); central.warmup()
    // one untimed non-recursive query per engine: JIT + codegen warmup
    val warmQ = "?a,?b <- ?a livesIn ?b"
    Seq(dist, gld, bd).foreach(e => e.runQuery(warmQ).count())
    central.runQuery(warmQ).count()
    val gdf = cat(Query2Mu.GraphRel)
    val ms = for (q <- PaperQueries.yago) yield Seq(
      timed(spark, "Dist-mu-RA", q.id)(dist.runQuery(q.query)),
      timed(spark, "Dist-mu-RA P_gld", q.id)(gld.runQuery(q.query)),
      timed(spark, "BigDatalog-lite", q.id)(bd.runQuery(q.query)),
      timed(spark, "Centralized mu-RA", q.id)(central.runQuery(q.query)),
      timed(spark, "GraphX", q.id)(GraphXRPQ.runQuery(spark, gdf, q.query, consts)),
    )
    pivot("Fig. 9 — running times on Yago-lite", ms.flatten,
      note = "classes: " + PaperQueries.yago.map(q => s"${q.id}:${q.classes.mkString("/")}").mkString(" "))
  }

  // ------------------------------------------- Fig. 10: concat closures

  def fig10(spark: SparkSession): String = {
    val n = envL("CONCAT_N", 1500).toInt
    val p = envD("CONCAT_P", 0.01)
    val labels = (0 until 10).map(i => s"a$i")
    val base = GraphData.erdosRenyi(spark, n, p, seed = 5)
    val gdf = GraphData.withRandomLabels(spark, base, labels, seed = 6).cache()
    gdf.count()
    val cat = Map(Query2Mu.GraphRel -> gdf)
    val dist = Engines.distMuRA(spark, cat, Map.empty, nPart)
    val bd = Engines.bigDatalogLite(spark, cat, Map.empty, nPart)
    val central = new CentralizedMuRA(spark, cat, Map.empty)
    Seq(dist, bd).foreach(_.warmup()); central.warmup()
    val ms = for (k <- 2 to 10) yield {
      val q = PaperQueries.concatClosure(labels.take(k))
      val qid = s"n=$k"
      Seq(
        timed(spark, "Dist-mu-RA", qid)(dist.runQuery(q)),
        timed(spark, "BigDatalog-lite", qid)(bd.runQuery(q)),
        timed(spark, "Centralized mu-RA", qid)(central.runQuery(q)),
        timed(spark, "GraphX", qid)(GraphXRPQ.runQuery(spark, gdf, q, Map.empty)),
      )
    }
    pivot(s"Fig. 10 — concatenated closures a1+/../an+ (rnd_${n}_$p, 10 labels)", ms.flatten)
  }

  // ---------------------------------------------- Fig. 11: μ-RA queries

  def fig11(spark: SparkSession): String = {
    val ms = Seq.newBuilder[Measurement]
    // a^n b^n on a labeled random graph
    val ab = GraphData.withRandomLabels(spark,
      GraphData.erdosRenyi(spark, envL("ANBN_N", 1000).toInt, 0.01, seed = 8), Seq("a", "b"), seed = 9)
    val catAb = Map("G" -> ab.cache())
    // same generation on a random tree
    val tree = GraphData.randomTree(spark, envL("SG_N", 2000).toInt)
    val catSg = Map("R" -> tree.cache())
    // reach on a random graph, from node 1
    val rnd = GraphData.erdosRenyi(spark, envL("REACH_N", 10000).toInt, 0.001, seed = 10)
    val catReach = Map("R" -> rnd.cache())
    Seq(catAb, catSg, catReach).foreach(_.values.foreach(df => df.cache().count()))
    for ((sysName, mk) <- Seq[(String, Map[String, DataFrame] => MuRaEngine)](
      "Dist-mu-RA" -> (c => Engines.distMuRA(spark, c, Map.empty, nPart)),
      "BigDatalog-lite" -> (c => Engines.bigDatalogLite(spark, c, Map.empty, nPart)))) {
      val eAb = mk(catAb); val eSg = mk(catSg); val eReach = mk(catReach)
      Seq(eAb, eSg, eReach).foreach(_.warmup())
      ms += timed(spark, sysName, "anbn")(eAb.run(MuRaTerms.anbn))
      ms += timed(spark, sysName, "same_generation")(eSg.run(MuRaTerms.sameGeneration))
      ms += timed(spark, sysName, "reach")(eReach.run(MuRaTerms.reach(1L)))
    }
    pivot("Fig. 11 — general μ-RA terms", ms.result())
  }

  // ------------------------------------- Fig. 12: same generation/Myria

  def fig12(spark: SparkSession): String = {
    val sizes = Seq(500, 1000, 2000, 4000)
    val ms = for (n <- sizes) yield {
      val cat = Map("R" -> GraphData.randomTree(spark, n).cache())
      cat.values.foreach(_.count())
      val dist = Engines.distMuRA(spark, cat, Map.empty, nPart)
      val myria = Engines.myriaLite(spark, cat, Map.empty, nPart)
      Seq(dist, myria).foreach(_.warmup())
      Seq(
        timed(spark, "Dist-mu-RA", s"tree_$n")(dist.run(MuRaTerms.sameGeneration)),
        timed(spark, "Myria-lite", s"tree_$n")(myria.run(MuRaTerms.sameGeneration)))
    }
    pivot("Fig. 12 — same generation vs Myria-lite (random trees)", ms.flatten)
  }

  // -------------------------------------- Figs. 13/14: Uniprot workload

  def uniprotRun(spark: SparkSession, nEdges: Long,
                 systems: Seq[String], title: String): String = {
    val g = GraphData.uniprotLite(spark, nEdges)
    g.edges.cache().count()
    val cat = Map(Query2Mu.GraphRel -> g.edges)
    def warmed(e: MuRaEngine): MuRaEngine = {
      if (systems.contains(e.cfg.name)) {
        e.warmup()
        e.runQuery("?x,?y <- ?x interacts ?y").count() // untimed JIT warmup
      }
      e
    }
    val engines: Map[String, String => DataFrame] = Map(
      "Dist-mu-RA" -> warmed(Engines.distMuRA(spark, cat, g.constants, nPart)).runQuery _,
      "BigDatalog-lite" -> warmed(Engines.bigDatalogLite(spark, cat, g.constants, nPart)).runQuery _,
      "Myria-lite" -> warmed(Engines.myriaLite(spark, cat, g.constants, nPart)).runQuery _,
      "GraphX" -> ((q: String) => GraphXRPQ.runQuery(spark, g.edges, q, g.constants)))
    val ms = for (q <- PaperQueries.uniprot; sys <- systems)
      yield timed(spark, sys, q.id)(engines(sys)(q.query))
    pivot(title, ms,
      note = "classes: " + PaperQueries.uniprot.map(q => s"${q.id}:${q.classes.mkString("/")}").mkString(" "))
  }

  /** Fig. 13: running times on uniprot-lite (the paper's uniprot_1M). */
  def fig13(spark: SparkSession): String =
    uniprotRun(spark, envL("UNIPROT13_EDGES", 20000),
      Seq("Dist-mu-RA", "BigDatalog-lite", "GraphX"),
      "Fig. 13 — running times on uniprot-lite (≈20k edges)")

  /** Fig. 14: Myria comparison on a smaller file (the paper's uniprot_100k). */
  def fig14(spark: SparkSession): String =
    uniprotRun(spark, envL("UNIPROT14_EDGES", 8000),
      Seq("Dist-mu-RA", "Myria-lite"),
      "Fig. 14 — Myria-lite vs Dist-mu-RA on uniprot-lite (≈8k edges)")

  // --------------------------------------------- Fig. 8: Uniprot scaling

  def fig8(spark: SparkSession): String = {
    val sizes = Seq(envL("FIG8_S1", 10000), envL("FIG8_S2", 30000), envL("FIG8_S3", 60000))
    val tables = sizes.map { n =>
      uniprotRun(spark, n, Seq("Dist-mu-RA", "BigDatalog-lite"),
        s"Fig. 8 — scalability on uniprot-lite with $n edges")
    }
    tables.mkString("\n")
  }
}

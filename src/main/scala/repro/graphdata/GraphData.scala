package repro.graphdata

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types._
import org.apache.spark.sql.Row
import scala.util.Random

/** Synthetic graph generators for the paper's datasets (Table I and
  * Sec. V-B). All generators are deterministic in their seed; sizes are
  * documented per generator. Real datasets (Yago 2s, SNAP, gMark
  * Uniprot) are substituted by structured synthetic equivalents — see
  * DESIGN.md §2.
  */
object GraphData {

  private val unlabeled = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("trg", LongType, nullable = false)))

  private val labeled = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("pred", StringType, nullable = false),
    StructField("trg", LongType, nullable = false)))

  private def toDf(spark: SparkSession, rows: Seq[(Long, Long)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(e => Row(e._1, e._2)), 16), unlabeled)

  private def toLabeledDf(spark: SparkSession, rows: Seq[(Long, String, Long)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(e => Row(e._1, e._2, e._3)), 16), labeled)

  /** Erdős–Rényi random digraph `rnd_n_p` (Sec. V-B): every unordered
    * pair is an edge with probability p, stored with a random
    * orientation. Generated G(n,m)-style with m = round(n(n-1)/2 · p)
    * distinct directed edges, which matches the paper's reported edge
    * counts (e.g. rnd_10k_0.001 ≈ 50k edges).
    */
  def erdosRenyi(spark: SparkSession, n: Int, p: Double, seed: Long = 42): DataFrame = {
    val rnd = new Random(seed)
    val m = math.round(n.toLong * (n - 1) / 2.0 * p)
    val edges = scala.collection.mutable.LinkedHashSet.empty[(Long, Long)]
    while (edges.size < m) {
      val a = rnd.nextInt(n).toLong + 1
      val b = rnd.nextInt(n).toLong + 1
      if (a != b) edges += ((a, b))
    }
    toDf(spark, edges.toSeq)
  }

  /** Random recursive tree `tree_n` (Sec. V-B): node i+1 is attached as a
    * child of a uniformly random node of tree_i. Edges point parent →
    * child; the transitive closure size is Σ_v depth(v) (the paper's
    * tree_10 = 10,000 nodes has TC ≈ 85k).
    */
  def randomTree(spark: SparkSession, n: Int, seed: Long = 42): DataFrame = {
    val rnd = new Random(seed)
    val edges = (2 to n).map { i => ((rnd.nextInt(i - 1) + 1).toLong, i.toLong) }
    toDf(spark, edges)
  }

  /** Assign one of `labels` uniformly at random to each edge of an
    * unlabeled graph (the paper's labeled derivatives of rnd_n_p used for
    * concatenated closures and aⁿbⁿ).
    */
  def withRandomLabels(spark: SparkSession, edges: DataFrame, labels: Seq[String],
                       seed: Long = 7): DataFrame = {
    val rows = edges.collect().map { r =>
      (r.getLong(0), labels((math.abs(r.getLong(0) * 31 + r.getLong(1) * 17 + seed) % labels.size).toInt), r.getLong(1))
    }.toSeq
    toLabeledDf(spark, rows)
  }

  // =====================================================================
  // Yago-lite: a structured, labeled knowledge graph over the paper's 16
  // Yago predicates, with named constants, sized by `scale` (scale = 1.0
  // gives ~60k edges). See DESIGN.md §2 for the substitution rationale.
  // =====================================================================

  final case class LabeledGraph(edges: DataFrame, constants: Map[String, Any],
                                nNodes: Long, nEdges: Long)

  def yagoLite(spark: SparkSession, scale: Double = 1.0, seed: Long = 42): LabeledGraph = {
    val rnd = new Random(seed)
    def sz(base: Int): Int = math.max(2, (base * scale).toInt)

    val nCountries  = sz(40)
    val nCities     = sz(400)
    val nDistricts  = sz(800)
    val nPeople     = sz(6000)
    val nMovies     = sz(800)
    val nAirports   = sz(250)
    val nCompanies  = sz(300)
    val nClasses    = sz(60)

    // contiguous id ranges
    var next = 1L
    def range(k: Int): (Long, Long) = { val s = next; next += k; (s, next - 1) }
    val (c0, c1)   = range(nCountries)
    val (ci0, ci1) = range(nCities)
    val (d0, d1)   = range(nDistricts)
    val (p0, p1)   = range(nPeople)
    val (m0, m1)   = range(nMovies)
    val (a0, a1)   = range(nAirports)
    val (co0, co1) = range(nCompanies)
    val (cl0, cl1) = range(nClasses)

    def pick(lo: Long, hi: Long): Long = lo + rnd.nextInt((hi - lo + 1).toInt)

    val edges = Vector.newBuilder[(Long, String, Long)]
    def add(s: Long, p: String, t: Long): Unit = edges += ((s, p, t))

    // Location hierarchy: district -> city -> country, some extra noise
    // levels so isLocatedIn+ has depth.
    for (d <- d0 to d1) add(d, "isLocatedIn", pick(ci0, ci1))
    for (c <- ci0 to ci1) add(c, "isLocatedIn", pick(c0, c1))
    // a few city->city containments for deeper chains
    for (_ <- 1 to nCities / 4) add(pick(ci0, ci1), "isLocatedIn", pick(ci0, ci1))
    // dealsWith among countries (with cycles, so dealsWith+ is dense)
    for (_ <- 1 to nCountries * 5) add(pick(c0, c1), "dealsWith", pick(c0, c1))

    // People
    for (p <- p0 to p1) {
      add(p, "livesIn", pick(ci0, ci1))
      add(p, "wasBornIn", pick(ci0, ci1))
      if (rnd.nextDouble() < 0.4) add(p, "isMarriedTo", pick(p0, p1))
      if (rnd.nextDouble() < 0.5) add(p, "hasChild", math.min(p1, p + 1 + rnd.nextInt(40)))
      if (rnd.nextDouble() < 0.3) add(p, "influences", pick(p0, p1))
      if (rnd.nextDouble() < 0.2) add(p, "hasSuccessor", pick(p0, p1))
      if (rnd.nextDouble() < 0.2) add(p, "hasPredecessor", pick(p0, p1))
      if (rnd.nextDouble() < 0.2) add(p, "hasAcademicAdvisor", pick(p0, p1))
      if (rnd.nextDouble() < 0.15) add(p, "owns", pick(co0, co1))
      // actedIn: a minority of people are actors with several movies
      if (rnd.nextDouble() < 0.25) {
        val k = 1 + rnd.nextInt(5)
        for (_ <- 1 to k) add(p, "actedIn", pick(m0, m1))
      }
    }
    // Companies and airports are located in cities
    for (co <- co0 to co1) add(co, "isLocatedIn", pick(ci0, ci1))
    for (a <- a0 to a1) {
      add(a, "isLocatedIn", pick(ci0, ci1))
      val k = 2 + rnd.nextInt(6)
      for (_ <- 1 to k) add(a, "isConnectedTo", pick(a0, a1))
    }
    // Cities are also connected (rail/flight links), so chains like
    // isLocatedIn+/isConnectedTo+ (Q14, Q17, Q20) are non-vacuous.
    for (c <- ci0 to ci1; if rnd.nextDouble() < 0.5)
      add(c, "isConnectedTo", pick(ci0, ci1))
    // …and a fraction of cities deal directly with countries, so
    // isConnectedTo+/dealsWith+ continues into the country network (Q20).
    for (c <- ci0 to ci1; if rnd.nextDouble() < 0.15)
      add(c, "dealsWith", pick(c0, c1))
    // Class hierarchy + typing
    for (cl <- cl0 + 1 to cl1) add(cl, "rdfs:subClassOf", pick(cl0, cl - 1))
    for (c <- ci0 to ci1) add(c, "type", pick(cl0, cl1))
    // wikicat_Capitals_in_Europe: a class with ~5% of cities typed by it
    val wce = pick(cl0, cl1)
    for (c <- ci0 to ci1; if rnd.nextDouble() < 0.05) add(c, "type", wce)

    val constants: Map[String, Any] = Map(
      "Japan" -> c0, "United_States" -> (c0 + 1), "USA" -> (c0 + 1),
      "Argentina" -> (c0 + 2), "Sweden" -> (c0 + 3), "India" -> (c0 + 4),
      "Germany" -> (c0 + 5), "Netherlands" -> (c0 + 6),
      "Kevin_Bacon" -> p0, "Jay_Kappraff" -> (p0 + 1), "John_Lawrence_Toole" -> (p0 + 2),
      "Shannon_Airport" -> a0,
      "wikicat_Capitals_in_Europe" -> wce,
    )
    // make sure the constant people/airport have the edges their queries need
    add(p0, "actedIn", m0); add(p0 + 7, "actedIn", m0) // a co-actor of Kevin_Bacon
    add(p0 + 1, "livesIn", ci0); add(p0 + 2, "wasBornIn", ci0)
    // Seed (wasBornIn/isLocatedIn/-wasBornIn)+ and livesIn-chains so Q23
    // (John_Lawrence_Toole) and Q24 (Jay_Kappraff) are non-vacuous: a
    // small chain of cities c_i →isLocatedIn→ c_{i+1} with people both
    // born in and living in each c_i.
    for (i <- 0 until math.min(6, nCities - 1)) {
      add(ci0 + i, "isLocatedIn", ci0 + i + 1)
      add(p0 + 3 + i, "wasBornIn", ci0 + i + 1)
      add(p0 + 3 + i, "livesIn", ci0 + i + 1)
    }
    // close the chain back onto John_Lawrence_Toole's birth city so the
    // (wasBornIn/isLocatedIn/-wasBornIn)+ filter of Q23 is satisfiable
    add(ci0 + math.min(6, nCities - 1), "isLocatedIn", ci0)

    val all = edges.result()
    LabeledGraph(toLabeledDf(spark, all).cache(), constants, next - 1, all.size.toLong)
  }

  // =====================================================================
  // Uniprot-lite: gMark's Uniprot schema (proteins, keywords, references,
  // authors, journals) with family-clustered topology so closure sizes
  // stay controlled. `nEdges` is the approximate total edge count.
  // =====================================================================

  def uniprotLite(spark: SparkSession, nEdges: Long, seed: Long = 42): LabeledGraph = {
    val rnd = new Random(seed)
    // edges per family ≈ 74 in expectation (10 proteins × ~6.3 edges +
    // 4 refs × ~2.5 edges + cross-family link); derive the family count
    val nFamilies = math.max(1, (nEdges / 74.0).toInt)
    val edges = Vector.newBuilder[(Long, String, Long)]
    var next = 1L
    def fresh(k: Int): (Long, Long) = { val s = next; next += k; (s, next - 1) }
    val (j0, j1) = fresh(math.max(3, nFamilies / 20)) // journals, shared
    val (au0, au1) = fresh(math.max(5, nFamilies * 2)) // authors, shared-ish
    def pick(lo: Long, hi: Long): Long = lo + rnd.nextInt((hi - lo + 1).toInt)
    var firstProtein = 0L
    var firstKeyword = 0L
    var firstRef = 0L
    for (f <- 0 until nFamilies) {
      val (p0, p1) = fresh(10)  // proteins
      val (g0, g1) = fresh(4)   // genes
      val (k0, k1) = fresh(3)   // keywords
      val (r0, r1) = fresh(4)   // references
      if (f == 0) { firstProtein = p0; firstKeyword = k0; firstRef = r0 }
      for (p <- p0 to p1) {
        // interacts: within-family protein-protein (~2 each)
        edges += ((p, "interacts", pick(p0, p1)))
        if (rnd.nextDouble() < 0.8) edges += ((p, "interacts", pick(p0, p1)))
        edges += ((p, "encodes", pick(g0, g1)))
        edges += ((p, "occurs", pick(k0, k1)))
        edges += ((p, "hasKeyword", pick(k0, k1)))
        edges += ((p, "reference", pick(r0, r1)))
        if (rnd.nextDouble() < 0.5) edges += ((p, "reference", pick(r0, r1)))
      }
      for (r <- r0 to r1) {
        edges += ((r, "authoredBy", pick(au0, au1)))
        if (rnd.nextDouble() < 0.5) edges += ((r, "authoredBy", pick(au0, au1)))
        edges += ((pick(j0, j1), "publishes", r))
      }
      // sparse cross-family interaction (~0.5 per family) so int+ spans
      if (f > 0 && rnd.nextDouble() < 0.5)
        edges += ((pick(p0, p1), "interacts", pick(firstProtein, p0 - 1)))
    }
    val constants: Map[String, Any] = Map(
      "P0" -> firstProtein, "K0" -> firstKeyword, "R0" -> firstRef, "J0" -> j0, "A0" -> au0)
    val all = edges.result()
    LabeledGraph(toLabeledDf(spark, all).cache(), constants, next - 1, all.size.toLong)
  }
}

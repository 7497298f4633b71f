package repro.baselines

import org.apache.spark.graphx.{Edge, EdgeDirection, EdgeTriplet, Graph, Pregel, VertexId}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.storage.StorageLevel
import repro.core.MuRaError
import repro.ucrpq._

/** GraphX baseline (Sec. V-C): evaluate each RPQ with the Pregel API.
  *
  * The regular path expression is compiled to an NFA; every vertex
  * accumulates the set of (origin, NFA-state) pairs of partial matches
  * that reach it, and each superstep forwards newly arrived pairs along
  * edges whose label matches an NFA transition — i.e. the query pattern
  * is traversed from left to right, so only filters at the *beginning*
  * of a pattern cut the search space (the weakness the paper observes).
  * Inverse labels are supported by materializing reversed edges labeled
  * `-pred`.
  */
object GraphXRPQ {

  val name = "GraphX"

  // ----------------------------------------------------------------- NFA

  /** NFA over the edge-label alphabet, ε-transitions already eliminated. */
  final case class Nfa(startStates: Set[Int], acceptStates: Set[Int],
                       trans: Map[(Int, String), Set[Int]])

  /** Thompson construction with ε-edges, then ε-closure elimination. */
  def buildNfa(p: Path): Nfa = {
    var nState = 0
    def fresh(): Int = { nState += 1; nState - 1 }
    val eps = scala.collection.mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
    val lab = scala.collection.mutable.Map.empty[(Int, String), Set[Int]].withDefaultValue(Set.empty)
    def addEps(a: Int, b: Int): Unit = eps(a) = eps(a) + b
    def addLab(a: Int, l: String, b: Int): Unit = lab((a, l)) = lab((a, l)) + b

    /** Build a fragment with one in-state and one out-state. */
    def frag(p: Path): (Int, Int) = p match {
      case Label(l) =>
        val i = fresh(); val o = fresh(); addLab(i, l, o); (i, o)
      case Inv(l) =>
        val i = fresh(); val o = fresh(); addLab(i, "-" + l, o); (i, o)
      case Concat(items) =>
        val frags = items.map(frag)
        frags.sliding(2).foreach {
          case Seq((_, o1), (i2, _)) => addEps(o1, i2)
          case _                     => ()
        }
        (frags.head._1, frags.last._2)
      case Alt(ps) =>
        val i = fresh(); val o = fresh()
        ps.map(frag).foreach { case (fi, fo) => addEps(i, fi); addEps(fo, o) }
        (i, o)
      case Plus(inner) =>
        val (fi, fo) = frag(inner)
        addEps(fo, fi) // one-or-more
        (fi, fo)
    }

    val (start, accept) = frag(p)
    // ε-closures
    val closure = Array.fill(nState)(Set.empty[Int])
    for (s <- 0 until nState) {
      var acc = Set(s)
      var frontier = Set(s)
      while (frontier.nonEmpty) {
        val nxt = frontier.flatMap(eps(_)) -- acc
        acc ++= nxt; frontier = nxt
      }
      closure(s) = acc
    }
    val trans: Map[(Int, String), Set[Int]] =
      lab.toMap.map { case ((s, l), ts) => (s, l) -> ts.flatMap(closure(_)) }
    // states whose closure contains `accept` accept; start is closed too
    val accepts = (0 until nState).filter(s => closure(s).contains(accept)).toSet
    Nfa(closure(start), accepts, trans)
  }

  // ------------------------------------------------------------- Pregel

  private type VState = (Set[(VertexId, Int)], Set[(VertexId, Int)]) // (all, new)

  /** Evaluate one RPQ, returning the (x, y) pairs such that y is reached
    * from x by a path matching the expression. `anchorLeft`, when set,
    * restricts origins to that single node (filtering at the start of the
    * computation, per Sec. V-C).
    */
  def rpqPairs(spark: SparkSession, edges: DataFrame, path: Path,
               anchorLeft: Option[Long], maxSupersteps: Int = 200): DataFrame = {
    val nfa = buildNfa(path)
    if (nfa.trans.isEmpty) throw MuRaError("empty NFA")
    val sc = spark.sparkContext
    val edgeRdd = edges.select(col("src"), col("pred"), col("trg")).rdd.flatMap { r =>
      val s = r.getLong(0); val p = r.getString(1); val t = r.getLong(2)
      Iterator(Edge(s, t, p), Edge(t, s, "-" + p))
    }
    val graph: Graph[VState, String] =
      Graph.fromEdges[VState, String](edgeRdd, (Set.empty, Set.empty),
        StorageLevel.MEMORY_AND_DISK, StorageLevel.MEMORY_AND_DISK)
    val bcNfa = sc.broadcast(nfa)
    val anchor = anchorLeft
    val sentinel: Set[(VertexId, Int)] = Set((-1L, -1))

    def seeds(id: VertexId): Set[(VertexId, Int)] = anchor match {
      case Some(a) if id != a => Set.empty
      case _                  => bcNfa.value.startStates.map(s => (id, s))
    }

    def vprog(id: VertexId, st: VState, msg: Set[(VertexId, Int)]): VState =
      if (msg == sentinel) { val s0 = seeds(id); (s0, s0) }
      else { val fresh = msg -- st._1; (st._1 ++ fresh, fresh) }

    def sendMsg(t: EdgeTriplet[VState, String]): Iterator[(VertexId, Set[(VertexId, Int)])] = {
      val out = t.srcAttr._2.flatMap { case (o, s) =>
        bcNfa.value.trans.getOrElse((s, t.attr), Set.empty).map(s2 => (o, s2))
      }
      if (out.isEmpty) Iterator.empty else Iterator((t.dstId, out))
    }

    // activeDirection=Out: only vertices that received fresh matches last
    // superstep propagate — otherwise stale frontiers re-send forever.
    val result = Pregel(graph, sentinel, maxIterations = maxSupersteps,
      activeDirection = EdgeDirection.Out)(vprog, sendMsg, _ ++ _)
    val pairRdd = result.vertices.flatMap { case (v, (all, _)) =>
      all.iterator.collect { case (o, s) if bcNfa.value.acceptStates.contains(s) => (o, v) }
    }.distinct()
    import spark.implicits._
    pairRdd.toDF("src", "trg")
  }

  // ------------------------------------------------- full UCRPQ queries

  /** Evaluate a UCRPQ: one Pregel run per conjunct (anchored when its
    * left endpoint is a constant), then DataFrame joins for the
    * conjunction and a projection on the head variables. Right-side
    * constants are applied *after* the traversal — the left-to-right
    * Pregel evaluation cannot push them (Sec. V-C / VI-B).
    */
  def runQuery(spark: SparkSession, edges: DataFrame, query: String,
               constants: Map[String, Any]): DataFrame = {
    val q = UcrpqParser.parse(query)
    def constVal(n: String): Long = constants.getOrElse(n,
      throw MuRaError(s"unknown constant '$n'")).asInstanceOf[Long]
    val conjDfs = q.conjuncts.map { c =>
      val anchor = c.left match { case QConst(k) => Some(constVal(k)); case _ => None }
      var df = rpqPairs(spark, edges, c.path, anchor)
      c.right match {
        case QConst(k) => df = df.filter(col("trg") === lit(constVal(k)))
        case _         => ()
      }
      (c.left, c.right) match {
        case (QVar(a), QVar(b)) if a == b =>
          df.filter(col("src") === col("trg")).select(col("src").as(a)).distinct()
        case (QVar(a), QVar(b))   => df.select(col("src").as(a), col("trg").as(b))
        case (QConst(_), QVar(b)) => df.select(col("trg").as(b)).distinct()
        case (QVar(a), QConst(_)) => df.select(col("src").as(a)).distinct()
        case _ => throw MuRaError("conjuncts with two constants are not supported")
      }
    }
    val joined = conjDfs.reduceLeft { (l, r) =>
      val common = l.columns.toSet intersect r.columns.toSet
      if (common.isEmpty) l.crossJoin(r) else l.join(r, common.toSeq.sorted)
    }
    joined.select(q.heads.sorted.map(col): _*).distinct()
  }
}

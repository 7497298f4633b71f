package repro.exec

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types._
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.core._
import repro.core.Analysis.Catalog

/** Which physical plan to use for fixpoints (Sec. IV).
  *
  *  - [[PlanChoice.Auto]]: the paper's selection rule — if the fixpoint
  *    has a stable column, partition by it and run `P_plw^s`; otherwise
  *    run `P_gld`.
  *  - The `Force*` choices pin a plan (used for the Fig. 7 / Fig. 9
  *    ablations). `P_plw^s` and `P_plw^pg` are the same region plan and
  *    differ only in the engine each task runs its local loop on.
  */
sealed trait PlanChoice
object PlanChoice {
  case object Auto extends PlanChoice
  case object ForceGld extends PlanChoice
  case object ForcePlwS extends PlanChoice
  case object ForcePlwPg extends PlanChoice
}

final case class ExecConfig(
    plan: PlanChoice,
    nPartitions: Int,
    maxIters: Int = 100000,
    /** Largest base relation, in rows, that `P_plw` collects to the
      * driver and broadcasts; a fixpoint that reads a larger one runs
      * `P_gld` instead, and operators that read one above the fixpoints
      * run on Catalyst (see [[Broadcasts]]).
      */
    broadcastThreshold: Long = 4000000L,
    /** Semi-naive (differential) iteration: φ applied to the new tuples
      * only (Algorithm 1). Disabled for the Myria-lite baseline to model
      * a less efficient recursion engine (see DESIGN.md §2).
      */
    semiNaive: Boolean = true,
)

/** Base relations collected to the driver and broadcast to `P_plw`
  * tasks: each at most once, when first needed, and only when it has at
  * most `maxRows` rows. [[refused]] records why the others were not.
  *
  * A relation is kept and broadcast only dictionary-encoded, with one
  * dictionary for all of them that only grows: each broadcast carries the
  * dictionary as it stood then, so the longest of a task's inputs
  * decodes them all.
  */
final class Broadcasts(spark: SparkSession, catalog: Map[String, DataFrame], maxRows: Long) {
  private val cache = mutable.HashMap.empty[String, Either[String, Broadcast[(Rows, Dict)]]]
  private var dict = Dict.empty

  def apply(name: String): Either[String, Broadcast[(Rows, Dict)]] = synchronized {
    cache.getOrElseUpdate(name, {
      val df = catalog.getOrElse(name, throw MuRaError(s"unbound relation $name"))
      val rows = df.limit(math.min(maxRows + 1, Int.MaxValue.toLong).toInt).collect()
      if (rows.length > maxRows) Left(s"$name has more than $maxRows rows (broadcastThreshold)")
      else {
        val (encoded, d) = dict.encode(df.columns.toVector, rows.iterator.map(_.toSeq))
        dict = d
        Right(spark.sparkContext.broadcast((encoded, d)))
      }
    })
  }

  def refused: Map[String, String] = synchronized {
    cache.collect { case (n, Left(why)) => n -> why }.toMap
  }
}

/** The `P_plw` partition a row belongs to, from the values of its
  * partition columns. Task-side selections and exchanges both use it, so
  * an exchanged row lands in the task whose selection it passes.
  */
private[exec] object Bucket {
  def of(values: Seq[Any], n: Int): Int = Math.floorMod(values.hashCode, n)

  /** Routes a record keyed by its bucket to that partition. */
  final class Partitioner(n: Int) extends org.apache.spark.Partitioner {
    def numPartitions: Int = n
    def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }
}

/** Term → DataFrame evaluation. A closed term that holds a fixpoint
  * runs as one region (see [[region]]) whenever its fixpoints are planned
  * as `P_plw` and its base relations may be broadcast, so the operators
  * above the fixpoints run in the region tasks too and the DataFrame is
  * built once, from the region's rows. Otherwise non-recursive operators
  * map to Dataset operations (optimized by Catalyst, as in Sec. IV) and
  * fixpoints run `P_gld`.
  */
final class Executor(spark: SparkSession, env: Map[String, DataFrame], cfg: ExecConfig,
                     val broadcasts: Broadcasts) {

  def this(spark: SparkSession, env: Map[String, DataFrame], cfg: ExecConfig) =
    this(spark, env, cfg, new Broadcasts(spark, env, cfg.broadcastThreshold))

  private val cat: Catalog = env.map { case (n, df) => n -> df.columns.toSet }

  def eval(t: Term): DataFrame = evalRec(t, Map.empty)

  private def evalRec(t: Term, rec: Map[String, DataFrame]): DataFrame = t match {
    case _ if inRegion(t) =>
      val (_, rows) = region(t)
      spark.createDataFrame(rows, Executor.schemaOf(t, env))
    case Rel(n) => env.getOrElse(n, throw MuRaError(s"unbound relation $n"))
    case RecVar(x) => rec.getOrElse(x, throw MuRaError(s"unbound recursive variable $x"))
    case Filter(EqConst(c, v), s) => evalRec(s, rec).filter(col(c) === lit(v))
    case Filter(EqCols(a, b), s)  => evalRec(s, rec).filter(col(a) === col(b))
    case Join(l, r) =>
      val dl = evalRec(l, rec); val dr = evalRec(r, rec)
      val common = dl.columns.toSet intersect dr.columns.toSet
      if (common.isEmpty) dl.crossJoin(dr) else dl.join(dr, common.toSeq.sorted)
    case Antijoin(l, r) =>
      val dl = evalRec(l, rec); val dr = evalRec(r, rec)
      val common = dl.columns.toSet intersect dr.columns.toSet
      if (common.nonEmpty) dl.join(dr, common.toSeq.sorted, "left_anti")
      else dl.join(dr.limit(1), lit(true), "left_anti") // l when r is empty, else ∅
    case Union(l, r) =>
      evalRec(l, rec).unionByName(evalRec(r, rec)).distinct()
    case AntiProj(c, s) => evalRec(s, rec).drop(c).distinct()
    case Rename(f, to, s) => evalRec(s, rec).withColumnRenamed(f, to)
    case fix: Fix => evalFix(fix, rec)
  }

  // -------------------------------------------------------------------
  // Plan selection (the PhysicalPlanGenerator of Sec. IV-B)
  // -------------------------------------------------------------------

  /** Whether `fix` is planned as `P_plw`: under `ForcePlwS` and
    * `ForcePlwPg` always, under `Auto` when it has a stable column
    * (Sec. IV-B-c), under `ForceGld` never.
    */
  private def planned(fix: Fix): Boolean = cfg.plan match {
    case PlanChoice.ForcePlwS | PlanChoice.ForcePlwPg => true
    case PlanChoice.Auto                              => Stabilizer.stableCols(fix, cat).nonEmpty
    case PlanChoice.ForceGld                          => false
  }

  /** Whether the closed term `t` runs as a region: it holds a fixpoint,
    * each of its outermost fixpoints is [[planned]] as `P_plw`, and every
    * base relation it reads may be broadcast; otherwise
    * [[Broadcasts.refused]] holds the reason. A fixpoint-free term never
    * asks for a broadcast.
    */
  private def inRegion(t: Term): Boolean = {
    def outerFixes(u: Term): List[Fix] = u match {
      case f: Fix => List(f)
      case _      => u.children.flatMap(outerFixes)
    }
    val fixes = outerFixes(t)
    fixes.nonEmpty && t.freeRecVars.isEmpty && fixes.forall(planned) &&
      t.freeRels.forall(n => broadcasts(n).isRight)
  }

  /** `P_gld` for a fixpoint that does not run as a region. */
  private def evalFix(fix: Fix, rec: Map[String, DataFrame]): DataFrame = {
    val (constT, varB) = Analysis.decompose(fix)
    val rDf = evalRec(constT, rec).distinct()
    if (varB.isEmpty) rDf
    else {
      // Materialize constant subterms of φ that contain fixpoints so they
      // are computed once, not per iteration.
      val (phiBranches, hoisted) = hoistConstants(varB, fix.x, rec)
      pGld(rDf, fix.x, Term.unionAll(phiBranches), hoisted)
    }
  }

  /** Replace maximal constant subterms of φ that contain a fixpoint by
    * fresh relation names bound to materialized DataFrames.
    */
  private def hoistConstants(branches: List[Term], x: String,
                             rec: Map[String, DataFrame]): (List[Term], Map[String, DataFrame]) = {
    var extra = Map.empty[String, DataFrame]
    def containsFix(t: Term): Boolean = t.isInstanceOf[Fix] || t.children.exists(containsFix)
    def go(t: Term): Term =
      if (!t.usesRec(x) && containsFix(t)) {
        val name = s"__hoist_${extra.size}"
        extra += name -> evalRec(t, rec).localCheckpoint(true)
        Rel(name)
      } else t.mapChildren(go)
    (branches.map(go), extra)
  }

  // -------------------------------------------------------------------
  // P_gld: global loop on the driver (Sec. IV-A1, Algorithm 1)
  // -------------------------------------------------------------------

  /** Driver-side semi-naive loop over distributed Datasets. Every
    * iteration performs the distributed joins of φ plus a set-difference
    * and a union — each a shuffle across the cluster, which is exactly
    * the communication cost P_plw removes.
    */
  private def pGld(rDf: DataFrame, x: String, phi: Term, extra: Map[String, DataFrame]): DataFrame = {
    val cols = rDf.columns.toSeq
    val e = env ++ extra
    val relEnv: Map[String, DataFrame] = phi.freeRels.map(n => n -> e(n)).toMap
    val sub = new Executor(spark, relEnv, cfg)
    var total = rDf.localCheckpoint(true)
    var delta = total
    var iters = 0
    var done = false
    while (!done) {
      if (Thread.interrupted()) throw new InterruptedException("P_gld cancelled")
      iters += 1
      if (iters > cfg.maxIters) throw MuRaError(s"P_gld exceeded ${cfg.maxIters} iterations")
      // Semi-naive applies φ to the delta only (Algorithm 1, sound by
      // Prop. 1); naive mode re-applies φ to the whole accumulated set.
      val input = if (cfg.semiNaive) delta else total
      val produced = sub.evalRec(phi, Map(x -> input)).select(cols.map(col): _*)
      val fresh = produced.except(total)
      val newDelta = fresh.localCheckpoint(true)
      if (newDelta.isEmpty) done = true
      else {
        val newTotal = total.union(newDelta).localCheckpoint(true)
        delta = newDelta
        total = newTotal
      }
    }
    total
  }

  // -------------------------------------------------------------------
  // P_plw^s and P_plw^pg: region execution, parallel local loops on the
  // workers (Sec. IV-A2 / IV-B)
  // -------------------------------------------------------------------

  /** Run the closed term `t` as one region: a single task set whose task
    * `k` evaluates `t` restricted to the tuples whose partition key falls
    * in bucket `k`. [[Stabilizer.pushSelection]] pushes that selection
    * down `t` through renames, filters, anti-projections, unions, the
    * left side of antijoins and the join sides that hold the key, and
    * into the constant part of every fixpoint on which the key is stable
    * (Prop. 3), so the operators above the fixpoints and the whole
    * fixpoint chain run in the same task and no data crosses the cluster
    * during the recursion. The selection stops
    *  - at a base relation (or a subterm it cannot enter): the task
    *    evaluates that subterm against the broadcast base relations and
    *    keeps its own bucket;
    *  - at a fixpoint on which the key is not stable: that fixpoint runs
    *    as its own region and is exchanged into this one by the bucket of
    *    the key.
    * A side the selection never reaches (φ, a join side without the key,
    * the right side of an antijoin) is evaluated whole in every task: its
    * base relations from the broadcasts, and each of its fixpoints as its
    * own region sent whole to every task.
    *
    * The key is the output column (for a fixpoint, the stable column)
    * whose selection stops at the fewest fixpoints, each counted with the
    * fixpoints exchanged into its own region, the first in sorted order on
    * a tie; the tasks' results are then disjoint. A fixpoint with
    * no stable column (`ForcePlwS`, `ForcePlwPg`) is split by the whole row
    * of its constant part instead, and a final distinct merges the tasks.
    *
    * Each task runs its local term with [[LocalEval]] (`P_plw^s`, the
    * SetRDD-style engine) or, under `ForcePlwPg`, as one query on a
    * per-task DuckDB (`P_plw^pg`, DuckDB substituting PostgreSQL, see
    * DESIGN.md §2).
    *
    * @return the output columns (sorted) and the rows in that order
    */
  private[exec] def region(t: Term): (Vector[String], RDD[Row]) = {
    val n = cfg.nPartitions
    val maxIters = cfg.maxIters
    val cols = Analysis.sort(t, cat).toVector.sorted
    val (key, _) = partitionKey(t)

    // Inputs, each bound to a fresh name in the task: (term, columns whose
    // bucket selects the task's rows; None = every row).
    val inputs = mutable.LinkedHashMap.empty[(Term, Option[Seq[String]]), String]
    def input(u: Term, on: Option[Seq[String]]): Term =
      Rel(inputs.getOrElseUpdate((u, on), s"__in_${inputs.size}"))
    def reached(u: Term): Boolean = u.freeRels.exists(r => inputs.valuesIterator.contains(r))
    def localize(u: Term): Term = u match {
      case f: Fix if !reached(f) => input(f, None)
      case _                     => u.mapChildren(localize)
    }
    def push(u: Term, on: Seq[String]): Term =
      Stabilizer.pushSelection(u, on, cat) {
        case (f: Fix, cs) => input(f, Some(cs))
        case (v, cs)      => input(localize(v), Some(cs))
      }
    val local = localize((t, key) match {
      case (_, Some(c)) => push(t, Seq(c))
      case (fix: Fix, None) =>
        val (constB, varB) = fix.branches
        Fix(fix.x, Term.unionAll(constB.map(push(_, cols)) ++ varB))
      case (_, None) => push(t, cols) // no column: one task holds every row
    })

    val entries = inputs.toVector.map { case ((u, on), name) => (u, on, name) }
    val slices = entries.collect { case (u, Some(cs), name) if !u.isInstanceOf[Fix] => (name, u, cs) }
    val fixes = entries.collect { case (f: Fix, on, name) => (name, on, regionRows(f)) }
    val routed = fixes.zipWithIndex.map { case ((_, on, (fCols, rows)), i) =>
      on.map(_.map(fCols.indexOf)) match {
        case Some(idx) => rows.map(r => (Bucket.of(idx.map(r.get), n), (i, r)))
        case None      => rows.flatMap(r => (0 until n).map(k => (k, (i, r))))
      }
    }
    val feed =
      if (routed.isEmpty) spark.sparkContext.parallelize(Seq.empty[(Int, (Int, Row))], n)
      else spark.sparkContext.union(routed).partitionBy(new Bucket.Partitioner(n))
    val fixCols = fixes.map { case (name, _, (fCols, _)) => (name, fCols) }
    val bases = (local.freeRels ++ slices.flatMap(_._2.freeRels)).filter(env.contains)
      .map(b => b -> broadcasts(b).fold(why => throw MuRaError(why), identity)).toMap
    // Made here, on the driver, so that an unsupported column type fails
    // as a MuRaError when the region is built, not inside a Spark job.
    val duck = Option.when(cfg.plan == PlanChoice.ForcePlwPg) {
      DuckDb.compile(local, Executor.schemaOf(_, env, inputs.map { case ((u, _), name) => name -> u }.toMap))
    }

    // Each task evaluates on codes: the broadcast relations come encoded,
    // the exchanged rows are encoded here, above the dictionary that
    // decodes the broadcast ones, and the output is decoded once.
    val rows = feed.mapPartitionsWithIndex { (k, it) =>
      val got = it.toVector.groupMap(_._2._1)(_._2._2)
      val base = bases.map { case (b, bc) => b -> bc.value }
      val longest = base.valuesIterator.map(_._2).maxByOption(_.size).getOrElse(Dict.empty)
      val (exchanged, dict) = longest.encodeAll(fixCols.zipWithIndex.map { case ((name, fCols), i) =>
        (name, fCols, got.getOrElse(i, Vector.empty).map(_.toSeq))
      })
      var taskEnv = base.map { case (b, (r, _)) => b -> r } ++ exchanged
      slices.foreach { case (name, u, cs) =>
        val r = LocalEval.eval(u, taskEnv, dict, maxIters)
        val idx = cs.map(r.colIdx)
        taskEnv += name -> r.where(row => Bucket.of(idx.map(i => dict.value(r.code(row, i))), n) == k)
      }
      duck match {
        case None    => LocalEval.eval(local, taskEnv, dict, maxIters).decode(dict, cols).map(new GenericRow(_))
        case Some(q) => q.run((name, cs) => taskEnv(name).decode(dict, cs).map(ArraySeq.unsafeWrapArray).toVector).iterator
      }
    }
    (cols, if (key.nonEmpty) rows else rows.distinct(n))
  }

  /** The partition key of a region over `t` (see [[region]]), None when
    * `t` is a fixpoint with no stable column or has no column, and the
    * number of fixpoints exchanged into the region with that key, those
    * exchanged into their own regions included.
    */
  private def partitionKey(t: Term): (Option[String], Int) = {
    val candidates = t match {
      case fix: Fix => Stabilizer.stableCols(fix, cat)
      case _        => Analysis.sort(t, cat)
    }
    candidates.toVector.sorted.map { c =>
      var exchanged = 0
      Stabilizer.pushSelection(t, Seq(c), cat) {
        case (f: Fix, _) => exchanged += 1 + partitionKey(f)._2; f
        case (u, _)      => u
      }
      (Option(c), exchanged)
    }.minByOption(_._2).getOrElse((None, 0))
  }

  /** The rows of a fixpoint that feeds a region, in sorted column order. */
  private def regionRows(fix: Fix): (Vector[String], RDD[Row]) =
    if (inRegion(fix)) region(fix)
    else {
      val df = evalFix(fix, Map.empty)
      val cols = df.columns.toVector.sorted
      (cols, df.select(cols.map(col): _*).rdd)
    }
}

object Executor {

  /** Spark schema of `t`, its columns sorted: the typed sort, with types
    * from the relations in `env`. `in` gives the term each of a region's
    * `__in_*` inputs stands for.
    */
  def schemaOf(t: Term, env: Map[String, DataFrame], in: Map[String, Term] = Map.empty): StructType = {
    def types(t: Term): Map[String, DataType] = t match {
      case Rel(n) => in.get(n) match {
        case Some(u) => types(u)
        case None    => env.getOrElse(n, throw MuRaError(s"unbound relation $n"))
                          .schema.fields.map(f => f.name -> f.dataType).toMap
      }
      case Rename(f, to, s) => val m = types(s); m - f + (to -> m(f))
      case AntiProj(c, s)   => types(s) - c
      case Join(l, r)       => types(l) ++ types(r)
      case Filter(_, s)     => types(s)
      case Antijoin(l, _)   => types(l)
      case Union(l, _)      => types(l)
      case f: Fix           => types(f.branches._1.head)
      case RecVar(x)        => throw MuRaError(s"unbound recursive variable $x")
    }
    StructType(types(t).toSeq.sortBy(_._1).map { case (c, ty) => StructField(c, ty, nullable = true) })
  }
}

package repro.exec

import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession, ValueRows}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.core._

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
    /** Largest base relation, in rows, collected to the driver and
      * broadcast to the tasks; a larger one is exchanged into the tasks
      * instead, never passing through the driver (see [[Broadcasts]]).
      */
    broadcastThreshold: Long = 4000000L,
    /** Semi-naive (differential) iteration: φ applied to the new tuples
      * only (Algorithm 1). Disabled for the Myria-lite baseline to model
      * a less efficient recursion engine (see DESIGN.md §2).
      */
    semiNaive: Boolean = true,
)

/** Base relations collected to the driver and broadcast to the tasks:
  * each at most once, when the first plan that reads it is built, with
  * or without a fixpoint, and only when it has at most `maxRows` rows.
  * [[refused]] records why the others, which are exchanged into the
  * tasks instead, were not.
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

/** The partition a row belongs to, from the values of its partition
  * columns. Task-side selections and exchanges (a `HashPartitioner` on
  * the bucket) both use it, so a row lands in the task it passes.
  */
private[exec] object Bucket {
  def of(values: Seq[Any], n: Int): Int = Math.floorMod(values.hashCode, n)
}

/** One task's part of a `P_gld` loop (a SetRDD partition), encoded with
  * `dict`: its inputs, its part of `total`, whose first `seen` rows are
  * this iteration's (later ones add to the set), and `delta`, the new ones.
  */
private[exec] final case class GldPart(env: Map[String, Rows], dict: Dict, total: RowSet, seen: Int, delta: Rows)

/** Term → DataFrame evaluation. Every closed term runs through region
  * tasks (see [[region]]), each fixpoint planned `P_gld` as a SetRDD loop
  * (see [[pGld]]) fed into them, and the DataFrame is built once, over
  * the rows at the top as Catalyst holds them ([[ValueRows]]): no plan
  * maps to Dataset operations. Rows pass between task sets, and leave
  * them, as arrays of values in the sorted column order. One [[Memo]] holds
  * the sorts and stable columns of the plans an executor runs; it is
  * locked while in use, so that threads may share an executor.
  */
final class Executor(spark: SparkSession, env: Map[String, DataFrame], cfg: ExecConfig,
                     val broadcasts: Broadcasts) {

  def this(spark: SparkSession, env: Map[String, DataFrame], cfg: ExecConfig) =
    this(spark, env, cfg, new Broadcasts(spark, env, cfg.broadcastThreshold))

  private val memo = new Memo(env.map { case (n, df) => n -> df.columns.toSet })

  def eval(t: Term): DataFrame = ValueRows.dataFrame(spark, rows(t)._2, Executor.schemaOf(t, env))

  /** The output columns of the closed term `t`, sorted. */
  private def sortOf(t: Term): Vector[String] =
    memo.synchronized(Analysis.sort(t, memo, Map.empty)).toVector.sorted

  // -------------------------------------------------------------------
  // Plan selection (the PhysicalPlanGenerator of Sec. IV-B)
  // -------------------------------------------------------------------

  /** Whether `fix` is planned as `P_plw`: under `ForcePlwS` and
    * `ForcePlwPg` always, under `Auto` when it has a stable column
    * (Sec. IV-B-c), under `ForceGld` never.
    */
  private def planned(fix: Fix): Boolean = cfg.plan match {
    case PlanChoice.ForcePlwS | PlanChoice.ForcePlwPg => true
    case PlanChoice.Auto     => memo.synchronized(Stabilizer.stableCols(fix, memo)).nonEmpty
    case PlanChoice.ForceGld => false
  }

  /** The rows of a closed term, columns sorted: of a fixpoint planned
    * `P_gld` from its loop, of a base relation as is, else of a region.
    */
  private def rows(t: Term): (Vector[String], RDD[Array[Any]]) = t match {
    case fix: Fix if !planned(fix) => pGld(fix)
    case Rel(n) =>
      val cols = env(n).columns.toVector.sorted
      (cols, env(n).select(cols.map(col): _*).rdd.map(_.toSeq.toArray))
    case _ => region(t)
  }

  /** The inputs of one task set, a region's or a `P_gld` loop's, each
    * bound to a fresh name in the task: a term, and the columns whose
    * bucket selects the task's rows (None: every task gets every row). A
    * base relation that [[Broadcasts]] refuses, or a fixpoint that reads
    * one or that is not planned `P_plw` with every fixpoint inside it, is
    * exchanged into the tasks, its rows from [[rows]]; so is every
    * fixpoint under `ForcePlwPg`, whose tasks run on DuckDB. Any other
    * input is a slice, evaluated once in each task against the broadcasts.
    */
  private final class Inputs {
    private val names = mutable.LinkedHashMap.empty[(Term, Option[Seq[String]]), String]

    private def input(u: Term, on: Option[Seq[String]]): Term =
      Rel(names.getOrElseUpdate((u, on), s"__in_${names.size}"))

    private def exchanged(u: Term): Boolean = u match {
      case fix: Fix => cfg.plan == PlanChoice.ForcePlwPg || !plw(fix) || fix.freeRels.exists(n => exchanged(Rel(n)))
      case Rel(n)   => env.contains(n) && broadcasts(n).isLeft
      case _        => false
    }

    /** Whether `u` and every fixpoint inside it are planned `P_plw`. */
    private def plw(u: Term): Boolean = (u match {
      case fix: Fix => planned(fix)
      case _        => true
    }) && u.children.forall(plw)

    /** Whether `u` is an input of its own wherever it is met: a fixpoint,
      * so that a task evaluates it once, or an exchanged base relation.
      */
    private def own(u: Term): Boolean = u.isInstanceOf[Fix] || exchanged(u)

    def terms: Map[String, Term] = names.map { case ((u, _), name) => name -> u }.toMap

    /** `u` with each fixpoint the selection did not enter, and each
      * refused base relation, replaced by an input every task gets whole.
      */
    def localize(u: Term): Term = u match {
      case f: Fix if f.freeRels.exists(r => names.valuesIterator.contains(r)) => f.mapChildren(localize)
      case _ if own(u) => input(u, None)
      case _           => u.mapChildren(localize)
    }

    /** `u` with the selection on the bucket of `on` pushed down, into the
      * fixpoints planned `P_plw` only; each subterm where it stops
      * becomes an input cut to the task's bucket.
      */
    def push(u: Term, on: Seq[String]): Term = memo.synchronized {
      Stabilizer.pushSelection(u, on, memo, planned) {
        case (v, cs) if own(v) => input(v, Some(cs))
        case (v, cs)           => input(localize(v), Some(cs))
      }
    }

    /** One element per task of `n`: the inputs of the terms `local`, all
      * encoded with the dictionary given, the exchanged rows above the
      * longest of the broadcasts' dictionaries.
      */
    def open(n: Int, local: Seq[Term]): RDD[(Map[String, Rows], Dict)] = {
      val (moved, sliced) = names.toVector.partition { case ((u, _), _) => exchanged(u) }
      val got = moved.map { case ((u, on), name) => (name, on, rows(u)) }
      val routed = got.zipWithIndex.map { case ((_, on, (cols, rs)), i) =>
        on.map(_.map(cols.indexOf)) match {
          case Some(idx) => rs.map(r => (Bucket.of(idx.map(r(_)), n), (i, r)))
          case None      => rs.flatMap(r => (0 until n).map(k => (k, (i, r))))
        }
      }
      val exchange =
        if (routed.isEmpty) spark.sparkContext.parallelize(Seq.empty[(Int, (Int, Array[Any]))], n)
        else spark.sparkContext.union(routed).partitionBy(new HashPartitioner(n))
      val movedCols = got.map { case (name, _, (cols, _)) => (name, cols) }
      val bases = (local ++ sliced.map(_._1._1)).flatMap(_.freeRels).distinct.filter(env.contains)
        .map(b => b -> broadcasts(b).fold(why => throw MuRaError(why), identity)).toMap
      val maxIters = cfg.maxIters
      exchange.mapPartitionsWithIndex { (k, it) =>
        val byInput = it.toVector.groupMap(_._2._1)(_._2._2)
        val base = bases.map { case (b, bc) => b -> bc.value }
        val longest = base.valuesIterator.map(_._2).maxByOption(_.size).getOrElse(Dict.empty)
        val (exchanged, dict) = longest.encodeAll(movedCols.zipWithIndex.map { case ((name, cols), i) =>
          (name, cols, byInput.getOrElse(i, Vector.empty).map(ArraySeq.unsafeWrapArray(_)))
        })
        var taskEnv = base.map { case (b, (r, _)) => b -> r } ++ exchanged
        sliced.foreach { case ((u, on), name) =>
          val r = LocalEval.eval(u, taskEnv, dict, maxIters)
          taskEnv += name -> on.fold(r) { cs =>
            val idx = cs.map(r.colIdx)
            r.where(row => Bucket.of(idx.map(i => dict.value(r.code(row, i))), n) == k)
          }
        }
        Iterator((taskEnv, dict))
      }
    }
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
    * into the constant part of every fixpoint planned `P_plw` on which
    * the key is stable (Prop. 3), so the operators above the fixpoints
    * and the whole fixpoint chain run in the same task and no data
    * crosses the cluster during the recursion. Where the selection
    * stops, the subterm becomes an input cut to the task's bucket; a side
    * it never reaches (φ, a join side without the key, the right side of
    * an antijoin) is evaluated whole in every task (see [[Inputs]]).
    *
    * The key is the output column (for a fixpoint, the stable column)
    * whose selection stops at the fewest fixpoints, each counted with the
    * fixpoints its own region's selection stops at, the first in sorted
    * order on a tie; the tasks' results are then disjoint. A fixpoint with
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
  private[exec] def region(t: Term): (Vector[String], RDD[Array[Any]]) = {
    val (n, maxIters) = (cfg.nPartitions, cfg.maxIters)
    val cols = sortOf(t)
    val (key, _) = partitionKey(t)
    val in = new Inputs
    val local = in.localize((t, key) match {
      case (_, Some(c)) => in.push(t, Seq(c))
      case (fix: Fix, None) =>
        val (constB, varB) = fix.branches
        Fix(fix.x, Term.unionAll(constB.map(in.push(_, cols)) ++ varB))
      case (_, None) => in.push(t, cols) // no column: one task holds every row
    })
    val tasks = in.open(n, Seq(local))
    // Made here, on the driver, so that an unsupported column type fails
    // as a MuRaError when the region is built, not inside a Spark job.
    val duck = Option.when(cfg.plan == PlanChoice.ForcePlwPg)(DuckDb.compile(local, Executor.schemaOf(_, env, in.terms)))
    // Each task evaluates on codes and decodes its output once.
    val out = tasks.flatMap { case (taskEnv, dict) =>
      duck match {
        case None    => LocalEval.eval(local, taskEnv, dict, maxIters).decode(dict, cols)
        case Some(q) => q.run((name, cs) => taskEnv(name).decode(dict, cs).map(ArraySeq.unsafeWrapArray).toVector).iterator
      }
    }
    // Arrays compare by identity: the distinct compares them as sequences.
    (cols, if (key.nonEmpty) out else out.map(ArraySeq.unsafeWrapArray(_)).distinct(n).map(_.toArray))
  }

  /** The partition key of a region over `t` (see [[region]]), None when
    * `t` is a fixpoint with no stable column or has no column, and the
    * number of fixpoints its selection stops at, those their own
    * regions' selections stop at included.
    */
  private def partitionKey(t: Term): (Option[String], Int) = memo.synchronized {
    val candidates = t match {
      case fix: Fix => Stabilizer.stableCols(fix, memo)
      case _        => Analysis.sort(t, memo, Map.empty)
    }
    candidates.toVector.sorted.map { c =>
      var stops = 0
      Stabilizer.pushSelection(t, Seq(c), memo, planned) {
        case (f: Fix, _) => stops += 1 + (if (planned(f)) partitionKey(f)._2 else 0); f
        case (u, _)      => u
      }
      (Option(c), stops)
    }.minByOption(_._2).getOrElse((None, 0))
  }

  // -------------------------------------------------------------------
  // P_gld: global loop (Sec. IV-A1, Algorithm 1) as a SetRDD loop
  // -------------------------------------------------------------------

  /** `P_gld` for `fix`: `total` is an RDD of row sets ([[GldPart]]), task
    * `k` holding whole-row bucket `k` of the constant part and then of
    * each iteration. An iteration runs one Spark job, the count of the new
    * delta, and one exchange: each task applies φ with [[LocalEval]], X
    * bound to its delta (its part of `total` when iteration is naive), and
    * sends each row to its whole-row bucket, whose task keeps those not
    * yet in `total`. Lineage is cut every iteration. A fixpoint in φ is an
    * input (see [[Inputs]]), evaluated or received once per task, not once
    * per iteration.
    */
  private def pGld(fix: Fix): (Vector[String], RDD[Array[Any]]) = {
    val (constB, varB) = fix.branches
    if (varB.isEmpty) return region(Term.unionAll(constB))
    val (n, maxIters, semiNaive) = (cfg.nPartitions, cfg.maxIters, cfg.semiNaive)
    val cols = sortOf(fix)
    val in = new Inputs
    val r0 = in.localize(Term.unionAll(constB.map(in.push(_, cols))))
    val phi = in.localize(Analysis.substRec(Term.unionAll(varB), fix.x, Rel(Executor.Delta)))
    var parts = in.open(n, Seq(r0, phi)).map { case (taskEnv, dict) =>
      val total = new RowSet(cols.length)
      total.addAll(LocalEval.eval(r0, taskEnv, dict, maxIters), cols)
      GldPart(taskEnv, dict, total, total.size, total.result(cols))
    }.persist()
    var (iters, fresh) = (0, 1L)
    while (fresh > 0) {
      if (Thread.interrupted()) throw new InterruptedException("P_gld cancelled")
      iters += 1
      if (iters > maxIters) throw MuRaError(s"P_gld exceeded $maxIters iterations")
      val sent = parts.flatMap { p =>
        val x = if (semiNaive) p.delta else p.total.slice(0, p.seen, cols)
        LocalEval.eval(phi, p.env + (Executor.Delta -> x), p.dict, maxIters).decode(p.dict, cols)
          .map(r => (Bucket.of(ArraySeq.unsafeWrapArray(r), n), r))
      }.partitionBy(new HashPartitioner(n))
      val next = parts.zipPartitions(sent) { (ps, got) =>
        val p = ps.next()
        val (received, dict) = p.dict.encode(cols, got.map(r => ArraySeq.unsafeWrapArray(r._2)))
        // A task run again finds `total` grown by its first run: start over.
        val total = if (p.total.size == p.seen) p.total else new RowSet(cols.length)
        if (total ne p.total) total.addAll(p.total.slice(0, p.seen, cols), cols)
        total.addAll(received, cols)
        Iterator(GldPart(p.env, dict, total, total.size, total.slice(p.seen, total.size, cols)))
      }.localCheckpoint()
      fresh = next.map(_.delta.size.toLong).fold(0L)(_ + _)
      parts.unpersist(blocking = false)
      parts = next
    }
    (cols, parts.flatMap(p => p.total.slice(0, p.seen, cols).decode(p.dict, cols)))
  }
}

object Executor {

  /** The name φ's recursive variable takes in a `P_gld` task. */
  private val Delta = "__delta"

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

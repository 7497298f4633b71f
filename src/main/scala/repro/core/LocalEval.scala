package repro.core

import scala.collection.mutable

/** A small in-memory relation: a column ordering plus a set of rows.
  * Rows are `Vector[Any]` so they hash structurally (set semantics).
  */
final case class LocalRel(cols: Vector[String], rows: Vector[Vector[Any]]) {
  def colIdx(c: String): Int = {
    val i = cols.indexOf(c)
    if (i < 0) throw MuRaError(s"column $c not in $cols")
    i
  }

  /** Reorder rows to the given column ordering (same column set). */
  def aligned(order: Vector[String]): LocalRel =
    if (order == cols) this
    else {
      val idx = order.map(colIdx)
      LocalRel(order, rows.map(r => idx.map(r)))
    }

  def distinct: LocalRel = LocalRel(cols, rows.distinct)
  def isEmpty: Boolean = rows.isEmpty
  def size: Int = rows.size
}

/** Single-threaded semi-naive μ-RA evaluation over [[LocalRel]]s.
  *
  * This is the engine each worker task runs in the `P_plw^s` physical
  * plan: joins against broadcast relations are hash joins,
  * union/difference are plain set operations on the task-local set (the
  * partition-wise SetRDD semantics of Sec. IV-B), and fixpoints iterate
  * Algorithm 1 on the task's own constant part. It doubles as the
  * reference evaluator in unit tests.
  */
object LocalEval {

  /** Evaluate a term. `env` binds base relations, `rec` bound recursive
    * variables. The result is deduplicated (set semantics).
    */
  def eval(t: Term, env: Map[String, LocalRel],
           rec: Map[String, LocalRel] = Map.empty,
           maxIters: Int = 1_000_000): LocalRel = t match {
    case Rel(n) => env.getOrElse(n, throw MuRaError(s"unbound relation $n"))
    case RecVar(x) => rec.getOrElse(x, throw MuRaError(s"unbound recursive variable $x"))

    case fix @ Fix(x, _) =>
      val (constB, varB) = fix.branches
      val r0 = constB.map(eval(_, env, rec, maxIters)).reduceLeft { (a, b) =>
        LocalRel(a.cols, (a.rows ++ b.aligned(a.cols).rows).distinct)
      }
      if (varB.isEmpty) r0.distinct
      else fixpoint(x, r0.distinct, Term.unionAll(varB), env, rec, maxIters)

    case op => operator(op, eval(_, env, rec, maxIters))
  }

  /** One non-recursive operator over its operands, each evaluated by `sub`. */
  private def operator(t: Term, sub: Term => LocalRel): LocalRel = t match {
    case Filter(EqConst(c, v), s) =>
      val r = sub(s)
      val i = r.colIdx(c)
      LocalRel(r.cols, r.rows.filter(_(i) == v))

    case Filter(EqCols(a, b), s) =>
      val r = sub(s)
      val ia = r.colIdx(a); val ib = r.colIdx(b)
      LocalRel(r.cols, r.rows.filter(row => row(ia) == row(ib)))

    case Join(l, r) => join(sub(l), sub(r))

    case Antijoin(l, r) => antijoin(sub(l), sub(r))

    case Union(l, r) =>
      val lr = sub(l)
      val rr = sub(r).aligned(lr.cols)
      LocalRel(lr.cols, (lr.rows ++ rr.rows).distinct)

    case AntiProj(c, s) =>
      val r = sub(s)
      val i = r.colIdx(c)
      LocalRel(r.cols.patch(i, Nil, 1), r.rows.map(row => row.patch(i, Nil, 1)).distinct)

    case Rename(f, to, s) =>
      val r = sub(s)
      val i = r.colIdx(f)
      if (r.cols.contains(to)) throw MuRaError(s"rename target $to already present in ${r.cols}")
      LocalRel(r.cols.updated(i, to), r.rows)

    case other => throw MuRaError(s"not an operator: ${other.pretty}")
  }

  /** Semi-naive loop (Algorithm 1 of the paper): apply φ to the new
    * tuples only, which is sound under F_cond by Proposition 1.
    */
  def fixpoint(x: String, r0: LocalRel, phi: Term,
               env: Map[String, LocalRel], rec: Map[String, LocalRel],
               maxIters: Int): LocalRel = {
    val cols = r0.cols
    val step = new Step(x, env, rec, maxIters)
    val total = mutable.LinkedHashSet.empty[Vector[Any]]
    total ++= r0.rows
    var delta = r0
    var iters = 0
    while (delta.rows.nonEmpty) {
      if (Thread.interrupted()) throw new InterruptedException("fixpoint cancelled")
      iters += 1
      if (iters > maxIters) throw MuRaError(s"fixpoint exceeded $maxIters iterations")
      val produced = step(phi, delta).aligned(cols)
      delta = LocalRel(cols, produced.rows.filter(total.add))
    }
    LocalRel(cols, total.toVector)
  }

  /** φ compiled for the loop of one fixpoint: every maximal subterm free
    * of `x` is evaluated once, and every join or antijoin with an
    * `x`-free side keeps that side's hash index across iterations, so an
    * iteration costs O(|Δ| + output), not O(|constant relations|).
    * Caches are keyed by node identity: φ is the same object on every
    * iteration.
    */
  private final class Step(x: String, env: Map[String, LocalRel],
                           rec: Map[String, LocalRel], maxIters: Int) {
    private val values = new java.util.IdentityHashMap[Term, LocalRel]()
    private val indexes = new java.util.IdentityHashMap[Term, Index]()

    private def value(t: Term): LocalRel = values.computeIfAbsent(t, eval(_, env, rec, maxIters))

    /** Index of the `x`-free operand `side` of `node` on the columns it
      * shares with the other operand, whose column set is `otherCols`.
      */
    private def index(node: Term, side: Term, otherCols: Vector[String]): Index =
      indexes.computeIfAbsent(node, _ => {
        val r = value(side)
        new Index(r, r.cols.filter(otherCols.contains))
      })

    def apply(t: Term, delta: LocalRel): LocalRel = t match {
      case RecVar(`x`) => delta
      case u if !u.usesRec(x) => value(u)
      case Join(l, r) if !r.usesRec(x) =>
        val lr = apply(l, delta)
        index(t, r, lr.cols).join(lr)
      case Join(l, r) if !l.usesRec(x) =>
        val rr = apply(r, delta)
        index(t, l, rr.cols).join(rr)
      case Antijoin(l, r) if !r.usesRec(x) =>
        val lr = apply(l, delta)
        index(t, r, lr.cols).antijoin(lr)
      case op => operator(op, apply(_, delta))
    }
  }

  /** Hash index of `rel` on the columns `on`. */
  private final class Index(rel: LocalRel, on: Vector[String]) {
    private val extraIdx = rel.cols.indices.filterNot(i => on.contains(rel.cols(i))).toVector
    private val byKey: Map[Vector[Any], Vector[Vector[Any]]] = {
      val keyIdx = on.map(rel.colIdx)
      rel.rows.groupBy(row => keyIdx.map(row))
    }

    /** Natural join `probe ⋈ rel` (`probe` holds all of `on`); columns of
      * `probe` first.
      */
    def join(probe: LocalRel): LocalRel = {
      val keyIdx = on.map(probe.colIdx)
      val out = Vector.newBuilder[Vector[Any]]
      probe.rows.foreach { a =>
        byKey.get(keyIdx.map(a)).foreach(_.foreach(b => out += (a ++ extraIdx.map(b))))
      }
      LocalRel(probe.cols ++ extraIdx.map(rel.cols), out.result())
    }

    /** Antijoin `probe ▷ rel`. With no common columns a non-empty `rel`
      * matches every row (the empty key), an empty one none.
      */
    def antijoin(probe: LocalRel): LocalRel = {
      val keyIdx = on.map(probe.colIdx)
      LocalRel(probe.cols, probe.rows.filterNot(a => byKey.contains(keyIdx.map(a))))
    }
  }

  /** Hash natural join; cartesian product when no common columns. */
  def join(l: LocalRel, r: LocalRel): LocalRel =
    new Index(r, r.cols.filter(l.cols.contains)).join(l)

  /** Hash anti-join on common columns; `l ▷ r = l` when r is empty and
    * there are no common columns, ∅ otherwise.
    */
  def antijoin(l: LocalRel, r: LocalRel): LocalRel =
    new Index(r, r.cols.filter(l.cols.contains)).antijoin(l)
}

package repro.core

/** A small in-memory relation of values: a column ordering plus rows, the
  * values of each row in that order. The value-level boundary of
  * [[LocalEval]].
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

  def isEmpty: Boolean = rows.isEmpty
  def size: Int = rows.size
}

/** Single-threaded semi-naive μ-RA evaluation over dictionary-encoded
  * [[Rows]].
  *
  * This is the engine each worker task runs in the `P_plw^s` physical
  * plan: joins against broadcast relations are hash joins,
  * union/difference are plain set operations on the task-local set (the
  * partition-wise SetRDD semantics of Sec. IV-B), and fixpoints iterate
  * Algorithm 1 on the task's own constant part. It doubles as the
  * reference evaluator in unit tests.
  */
object LocalEval {

  /** Evaluate a term over the base relations `env`, encoded with a
    * dictionary of their own. The result is deduplicated (set semantics).
    */
  def eval(t: Term, env: Map[String, LocalRel], maxIters: Int = 1_000_000): LocalRel = {
    val (encoded, dict) =
      Dict.empty.encodeAll(t.freeRels.toVector.sorted.flatMap(n => env.get(n).map(r => (n, r.cols, r.rows))))
    eval(t, encoded, dict, maxIters).toLocalRel(dict)
  }

  /** Evaluate a term over encoded base relations `env`, all decoded by
    * `dict`, in which filter constants are looked up.
    */
  def eval(t: Term, env: Map[String, Rows], dict: Dict, maxIters: Int): Rows =
    new Eval(env, dict, maxIters)(t)

  private final class Eval(env: Map[String, Rows], dict: Dict, maxIters: Int) {

    def apply(t: Term): Rows = t match {
      case Rel(n) => env.getOrElse(n, throw MuRaError(s"unbound relation $n"))
      case RecVar(x) => throw MuRaError(s"unbound recursive variable $x")

      case fix @ Fix(x, _) =>
        val (constB, varB) = fix.branches
        val r0 = constB.map(apply).reduceLeft(union)
        if (varB.isEmpty) r0 else fixpoint(x, r0, Term.unionAll(varB))

      case op => operator(op, apply)
    }

    /** The distinct rows of `rs`, each aligned to the columns `cols`. */
    private def distinct(cols: Vector[String], rs: Rows*): Rows = {
      val set = new RowSet(cols.length)
      rs.foreach(set.addAll(_, cols))
      set.result(cols)
    }

    /** `l ∪ r`, `r` aligned to the columns of `l`; both must have the
      * same columns.
      */
    private def union(l: Rows, r: Rows): Rows = {
      sameCols(l.cols, r.cols)
      distinct(l.cols, l, r)
    }

    /** Throws unless `a` and `b` hold the same columns, as a union needs. */
    private def sameCols(a: Vector[String], b: Vector[String]): Unit =
      if (a.toSet != b.toSet)
        throw MuRaError(s"union of different columns: ${a.mkString(",")} vs ${b.mkString(",")}")

    /** One non-recursive operator over its operands, each evaluated by `sub`. */
    private def operator(t: Term, sub: Term => Rows): Rows = t match {
      case Filter(EqConst(c, v), s) =>
        val r = sub(s)
        val i = r.colIdx(c)
        val code = dict.code(v)
        r.where(row => r.code(row, i) == code)

      case Filter(EqCols(a, b), s) =>
        val r = sub(s)
        val ia = r.colIdx(a); val ib = r.colIdx(b)
        r.where(row => r.code(row, ia) == r.code(row, ib))

      case Join(l, r) =>
        val lr = sub(l); val rr = sub(r)
        new Index(rr, rr.cols.filter(lr.cols.contains)).join(lr)

      case Antijoin(l, r) =>
        val lr = sub(l); val rr = sub(r)
        new Index(rr, rr.cols.filter(lr.cols.contains)).antijoin(lr)

      case Union(l, r) => union(sub(l), sub(r))

      case AntiProj(c, s) =>
        val r = sub(s)
        val i = r.colIdx(c)
        distinct(r.cols.patch(i, Nil, 1), r)

      case Rename(f, to, s) =>
        val r = sub(s)
        val i = r.colIdx(f)
        if (r.cols.contains(to)) throw MuRaError(s"rename target $to already present in ${r.cols}")
        new Rows(r.cols.updated(i, to), r.size, r.data)

      case other => throw MuRaError(s"not an operator: ${other.pretty}")
    }

    /** Semi-naive loop (Algorithm 1 of the paper): apply φ to the new
      * tuples only, which is sound under F_cond by Proposition 1.
      */
    private def fixpoint(x: String, r0: Rows, phi: Term): Rows = {
      val cols = r0.cols
      val total = new RowSet(cols.length)
      total.addAll(r0, cols)
      val step = new Step(x, total, cols)
      var delta = r0
      var iters = 0
      while (!delta.isEmpty) {
        if (Thread.interrupted()) throw new InterruptedException("fixpoint cancelled")
        iters += 1
        if (iters > maxIters) throw MuRaError(s"fixpoint exceeded $maxIters iterations")
        val before = total.size
        step.add(phi, delta)
        delta = total.slice(before, total.size, cols)
      }
      total.result(cols)
    }

    /** φ compiled for the loop of one fixpoint, whose rows it adds into
      * `total`, aligned to its columns `cols`: every maximal subterm free
      * of `x` is evaluated once, and every join or antijoin with an
      * `x`-free side keeps that side's hash index across iterations, so an
      * iteration costs O(|Δ| + output), not O(|constant relations|).
      * Caches are keyed by node identity: φ is the same object on every
      * iteration.
      */
    private final class Step(x: String, total: RowSet, cols: Vector[String]) {
      private val values = new java.util.IdentityHashMap[Term, Rows]()
      private val indexes = new java.util.IdentityHashMap[Term, Index]()

      private def value(t: Term): Rows = values.computeIfAbsent(t, Eval.this(_))

      /** Index of the `x`-free operand `side` of `node` on the columns it
        * shares with the other operand, whose column set is `otherCols`.
        */
      private def index(node: Term, side: Term, otherCols: Vector[String]): Index =
        indexes.computeIfAbsent(node, _ => {
          val r = value(side)
          new Index(r, r.cols.filter(otherCols.contains))
        })

      /** Add the rows of `t` on `delta` into `total`, each hashed once: a
        * union adds each operand, and an anti-projection adds its
        * operand's rows projected, those of a join with an `x`-free side
        * as the index finds them, with no join materialised.
        */
      def add(t: Term, delta: Rows): Unit = t match {
        case Union(l, r) => add(l, delta); add(r, delta)
        case AntiProj(c, j @ Join(l, r)) if !r.usesRec(x) =>
          val lr = apply(l, delta)
          addJoined(j, r, lr, c)
        case AntiProj(c, j @ Join(l, r)) if !l.usesRec(x) =>
          val rr = apply(r, delta)
          addJoined(j, l, rr, c)
        case AntiProj(c, s) =>
          val r = apply(s, delta)
          sameCols(cols, r.cols.patch(r.colIdx(c), Nil, 1))
          total.addAll(r, cols)
        case _ =>
          val r = apply(t, delta)
          sameCols(cols, r.cols)
          total.addAll(r, cols)
      }

      /** Add `π̃_c(probe ⋈ side)` into `total`, `side` the `x`-free
        * operand of `join`.
        */
      private def addJoined(join: Term, side: Term, probe: Rows, c: String): Unit = {
        val idx = index(join, side, probe.cols)
        val joined = probe.cols ++ idx.extraCols
        if (!joined.contains(c)) throw MuRaError(s"column $c not in $joined")
        sameCols(cols, joined.filterNot(_ == c))
        idx.joinInto(probe, total, cols)
      }

      def apply(t: Term, delta: Rows): Rows = t match {
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
  }
}

package repro.core

import java.util.Arrays
import scala.collection.immutable.HashMap
import scala.collection.mutable.ArrayBuilder
import scala.util.hashing.MurmurHash3

/** The dictionary of [[LocalEval]]: values and their dense `Int` codes.
  * Two values share a code when they are equal under Scala `==`/`##`
  * (so `1` and `1L` do), and a code decodes to the first value encoded
  * with it. A dictionary is immutable: encoding returns a longer one that
  * keeps every code of this one, so rows encoded with any dictionary are
  * decoded by every dictionary grown from it.
  */
final class Dict private (codes: HashMap[Any, Int], private[core] val values: Vector[Any]) extends Serializable {
  def size: Int = values.length

  /** The code of `v`, or -1 when no value equal to `v` has one. */
  def code(v: Any): Int = codes.getOrElse(v, -1)

  def value(code: Int): Any = values(code)

  /** The values as an array, indexed by code: made once per dictionary
    * (and once per JVM it is sent to), not once per decode.
    */
  @transient private[core] lazy val valueArray: Array[Any] = values.toArray

  /** `rows`, each holding the values of `cols` in that order, as a set of
    * encoded rows (duplicates dropped), and this dictionary grown by the
    * values it did not hold.
    */
  def encode(cols: Vector[String], rows: IterableOnce[Seq[Any]]): (Rows, Dict) = {
    var cs = codes
    var vs = values
    val set = new RowSet(cols.length)
    val row = new Array[Int](cols.length)
    rows.iterator.foreach { r =>
      var i = 0
      while (i < row.length) {
        val v = r(i)
        row(i) = cs.getOrElse(v, { val c = vs.length; cs = cs.updated(v, c); vs = vs :+ v; c })
        i += 1
      }
      set.add(row, 0)
    }
    (set.result(cols), if (vs eq values) this else new Dict(cs, vs))
  }

  /** Each relation, given as (name, columns, rows), encoded as by
    * [[encode]], in order, and the dictionary grown by all of them.
    */
  def encodeAll(rels: Seq[(String, Vector[String], IterableOnce[Seq[Any]])]): (Map[String, Rows], Dict) =
    rels.foldLeft((Map.empty[String, Rows], this)) { case ((m, d), (name, cols, rows)) =>
      val (r, grown) = d.encode(cols, rows)
      (m + (name -> r), grown)
    }
}

object Dict {
  val empty: Dict = new Dict(HashMap.empty, Vector.empty)
}

/** A relation as [[LocalEval]] holds it: its columns and `size` rows of
  * dictionary codes, flat, row `i` in `data(i * arity)` until
  * `data((i + 1) * arity)`. A column-free relation is `{()}` or `∅`,
  * told apart by `size`.
  */
final class Rows(val cols: Vector[String], val size: Int, private[core] val data: Array[Int])
    extends Serializable {
  def arity: Int = cols.length
  def isEmpty: Boolean = size == 0

  def colIdx(c: String): Int = {
    val i = cols.indexOf(c)
    if (i < 0) throw MuRaError(s"column $c not in $cols")
    i
  }

  /** The code in column `col` of row `row`. */
  def code(row: Int, col: Int): Int = data(row * arity + col)

  /** The rows `i` for which `keep(i)` holds. */
  def where(keep: Int => Boolean): Rows = {
    val out = new ArrayBuilder.ofInt
    var count = 0
    var i = 0
    while (i < size) {
      if (keep(i)) { out.addAll(data, i * arity, arity); count += 1 }
      i += 1
    }
    new Rows(cols, count, out.result())
  }

  /** The rows as values, each an array of the columns `order` in that order. */
  def decode(dict: Dict, order: Vector[String]): Iterator[Array[Any]] = {
    val idx = order.map(colIdx).toArray
    val values = dict.valueArray
    Iterator.tabulate(size) { i =>
      val row = new Array[Any](idx.length)
      var j = 0
      while (j < idx.length) { row(j) = values(data(i * arity + idx(j))); j += 1 }
      row
    }
  }

  def toLocalRel(dict: Dict): LocalRel = LocalRel(cols, decode(dict, cols).map(_.toVector).toVector)
}

/** Rows hashed and compared on selected columns: `key` lists the column
  * indices, in key order, of a row of `arity` codes starting at `off`.
  */
private[core] object RowKey {
  def hash(data: Array[Int], off: Int, key: Array[Int]): Int = {
    var h = 0x3c074a61
    var j = 0
    while (j < key.length) { h = MurmurHash3.mix(h, data(off + key(j))); j += 1 }
    MurmurHash3.finalizeHash(h, key.length)
  }

  def same(a: Array[Int], aOff: Int, aKey: Array[Int], b: Array[Int], bOff: Int, bKey: Array[Int]): Boolean = {
    var j = 0
    while (j < aKey.length) {
      if (a(aOff + aKey(j)) != b(bOff + bKey(j))) return false
      j += 1
    }
    true
  }
}

/** An insertion-ordered set of rows of `arity` codes: the rows flat in
  * one array, found through an open-addressing table (linear probing)
  * of row numbers.
  */
final class RowSet(arity: Int) extends Serializable {
  private val all = Array.range(0, arity)
  private var data = new Array[Int](arity * 16)
  private var n = 0
  private var slots = new Array[Int](32) // row number + 1; 0 = free

  def size: Int = n

  /** Add the row whose codes are `src(off + idx(j))`, j < arity; false
    * when it is already in.
    */
  private def add(src: Array[Int], off: Int, idx: Array[Int]): Boolean = {
    if (2 * (n + 1) > slots.length) rehash(slots.length * 2)
    val mask = slots.length - 1
    var s = RowKey.hash(src, off, idx) & mask
    while (slots(s) != 0) {
      if (RowKey.same(data, (slots(s) - 1) * arity, all, src, off, idx)) return false
      s = (s + 1) & mask
    }
    if ((n + 1) * arity > data.length) data = Arrays.copyOf(data, math.max(data.length * 2, (n + 1) * arity))
    var j = 0
    while (j < arity) { data(n * arity + j) = src(off + idx(j)); j += 1 }
    n += 1
    slots(s) = n
    true
  }

  /** Add the row of `src` starting at `off`; false when it is already in. */
  def add(src: Array[Int], off: Int): Boolean = add(src, off, all)

  /** Add every row of `r`, its columns `order` in that order; a strict
    * subset of its columns projects them.
    */
  def addAll(r: Rows, order: Vector[String]): Unit = {
    val idx = if (order == r.cols) all else order.map(r.colIdx).toArray
    var i = 0
    while (i < r.size) { add(r.data, i * r.arity, idx); i += 1 }
  }

  private def rehash(capacity: Int): Unit = {
    slots = new Array[Int](capacity)
    val mask = capacity - 1
    var i = 0
    while (i < n) {
      var s = RowKey.hash(data, i * arity, all) & mask
      while (slots(s) != 0) s = (s + 1) & mask
      slots(s) = i + 1
      i += 1
    }
  }

  /** The rows added after the first `from` and among the first `until`, as `cols`. */
  def slice(from: Int, until: Int, cols: Vector[String]): Rows =
    new Rows(cols, until - from, Arrays.copyOfRange(data, from * arity, until * arity))

  def result(cols: Vector[String]): Rows = slice(0, n, cols)
}

/** Hash index of `rel` on its columns `on`: each row chained in the
  * bucket of its key codes, in row order.
  */
private[core] final class Index(rel: Rows, on: Vector[String]) {
  private val key = on.map(rel.colIdx).toArray
  private val extra = rel.cols.indices.filterNot(i => on.contains(rel.cols(i))).toArray
  private val mask = Integer.highestOneBit(math.max(rel.size, 1)) * 2 - 1
  private val heads = Array.fill(mask + 1)(-1)
  private val next = new Array[Int](rel.size)
  locally {
    var r = rel.size - 1
    while (r >= 0) {
      val b = RowKey.hash(rel.data, r * rel.arity, key) & mask
      next(r) = heads(b)
      heads(b) = r
      r -= 1
    }
  }

  /** The first row of `rel` whose key equals the key `pk` of the row of
    * `probe` starting at `off`, at or after the chain position `b`; -1 if none.
    */
  private def find(b0: Int, probe: Array[Int], off: Int, pk: Array[Int]): Int = {
    var b = b0
    while (b >= 0 && !RowKey.same(rel.data, b * rel.arity, key, probe, off, pk)) b = next(b)
    b
  }

  /** Natural join `probe ⋈ rel` (`probe` holds all of `on`); columns of
    * `probe` first.
    */
  def join(probe: Rows): Rows = {
    val pk = on.map(probe.colIdx).toArray
    val pa = probe.arity
    val out = new ArrayBuilder.ofInt
    var count = 0
    var a = 0
    while (a < probe.size) {
      val off = a * pa
      var b = find(heads(RowKey.hash(probe.data, off, pk) & mask), probe.data, off, pk)
      while (b >= 0) {
        out.addAll(probe.data, off, pa)
        var j = 0
        while (j < extra.length) { out.addOne(rel.data(b * rel.arity + extra(j))); j += 1 }
        count += 1
        b = find(next(b), probe.data, off, pk)
      }
      a += 1
    }
    new Rows(probe.cols ++ extraCols, count, out.result())
  }

  /** The columns a join adds to the probe's: those of `rel` not in `on`. */
  def extraCols: Vector[String] = extra.toVector.map(rel.cols)

  /** Add each row of `probe ⋈ rel`, its columns `order` in that order,
    * into `into`, without building the join; `order` names columns of
    * the join, a strict subset projecting them.
    */
  def joinInto(probe: Rows, into: RowSet, order: Vector[String]): Unit = {
    val pk = on.map(probe.colIdx).toArray
    val pa = probe.arity
    // Column j of `order` is probe column from(j) when from(j) >= 0, else
    // rel column -1 - from(j).
    val from = order.map { c =>
      val i = probe.cols.indexOf(c)
      if (i >= 0) i else -1 - rel.colIdx(c)
    }.toArray
    val row = new Array[Int](order.length)
    var a = 0
    while (a < probe.size) {
      val off = a * pa
      var b = find(heads(RowKey.hash(probe.data, off, pk) & mask), probe.data, off, pk)
      while (b >= 0) {
        var j = 0
        while (j < row.length) {
          row(j) = if (from(j) >= 0) probe.data(off + from(j)) else rel.data(b * rel.arity - 1 - from(j))
          j += 1
        }
        into.add(row, 0)
        b = find(next(b), probe.data, off, pk)
      }
      a += 1
    }
  }

  /** Antijoin `probe ▷ rel`. With no common columns a non-empty `rel`
    * matches every row (the empty key), an empty one none.
    */
  def antijoin(probe: Rows): Rows = {
    val pk = on.map(probe.colIdx).toArray
    probe.where { a =>
      val off = a * probe.arity
      find(heads(RowKey.hash(probe.data, off, pk) & mask), probe.data, off, pk) < 0
    }
  }
}

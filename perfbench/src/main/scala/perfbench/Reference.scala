package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.core.{MuRaError, Term}
import repro.exec.SqlGen
import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3

/** Expected result of one query: column names, row count and an
  * order-independent checksum (the wrapping sum of per-row hashes).
  */
final case class Expected(cols: Seq[String], rows: Long, checksum: Long)

object Checksum {
  private def mix(z0: Long): Long = { // splitmix64 finaliser
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  private def valueHash(v: Any): Long = v match {
    case null                => 0x5bd1e995L
    case n: java.lang.Number => mix(n.longValue())
    case s: String           => mix(MurmurHash3.stringHash(s).toLong ^ 0x1f3d5b79L)
    case other               => mix(MurmurHash3.stringHash(other.toString).toLong)
  }

  /** Hash of one row whose values are given in sorted-column order. */
  def row(values: Iterator[Any]): Long =
    mix(values.foldLeft(0x2545f4914f6cdd1dL)((h, v) => h * 0x9e3779b97f4a7c15L + valueHash(v)))

  /** (rows, checksum) of a DataFrame, in one distributed pass. */
  def of(df: DataFrame): (Long, Long) = {
    val order = df.columns.zipWithIndex.sortBy(_._1).map(_._2)
    df.rdd.mapPartitions { it =>
      var n = 0L; var h = 0L
      it.foreach { r: Row => n += 1; h += row(order.iterator.map(r.get)) }
      Iterator((n, h))
    }.fold((0L, 0L)) { case ((n1, h1), (n2, h2)) => (n1 + n2, h1 + h2) }
  }
}

/** Reference results computed without the rewriter and without the
  * distributed plans: the unoptimised μ-RA term is translated to SQL
  * (`WITH RECURSIVE`) and run on an in-process DuckDB. Cached on disk per
  * generated data and query (see `Bench.referencePath`), so only the first
  * run of a seed pays for it.
  */
object Reference {

  private def duckType(dt: DataType): String = dt match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case StringType  => "VARCHAR"
    case other       => throw MuRaError(s"unsupported column type $other")
  }

  private def table(n: String): String = "rel_" + n.replaceAll("[^A-Za-z0-9_]", "_")

  /** Evaluate `terms` (id -> unoptimised term) over `catalog` on DuckDB. */
  def compute(catalog: Map[String, DataFrame], terms: Seq[(String, Term)]): Map[String, Expected] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      catalog.foreach { case (n, df) =>
        val ddl = df.schema.fields.map(f => s""""${f.name}" ${duckType(f.dataType)}""").mkString(", ")
        conn.createStatement.execute(s"CREATE TABLE ${table(n)} ($ddl)")
        val ps = conn.prepareStatement(
          s"INSERT INTO ${table(n)} VALUES (${df.columns.map(_ => "?").mkString(",")})")
        df.toLocalIterator().asScala.foreach { r =>
          r.toSeq.zipWithIndex.foreach { case (v, i) => ps.setObject(i + 1, v) }
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      terms.map { case (id, t) =>
        val gen = new SqlGen(catalog.keys.map(n => n -> table(n)).toMap,
          catalog.map { case (n, df) => n -> df.columns.toSeq })
        val (sql, cols) = gen.select(t, Map.empty)
        val sorted = cols.sorted
        val proj = sorted.map(c => "\"" + c + "\"").mkString(", ")
        val rs = conn.createStatement.executeQuery(s"SELECT DISTINCT $proj FROM ($sql) AS q")
        var n = 0L; var h = 0L
        while (rs.next()) {
          n += 1
          h += Checksum.row(sorted.indices.iterator.map(i => rs.getObject(i + 1)))
        }
        rs.close()
        id -> Expected(sorted, n, h)
      }.toMap
    } finally conn.close()
  }

  def load(file: Path): Option[Map[String, Expected]] =
    if (!Files.exists(file)) None
    else Some(Files.readAllLines(file, StandardCharsets.UTF_8).asScala.filter(_.nonEmpty).map { line =>
      val Array(id, cols, rows, sum) = line.split("\t")
      id -> Expected(cols.split(",").toSeq, rows.toLong, sum.toLong)
    }.toMap)

  def save(file: Path, refs: Map[String, Expected]): Unit = {
    Files.createDirectories(file.getParent)
    val tmp = file.resolveSibling(file.getFileName.toString + ".tmp")
    val body = refs.toSeq.sortBy(_._1).map { case (id, e) =>
      s"$id\t${e.cols.mkString(",")}\t${e.rows}\t${e.checksum}"
    }.mkString("", "\n", "\n")
    Files.write(tmp, body.getBytes(StandardCharsets.UTF_8))
    Files.move(tmp, file, java.nio.file.StandardCopyOption.REPLACE_EXISTING)
  }
}

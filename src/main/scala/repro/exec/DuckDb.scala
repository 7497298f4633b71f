package repro.exec

import java.sql.{Connection, DriverManager, ResultSet}
import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.core.MuRaError

/** The in-process DuckDB database of the RDBMS-backed plans: `P_plw^pg`
  * tasks and the Centralized μ-RA baseline (DuckDB substitutes
  * PostgreSQL, see DESIGN.md §2). The test oracle `repro.Oracle` does not
  * use it, so that it stays independent of the code it checks.
  */
object DuckDb {

  /** The table holding base relation `name`. */
  def table(name: String): String = s"rel_${name.replaceAll("[^A-Za-z0-9_]", "_")}"

  /** DuckDB column type of a Spark column type. */
  def duckType(dt: DataType): String = dt match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case StringType  => "VARCHAR"
    case BooleanType => "BOOLEAN"
    case other       => throw MuRaError(s"unsupported type for RDBMS backend: $other")
  }

  /** Run `f` on a fresh in-memory database, closed afterwards. */
  def withConnection[A](f: Connection => A): A = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try f(conn) finally conn.close()
  }

  /** Create `table` with columns `cols` of DuckDB types `types`, and
    * insert `rows` in one batch.
    */
  def load(conn: Connection, table: String, cols: Seq[String], types: Seq[String],
           rows: Iterable[Seq[Any]]): Unit = {
    val ddl = cols.zip(types).map { case (c, ty) => s""""$c" $ty""" }.mkString(", ")
    conn.createStatement.execute(s"CREATE TABLE $table ($ddl)")
    val ps = conn.prepareStatement(s"INSERT INTO $table VALUES (${cols.map(_ => "?").mkString(",")})")
    rows.foreach { r => r.indices.foreach(i => ps.setObject(i + 1, r(i))); ps.addBatch() }
    ps.executeBatch(); ps.close()
  }

  /** The remaining rows of `rs`, column `i` read as a Spark value of
    * type `types(i)`.
    */
  def rows(rs: ResultSet, types: IndexedSeq[DataType]): Vector[Row] = {
    val buf = Vector.newBuilder[Row]
    while (rs.next()) buf += Row.fromSeq(types.indices.map { i =>
      (types(i), rs.getObject(i + 1)) match {
        case (LongType, v: Number)    => v.longValue()
        case (IntegerType, v: Number) => v.intValue()
        case (DoubleType, v: Number)  => v.doubleValue()
        case (_, null)                => null
        case (StringType, v)          => v.toString
        case (_, v)                   => v
      }
    })
    buf.result()
  }
}

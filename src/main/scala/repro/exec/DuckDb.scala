package repro.exec

import java.sql.{Connection, DriverManager, ResultSet}
import org.apache.spark.sql.types._
import repro.core.{MuRaError, Rel, Term}

/** The in-process DuckDB database of the RDBMS-backed plans: `P_plw^pg`
  * region tasks and the Centralized μ-RA baseline (DuckDB substitutes
  * PostgreSQL, see DESIGN.md §2). The test oracle `repro.Oracle` does not
  * use it, so that it stays independent of the code it checks.
  */
object DuckDb {

  /** The table holding relation `name`. */
  private def table(name: String): String = s"rel_${name.replaceAll("[^A-Za-z0-9_]", "_")}"

  /** DuckDB column type of a Spark column type. */
  private def duckType(dt: DataType): String = dt match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case StringType  => "VARCHAR"
    case BooleanType => "BOOLEAN"
    case other       => throw MuRaError(s"unsupported type for RDBMS backend: $other")
  }

  /** Run `f` on a fresh in-memory database, closed afterwards. */
  private def withConnection[A](f: Connection => A): A = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try f(conn) finally conn.close()
  }

  /** Create `table` with columns `cols` of DuckDB types `types`, and
    * insert `rows` in one batch.
    */
  private def load(conn: Connection, table: String, cols: Seq[String], types: Seq[String],
                   rows: Iterable[Seq[Any]]): Unit = {
    val ddl = cols.zip(types).map { case (c, ty) => s""""$c" $ty""" }.mkString(", ")
    conn.createStatement.execute(s"CREATE TABLE $table ($ddl)")
    val ps = conn.prepareStatement(s"INSERT INTO $table VALUES (${cols.map(_ => "?").mkString(",")})")
    rows.foreach { r => r.indices.foreach(i => ps.setObject(i + 1, r(i))); ps.addBatch() }
    ps.executeBatch(); ps.close()
  }

  /** The remaining rows of `rs`, each an array whose value `i` is read
    * as a Spark value of type `types(i)`.
    */
  private def rows(rs: ResultSet, types: IndexedSeq[DataType]): Vector[Array[Any]] = {
    val buf = Vector.newBuilder[Array[Any]]
    while (rs.next()) buf += Array.tabulate[Any](types.length) { i =>
      (types(i), rs.getObject(i + 1)) match {
        case (LongType, v: Number)    => v.longValue()
        case (IntegerType, v: Number) => v.intValue()
        case (DoubleType, v: Number)  => v.doubleValue()
        case (_, null)                => null
        case (StringType, v)          => v.toString
        case (_, v)                   => v
      }
    }
    buf.result()
  }

  /** A term as one DuckDB query: the relations it reads, each as
    * (name, columns, DuckDB types), its SQL, and its output schema.
    */
  final case class Query(tables: Vector[(String, Vector[String], Vector[String])], sql: String,
                         schema: StructType) {

    /** Run on a fresh database, each relation `n` loaded from
      * `rows(n, its columns)`; each row holds the values of `schema`'s
      * fields in that order.
      */
    def run(rows: (String, Vector[String]) => Iterable[Seq[Any]]): Vector[Array[Any]] = withConnection { conn =>
      tables.foreach { case (n, cols, types) => load(conn, table(n), cols, types, rows(n, cols)) }
      DuckDb.rows(conn.createStatement.executeQuery(sql), schema.fields.map(_.dataType).toVector)
    }
  }

  /** Translate `t` with [[SqlGen]]; `schemaOf` types a term. Every
    * column type is mapped here, so an unsupported one throws a
    * [[MuRaError]] before any query runs.
    */
  def compile(t: Term, schemaOf: Term => StructType): Query = {
    val rels = t.freeRels.toVector.sorted.map(n => n -> schemaOf(Rel(n)))
    val gen = new SqlGen(rels.map { case (n, _) => n -> table(n) }.toMap,
      rels.map { case (n, s) => n -> s.fieldNames.toSeq }.toMap)
    val tables = rels.map { case (n, s) =>
      (n, s.fieldNames.toVector, s.fields.map(f => duckType(f.dataType)).toVector)
    }
    Query(tables, gen.select(t, Map.empty)._1, schemaOf(t))
  }
}

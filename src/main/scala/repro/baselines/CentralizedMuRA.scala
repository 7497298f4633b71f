package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.exec.{DuckDb, EngineConfig, ExecConfig, MuRaEngine, PlanChoice, SqlGen}
import repro.ucrpq.Query2Mu

/** Centralized μ-RA baseline ([11]): the same logical optimizations as
  * Dist-μ-RA, executed on a single-node RDBMS via `WITH RECURSIVE`.
  * Substitution: DuckDB (in-process) instead of PostgreSQL — identical
  * recursive-CTE set semantics (see DESIGN.md §2).
  */
final class CentralizedMuRA(spark: SparkSession,
                            catalog: Map[String, DataFrame],
                            constants: Map[String, Any]) {

  val name = "Centralized mu-RA"

  private val planner = new MuRaEngine(spark, catalog, constants,
    EngineConfig("centralized-planner", RewriteConfig.all, ExecConfig(PlanChoice.ForceGld)))

  /** Force planner statistics collection before timing (see MuRaEngine). */
  def warmup(): Unit = planner.warmup()

  def run(t: Term): DataFrame = {
    val best = planner.optimize(t)
    val relNames = best.freeRels.toSeq.sorted
    val gen = new SqlGen(
      relTable = relNames.map(n => n -> DuckDb.table(n)).toMap,
      relCols = relNames.map(n => n -> catalog(n).columns.toSeq).toMap)
    val (sql, cols) = gen.select(best, Map.empty)
    DuckDb.withConnection { conn =>
      relNames.foreach { n =>
        val df = catalog(n)
        DuckDb.load(conn, DuckDb.table(n), df.columns.toSeq,
          df.schema.fields.map(f => DuckDb.duckType(f.dataType)).toSeq, df.collect().map(_.toSeq))
      }
      val rs = conn.createStatement.executeQuery(s"SELECT DISTINCT * FROM ($sql) AS q")
      val meta = rs.getMetaData
      val fields = (1 to meta.getColumnCount).map { i =>
        val dt = meta.getColumnTypeName(i).toUpperCase match {
          case "BIGINT" | "HUGEINT"      => LongType
          case "INTEGER" | "INT" | "INT4" => IntegerType
          case "DOUBLE"                   => DoubleType
          case _                          => StringType
        }
        StructField(meta.getColumnLabel(i), dt)
      }
      val df = spark.createDataFrame(
        spark.sparkContext.parallelize(DuckDb.rows(rs, fields.map(_.dataType)), 1), StructType(fields))
      df.select(cols.map(org.apache.spark.sql.functions.col): _*)
    }
  }

  def runQuery(query: String): DataFrame =
    run(Query2Mu.translate(query, constants))
}

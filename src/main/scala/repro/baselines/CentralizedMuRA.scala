package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession, ValueRows}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.exec.{DuckDb, Engines, Executor}
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

  /** Dist-μ-RA's planner; only its rewrites and statistics are used. */
  private val planner =
    Engines(Engines.DistMuRA, spark, catalog, constants, spark.sparkContext.defaultParallelism)

  /** Force planner statistics collection before timing (see MuRaEngine). */
  def warmup(): Unit = planner.warmup()

  def run(t: Term): DataFrame = {
    val best = planner.optimize(t)
    val q = DuckDb.compile(best, Executor.schemaOf(_, catalog))
    val rows = q.copy(sql = s"SELECT DISTINCT * FROM (${q.sql}) AS q").run { (n, cols) =>
      catalog(n).select(cols.map(col): _*).collect().map(_.toSeq)
    }
    ValueRows.dataFrame(spark, spark.sparkContext.parallelize(rows, spark.sparkContext.defaultParallelism), q.schema)
  }

  def runQuery(query: String): DataFrame =
    run(Query2Mu.translate(query, constants))
}

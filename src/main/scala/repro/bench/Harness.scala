package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}

/** Benchmark harness: runs one engine invocation with a wall-clock
  * timeout (cancelling the Spark job group and interrupting the driver
  * thread on expiry — the analogue of the paper's 1000 s timeout in
  * Fig. 9) and renders the tables of EXPERIMENTS.md.
  */
object Harness {

  /** One measurement: `timeMs` is None on timeout/failure (the paper
    * reports an absent bar when "the system has crashed").
    */
  final case class Measurement(system: String, qid: String,
                               timeMs: Option[Long], rows: Option[Long], note: String = "") {
    def cell: String = timeMs match {
      case Some(t) => f"${t / 1000.0}%.2f s"
      case None    => if (note.nonEmpty) note else "fail"
    }
  }

  private val pool = Executors.newCachedThreadPool { (r: Runnable) =>
    val t = new Thread(r, "harness-timed"); t.setDaemon(true); t
  }

  /** Default per-run timeout; the paper uses 1000 s on a 160-core
    * cluster — scaled down alongside the datasets.
    */
  val DefaultTimeoutMs: Long = 60000L

  /** Execute `mk` (which must both build and *materialize* the result —
    * we call `.count()` on the returned DataFrame) under a timeout. On
    * expiry the Spark job group is cancelled and the thread running `mk`
    * is interrupted, so driver-side work (plan exploration, `P_gld`'s
    * loop, a local fixpoint) stops too.
    */
  def timed(spark: SparkSession, system: String, qid: String,
            timeoutMs: Long = DefaultTimeoutMs)(mk: => DataFrame): Measurement = {
    val group = s"bench-$system-$qid-${System.nanoTime()}"
    val fut = pool.submit(new Callable[(Long, Long)] {
      def call(): (Long, Long) = {
        spark.sparkContext.setJobGroup(group, s"$system/$qid", interruptOnCancel = true)
        val t0 = System.nanoTime()
        val rows = mk.count()
        ((System.nanoTime() - t0) / 1000000, rows)
      }
    })
    try {
      val (ms, rows) = fut.get(timeoutMs, TimeUnit.MILLISECONDS)
      Measurement(system, qid, Some(ms), Some(rows))
    } catch {
      case _: TimeoutException =>
        spark.sparkContext.cancelJobGroup(group)
        fut.cancel(true)
        Measurement(system, qid, None, None, "timeout")
      case e: ExecutionException =>
        spark.sparkContext.cancelJobGroup(group)
        Measurement(system, qid, None, None, s"fail(${rootCause(e).getClass.getSimpleName})")
    }
  }

  private def rootCause(e: Throwable): Throwable =
    if (e.getCause != null && e.getCause != e) rootCause(e.getCause) else e

  /** A results table, keyed by the first cell of each row. */
  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]], note: String = "") {

    /** Markdown: the title in bold, then the aligned table and the note. */
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => if (i < r.size) r(i).length else 0).max)
      def fmt(r: Seq[String]): String =
        r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      val lines = Seq(s"**$title**", "", fmt(header), sep) ++ rows.map(fmt) ++
        (if (note.nonEmpty) Seq("", note) else Nil)
      lines.mkString("", "\n", "\n")
    }
  }

  /** Pivot measurements into a qid × system table. */
  def pivot(title: String, ms: Seq[Measurement], note: String = ""): Table = {
    val systems = ms.map(_.system).distinct
    val qids = ms.map(_.qid).distinct
    val byKey = ms.map(m => (m.qid, m.system) -> m).toMap
    val rowsByQ = qids.map { q =>
      val cells = systems.map(s => byKey.get((q, s)).map(_.cell).getOrElse("-"))
      val rc = systems.flatMap(s => byKey.get((q, s)).flatMap(_.rows)).headOption
        .map(_.toString).getOrElse("-")
      q +: cells :+ rc
    }
    Table(title, "query" +: systems :+ "result rows", rowsByQ, note)
  }
}

package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed interval. Times are epoch nanoseconds, so the benchmark's
  * own phase spans and Spark's job spans (epoch milliseconds) share one
  * clock. `parent` is -1 for a root span.
  */
final case class Span(id: Int, parent: Int, name: String, query: String, pass: Int,
                      startNs: Long, var endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Task-level counters summed over every task of one job group. */
final class TaskAgg {
  var tasks = 0L
  var stages = 0L
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var resultBytes = 0L
  var shuffleWrite = 0L
  var shuffleRead = 0L
}

final case class JobRec(jobId: Int, group: String, startNs: Long, var endNs: Long)

/** Spark listener that records job spans and task counters per job
  * group. The benchmark sets one job group per (pass, query, phase), so
  * every job and task is attributed to the phase that caused it. Events
  * arrive on Spark's listener thread; readers call [[settle]] first.
  */
final class JobListener extends SparkListener {
  private val jobs = mutable.ArrayBuffer.empty[JobRec]
  private val jobById = mutable.HashMap.empty[Int, JobRec]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val aggs = mutable.HashMap.empty[String, TaskAgg]

  private def msToNs(ms: Long): Long = ms * 1000000L

  private def agg(group: String): TaskAgg = aggs.getOrElseUpdate(group, new TaskAgg)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    val rec = JobRec(e.jobId, group, msToNs(e.time), -1L)
    jobs += rec
    jobById(e.jobId) = rec
    e.stageIds.foreach(s => stageGroup(s) = group)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobById.get(e.jobId).foreach(_.endNs = msToNs(e.time))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageGroup.get(e.stageInfo.stageId).foreach(g => agg(g).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    stageGroup.get(e.stageId).foreach { g =>
      val a = agg(g)
      a.tasks += 1
      if (m != null) {
        a.runMs += m.executorRunTime
        a.cpuNs += m.executorCpuTime
        a.gcMs += m.jvmGCTime
        a.resultBytes += m.resultSize
        a.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        a.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      }
    }
  }

  /** Block until Spark has delivered every event posted so far. */
  def settle(sc: SparkContext): Unit = org.apache.spark.perfbench.BusSync.drain(sc)

  def jobsOf(group: String): Seq[JobRec] = synchronized(jobs.filter(_.group == group).toSeq)

  def aggOf(group: String): TaskAgg = synchronized(aggs.getOrElse(group, new TaskAgg))
}

/** Span recorder kept in memory; written out once when the run ends. */
final class Tracer {
  // epoch-nanosecond offset of System.nanoTime, fixed once per run
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0

  def now: Long = System.nanoTime() + offsetNs

  def add(parent: Int, name: String, query: String, pass: Int, startNs: Long, endNs: Long): Span = {
    val s = Span(nextId, parent, name, query, pass, startNs, endNs)
    nextId += 1
    spans += s
    s
  }

  /** Start a span now; [[close]] ends it. */
  def open(parent: Int, name: String, query: String, pass: Int): Span = {
    val t = now
    add(parent, name, query, pass, t, t)
  }

  def close(s: Span): Span = { s.endNs = now; s }

  /** Time `f` as a span and return both. */
  def span[A](parent: Int, name: String, query: String, pass: Int)(f: => A): (A, Span) = {
    val s = open(parent, name, query, pass)
    val a = f
    (a, close(s))
  }
}

object Trace {
  /** Length of the part of [lo, hi) covered by the union of `ivs`. */
  def covered(lo: Long, hi: Long, ivs: Seq[(Long, Long)]): Long = {
    val clipped = ivs.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }
}

package repro.bench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import repro.SparkSpec

/** The benchmark harness's timeout stops the work it times, not only its
  * Spark jobs.
  */
class HarnessSpec extends SparkSpec {

  test("timed: a body that runs until interrupted times out and its thread stops") {
    val stopped = new CountDownLatch(1)
    val m = Harness.timed(spark, "spin", "q", timeoutMs = 300) {
      try {
        while (!Thread.currentThread().isInterrupted) {}
        throw new InterruptedException("spin interrupted")
      } finally stopped.countDown()
    }
    assert(m.note == "timeout" && m.timeMs.isEmpty)
    assert(stopped.await(5, TimeUnit.SECONDS), "the timed thread was not interrupted")
  }

  test("timed: a body that finishes is measured") {
    val m = Harness.timed(spark, "range", "q", timeoutMs = 60000)(spark.range(10).toDF())
    assert(m.rows.contains(10L) && m.timeMs.nonEmpty)
  }
}

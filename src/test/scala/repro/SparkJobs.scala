package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.repro.ListenerBusSync
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs, or the stages, a piece of driver code submits. */
object SparkJobs {
  def during[A](spark: SparkSession)(f: => A): (A, Int) =
    counting(spark, f)(n => new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { n.incrementAndGet(); () }
    })

  /** The stages submitted, a stage a job skips (its shuffle output
    * already written) not counted.
    */
  def stagesDuring[A](spark: SparkSession)(f: => A): (A, Int) =
    counting(spark, f)(n => new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = { n.incrementAndGet(); () }
    })

  private def counting[A](spark: SparkSession, f: => A)(listen: AtomicInteger => SparkListener): (A, Int) = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val listener = listen(started)
    ListenerBusSync.drain(sc)
    sc.addSparkListener(listener)
    try {
      val a = f
      ListenerBusSync.drain(sc)
      (a, started.get)
    } finally sc.removeSparkListener(listener)
  }
}

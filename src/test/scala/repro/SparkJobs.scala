package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.repro.ListenerBusSync
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a piece of driver code submits. */
object SparkJobs {
  def during[A](spark: SparkSession)(f: => A): (A, Int) = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { started.incrementAndGet(); () }
    }
    ListenerBusSync.drain(sc)
    sc.addSparkListener(listener)
    try {
      val a = f
      ListenerBusSync.drain(sc)
      (a, started.get)
    } finally sc.removeSparkListener(listener)
  }
}

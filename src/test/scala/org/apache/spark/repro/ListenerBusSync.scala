package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Access to Spark's listener bus, which is private to `org.apache.spark`. */
object ListenerBusSync {
  /** Wait until every event posted so far has reached the listeners. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

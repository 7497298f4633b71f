package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Waits until every queued listener event has been delivered, so the
  * benchmark's job counters are complete when a pass is summed. The
  * listener bus is `private[spark]`, hence this package.
  */
object BusSync {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

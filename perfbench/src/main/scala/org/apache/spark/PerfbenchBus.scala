package org.apache.spark

/** Waits until every Spark listener has seen the events posted so far, so
  * counters read after an action include that action's jobs and tasks.
  * `listenerBus` is package-private, hence this object's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

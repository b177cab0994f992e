package org.apache.spark

/** Waits until every Spark listener has seen the events posted so far, so a
  * test reading listener counters after an action sees that action's jobs.
  * `listenerBus` is package-private, hence this object's package.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

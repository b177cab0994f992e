package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Spark work counted from outside `SparkIIM` by a registered listener. */
final class SparkCounters extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleRecords = new AtomicLong
  private val shuffleBytes = new AtomicLong
  private val busyMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleRecords.addAndGet(m.shuffleWriteMetrics.recordsWritten)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      busyMs.addAndGet(m.executorRunTime)
    }
  }

  /** Counter values once every event posted so far has been delivered. */
  def snapshot(spark: SparkSession): Map[String, Double] = {
    PerfbenchBus.drain(spark.sparkContext)
    Map(
      "spark.jobs" -> jobs.get.toDouble,
      "spark.tasks" -> tasks.get.toDouble,
      "spark.shuffle_records" -> shuffleRecords.get.toDouble,
      "spark.shuffle_bytes" -> shuffleBytes.get.toDouble,
      "spark.task_busy_s" -> busyMs.get / 1e3)
  }
}

/** JVM heap, allocation and garbage-collection readings from the platform MXBeans. */
object Jvm {
  private val MiB = 1024.0 * 1024.0
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Runs a full collection and returns the heap still in use after it, in
    * MiB: what the program keeps at that point.
    */
  def retainedMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / MiB
  }

  /** MiB allocated so far by the calling thread. */
  def callerAllocatedMb: Double = threads.getCurrentThreadAllocatedBytes / MiB

  /** (collections, seconds collecting) summed over all collectors. */
  def gc: (Double, Double) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount.max(0L)).sum.toDouble, beans.map(_.getCollectionTime.max(0L)).sum / 1e3)
  }
}

package repro.perfbench

import scala.collection.mutable

/** One timed call into a layer. Spans of one workload repetition share `rep`. */
final case class Span(id: Int, parent: Int, name: String, rep: Int, start: Long, end: Long) {
  def durationNs: Long = end - start
  /** The module the span's name belongs to (`core.lists` → `core`). */
  def layer: String = Trace.layerOf(name)
}

/** Times calls from outside the program, one caller at a time.
  *
  * Every `span` adds its wall time to a per-name total for the current
  * repetition; the end-to-end metrics are read from those totals. When
  * `traced`, each span is also kept in memory with its parent, so layer self
  * times can be derived and the spans written out when the run ends.
  */
final class Trace(val traced: Boolean) {
  private val kept = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private var rep = -1
  private val totals = mutable.LinkedHashMap.empty[String, Long]
  private val counts = mutable.LinkedHashMap.empty[String, Double]

  /** Starts a new repetition; totals and counts restart from zero. */
  def beginRep(id: Int): Unit = { rep = id; totals.clear(); counts.clear() }

  def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      totals(name) = totals.getOrElse(name, 0L) + (t1 - t0)
      if (traced) kept += Span(id, parent, name, rep, t0, t1)
    }
  }

  /** Seconds spent in spans called `name` during this repetition. */
  def seconds(name: String): Double = totals.getOrElse(name, 0L) / 1e9

  /** Seconds spent in spans whose name starts with `prefix`. */
  def secondsPrefixed(prefix: String): Double =
    totals.iterator.collect { case (n, ns) if n.startsWith(prefix) => ns }.sum / 1e9

  def names: Iterable[String] = totals.keys

  def count(name: String, v: Double): Unit = counts(name) = counts.getOrElse(name, 0.0) + v
  def counted: collection.Map[String, Double] = counts

  def spans: Seq[Span] = kept.toSeq

  /** Self time per layer for repetition `id`: each span's duration minus the
    * part covered by its children (children of one caller never overlap).
    */
  def selfSeconds(id: Int): Map[String, Double] = {
    val ofRep = kept.filter(_.rep == id)
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    ofRep.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durationNs)
    ofRep.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => s.durationNs - childNs(s.id)).sum / 1e9
    }
  }

  /** Writes the kept spans as JSON lines. */
  def write(path: java.nio.file.Path): Unit = {
    val lines = kept.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","layer":"${s.layer}",""" +
        s""""rep":${s.rep},"start_ns":${s.start},"end_ns":${s.end}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Trace {
  /** Span names are `<layer>.<what>`; the IIM entry points belong to the
    * module that runs them, the repetition itself to the harness.
    */
  def layerOf(name: String): String = name match {
    case "iim.local" => "core"
    case "iim.spark" => "spark"
    case "rep"       => "harness"
    case n           => n.takeWhile(_ != '.')
  }
}

package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Counts attempted and failed operations. An operation fails if it throws,
  * returns a non-finite value or breaks a correctness check; a failure is
  * recorded and the run goes on.
  */
final class Ops {
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]

  /** Runs one operation whose body returns the problems it found. */
  def op(what: String)(body: => Seq[String]): Unit = {
    attempted += 1
    val problems = try body catch { case NonFatal(e) => Seq(s"threw $e") }
    if (problems.nonEmpty) {
      failed += 1
      if (failures.length < 20) failures += s"$what: ${problems.take(3).mkString("; ")}"
    }
  }

  /** Runs `body`, counting it as one operation; None if it threw. */
  def attempt[T](what: String)(body: => T)(check: T => Seq[String]): Option[T] = {
    var out: Option[T] = None
    op(what) { val v = body; out = Some(v); check(v) }
    out
  }
}

object Checks {
  /** Tolerance between the local and Spark IIM paths, as in the test suite. */
  val SparkTolerance = 1e-9

  def finite(xs: Array[Double]): Seq[String] = {
    val bad = xs.indices.filterNot(i => java.lang.Double.isFinite(xs(i)))
    if (bad.isEmpty) Nil else Seq(s"${bad.length} non-finite values, first at ${bad.head}")
  }

  def finiteMatrix(m: Array[Array[Double]]): Seq[String] = finite(m.flatten)

  def within(a: Array[Double], b: Array[Double], tol: Double, what: String): Seq[String] =
    if (a.length != b.length) Seq(s"$what: ${a.length} vs ${b.length} values")
    else {
      val bad = a.indices.filterNot(i => math.abs(a(i) - b(i)) <= tol)
      if (bad.isEmpty) Nil
      else Seq(s"$what: ${bad.length} values differ by more than $tol, first ${a(bad.head)} vs ${b(bad.head)}")
    }

  def bitwise(a: Array[Double], b: Array[Double], what: String): Seq[String] =
    if (a.length == b.length && a.indices.forall(i =>
          java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)))) Nil
    else Seq(s"$what: not bitwise equal")

  /** A reproduced number pinned to six decimals. */
  def pinned(got: Double, want: Double, what: String): Seq[String] =
    if (math.abs(got - want) <= 5e-7) Nil else Seq(f"$what: $got%.6f, pinned $want%.6f")
}

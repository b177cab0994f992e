package repro.perfbench

/** Order statistics and the result line's JSON. */
object Stats {
  /** Linear-interpolation quantile (q in [0, 1]) of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Samples strictly above the q-quantile. */
  def beyond(xs: Seq[Double], q: Double): Int = { val t = quantile(xs, q); xs.count(_ > t) }

  def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  /** A finite double printed with all its digits. */
  def jsonNumber(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not finite")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }
}

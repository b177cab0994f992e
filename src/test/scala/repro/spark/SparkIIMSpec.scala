package repro.spark

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.core.IIM

/** The Spark IIM path must agree with the in-core reference implementation. */
class SparkIIMSpec extends SparkSpec {

  private def randomData(n: Int, m: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array.fill(m)(rnd.nextDouble() * 10))
  }

  private val p = IIM.Params(k = 4, lMax = 25, step = 2)

  private def assertBitwise(a: Array[Double], b: Array[Double], what: String): Unit = {
    assert(a.length == b.length, s"$what: lengths differ")
    for (i <- a.indices)
      assert(java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)),
        s"$what, entry $i: ${a(i)} vs ${b(i)}")
  }

  test("adaptiveModels equals the local IIM.adaptive models") {
    val data = randomData(80, 3, 1)
    val fi = Array(0, 1); val ti = 2
    val sparkModels = SparkIIM.adaptiveModels(spark, data, fi, ti, p)
    val localModels = IIM.adaptive(data, fi, ti, p)
    assert(sparkModels.length == localModels.length)
    for (i <- data.indices) assertBitwise(sparkModels(i), localModels(i), s"model $i")
  }

  test("adaptiveModels runs exactly two jobs and writes no shuffle records") {
    val data = randomData(80, 3, 8)
    val jobs = new AtomicLong
    val shuffleRecords = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) shuffleRecords.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
    }
    val sc = spark.sparkContext
    TestBus.drain(sc)
    sc.addSparkListener(listener)
    try {
      SparkIIM.adaptiveModels(spark, data, Array(0, 1), 2, p)
      TestBus.drain(sc)
    } finally sc.removeSparkListener(listener)
    assert(jobs.get == 2)
    assert(shuffleRecords.get == 0)
  }

  test("adaptiveModels rejects an empty relation with a clear message") {
    val e = intercept[IllegalArgumentException](
      SparkIIM.adaptiveModels(spark, Array.empty[Array[Double]], Array(0, 1), 2, p))
    assert(e.getMessage.contains("non-empty complete relation"))
  }

  test("adaptiveModels rejects a NaN in the complete relation, naming its row and column") {
    val data = randomData(20, 3, 9)
    data(11)(2) = Double.NaN
    val e = intercept[IllegalArgumentException](SparkIIM.adaptiveModels(spark, data, Array(0, 1), 2, p))
    assert(e.getMessage.contains("row 11, column 2"), e.getMessage)
  }

  test("imputeValues equals the local end-to-end pipeline") {
    val data = randomData(70, 3, 2)
    val fi = Array(0, 1); val ti = 2
    val rnd = new scala.util.Random(3)
    val queries = Array.fill(10)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val viaSpark = SparkIIM.imputeValues(spark, data, fi, ti, queries, p)
    val local = new IIM.LocalImputer(p).imputeAll(data, fi, ti, queries, 0L)
    assertBitwise(viaSpark, local, "imputeValues vs LocalImputer")
  }

  test("impute UDF only touches NULL/NaN targets") {
    val spark0 = spark
    import spark0.implicits._
    val data = randomData(50, 3, 4)
    val fi = Array(0, 1); val ti = 2
    val models = SparkIIM.adaptiveModels(spark, data, fi, ti, p)
    val df = Seq(
      (1, 1.0, 2.0, 42.0),
      (2, 3.0, 4.0, Double.NaN),
      (3, 5.0, 6.0, 13.0),
    ).toDF("id", "f0", "f1", "y")
    val out = SparkIIM.impute(spark, df, Seq("f0", "f1"), "y", data, fi, models, p.k)
      .orderBy("id").collect()
    assert(out(0).getDouble(3) == 42.0)
    assert(!out(1).getDouble(3).isNaN)
    assert(out(2).getDouble(3) == 13.0)
  }

  test("imputed value equals the local Algorithm 2 result for the same models") {
    val spark0 = spark
    import spark0.implicits._
    val data = randomData(50, 3, 5)
    val fi = Array(0, 1); val ti = 2
    val models = IIM.adaptive(data, fi, ti, p)
    val df = Seq((1, 2.5, 7.5, Double.NaN)).toDF("id", "f0", "f1", "y")
    val got = SparkIIM.impute(spark, df, Seq("f0", "f1"), "y", data, fi, models, p.k)
      .collect()(0).getDouble(3)
    val want = IIM.imputeOne(data, models, fi, Array(2.5, 7.5), p.k)
    assert(math.abs(got - want) < 1e-12)
  }

  test("SparkImputer adapter matches LocalImputer on a small problem") {
    val data = randomData(60, 4, 6)
    val fi = Array(0, 1, 2); val ti = 3
    val rnd = new scala.util.Random(7)
    val queries = Array.fill(6)(Array.fill(3)(rnd.nextDouble() * 10))
    val a = new SparkIIM.SparkImputer(spark, p).imputeAll(data, fi, ti, queries, 0L)
    val b = new IIM.LocalImputer(p).imputeAll(data, fi, ti, queries, 0L)
    assertBitwise(a, b, "SparkImputer vs LocalImputer")
  }

  test("SparkImputer reports the paper's method name") {
    assert(new SparkIIM.SparkImputer(spark, p).name == "IIM")
  }
}

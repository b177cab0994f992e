package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, lit}
import repro.apps.Applications
import repro.core.{IIM, Imputer}
import repro.data.{Generators, Missing, Quality}
import repro.ml.Metrics
import repro.spark.SparkIIM
import repro.tables.Methods
import scala.collection.mutable

/** What a workload's calls share: the session, the generated-input seed and
  * the operation counter.
  */
final class Ctx(val spark: SparkSession, val seed: Long, val ops: Ops)

/** A set of generated inputs run through the public entry points. */
trait Workload {
  def name: String
  /** Generator `sizeFactor` the workload runs at. */
  def sizeFactor: Double
  /** Generates the inputs from `ctx.seed`. */
  def prepare(ctx: Ctx, tr: Trace): Unit
  /** One full repetition. With a traced `tr`, IIM runs as its public phases. */
  def rep(ctx: Ctx, tr: Trace, sel: Selection): Unit
  /** Checks that the phase composition equals `LocalImputer` bitwise and
    * returns the Algorithm 2 calls it made, for the latency measurement.
    */
  def checkPhases(ctx: Ctx): Seq[Replay]
  /** The reproduced numbers of the last full repetition, by name. */
  def reproduced: Seq[(String, Double)] = reported.toSeq
  protected val reported = mutable.LinkedHashMap.empty[String, Double]
}

object Workloads {
  /** Pinned numbers hold at this seed only. */
  val PinSeed = 42L

  val all: Seq[Workload] = Seq(
    new TableVWorkload("sn-5k-1d", "SN", sizeFactor = 0.25, pinnedRms = 1.422847),
    new AppsWorkload(sizeFactor = 0.4, pinnedF1 = 0.912381),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))

  /** Times an imputer's `imputeAll` under one span and keeps its outputs. */
  final class Timed(span: String, inner: Imputer, tr: Trace,
                    outputs: mutable.ArrayBuffer[Array[Double]] = mutable.ArrayBuffer.empty) extends Imputer {
    override def name: String = inner.name
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] = {
      val out = tr.span(span)(inner.imputeAll(complete, featIdx, targetIdx, queries, seed))
      outputs += out
      out
    }
  }

  /** `SparkImputer` split at its two public calls: `adaptiveModels`, then the
    * `impute` UDF over the queries, built as `SparkIIM.imputeValues` builds it.
    */
  final class PhasedSpark(spark: SparkSession, p: IIM.Params, tr: Trace,
                          outputs: mutable.ArrayBuffer[Array[Double]]) extends Imputer {
    override def name: String = "IIM"
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] = {
      val out = tr.span("iim.spark") {
        val models = tr.span("spark.adaptive")(SparkIIM.adaptiveModels(spark, complete, featIdx, targetIdx, p))
        tr.span("spark.impute") {
          import spark.implicits._
          val featCols = featIdx.indices.map(a => s"f$a")
          val qDf = spark.createDataset(queries.zipWithIndex.map { case (q, id) => (id, q.toSeq) })
            .toDF("id", "fs")
            .select(col("id") +: featCols.zipWithIndex.map { case (c, a) => col("fs").getItem(a).as(c) }: _*)
            .withColumn("y", lit(Double.NaN))
          val rows = SparkIIM.impute(spark, qDf, featCols, "y", complete, featIdx, models, p.k)
            .select("id", "y").collect()
          val res = new Array[Double](queries.length)
          rows.foreach(r => res(r.getInt(0)) = r.getDouble(1))
          res
        }
      }
      outputs += out
      out
    }
  }

  def localIim(p: IIM.Params, tr: Trace, ops: Ops, sel: Selection,
               outputs: mutable.ArrayBuffer[Array[Double]]): Imputer =
    if (tr.traced) new Timed("harness.iim", new PhasedIim(p, tr, ops, sel), tr, outputs)
    else new Timed("iim.local", new IIM.LocalImputer(p), tr, outputs)

  def sparkIim(spark: SparkSession, p: IIM.Params, tr: Trace,
               outputs: mutable.ArrayBuffer[Array[Double]]): Imputer =
    if (tr.traced) new PhasedSpark(spark, p, tr, outputs)
    else new Timed("iim.spark", new SparkIIM.SparkImputer(spark, p), tr, outputs)

  def sameCalls(a: Seq[Array[Double]], b: Seq[Array[Double]], what: String)(
      cmp: (Array[Double], Array[Double], String) => Seq[String]): Seq[String] =
    if (a.length != b.length) Seq(s"$what: ${a.length} vs ${b.length} calls")
    else a.indices.flatMap(i => cmp(a(i), b(i), s"$what, call $i"))
}

import Workloads._

/** Table V protocol on one dataset: 5% of tuples lose one random attribute;
  * each attribute's queries are one call of IIM (local and Spark) and of
  * every baseline of the dataset's roster; R²_S / R²_H are computed as the
  * table does.
  */
final class TableVWorkload(val name: String, dataset: String, val sizeFactor: Double,
                           pinnedRms: Double) extends Workload {
  private final class Call(val attr: Int, val featIdx: Array[Int], val queries: Array[Array[Double]],
                           val truths: Array[Double])

  private val p = Methods.iimParams(dataset)
  private val baselines = Methods.baselines().filterNot(m => dataset == "SN" && Methods.skippedOnSn(m.name))
  private var problem: Missing.Problem = _
  private var calls: Seq[Call] = Nil

  override def prepare(ctx: Ctx, tr: Trace): Unit = {
    val ds = tr.span("data.generate")(Generators.byName(dataset, ctx.seed, sizeFactor))
    problem = tr.span("data.inject")(Missing.inject(ds.rows, frac = 0.05, seed = ctx.seed + 1))
    calls = problem.byAttr.toSeq.sortBy(_._1).map { case (attr, qs) =>
      val featIdx = (0 until ds.m).filter(_ != attr).toArray
      new Call(attr, featIdx, qs.map(q => featIdx.map(q.row)), qs.map(_.truth))
    }
  }

  override def rep(ctx: Ctx, tr: Trace, sel: Selection): Unit = tr.span("rep") {
    val ops = ctx.ops
    val methodSeed = ctx.seed + 2
    ops.attempt("Quality.r2Avg")(tr.span("data.quality")(Quality.r2Avg(problem))) {
      case (s, h) => Checks.finite(Array(s, h))
    }
    val localOut = mutable.ArrayBuffer.empty[Array[Double]]
    val sparkOut = mutable.ArrayBuffer.empty[Array[Double]]
    val local = localIim(p, tr, ops, sel, localOut)
    val viaSpark = sparkIim(ctx.spark, p, tr, sparkOut)
    calls.foreach { c =>
      def run(label: String, m: Imputer): Unit =
        ops.attempt(s"$label, attribute ${c.attr}")(
          m.imputeAll(problem.complete, c.featIdx, c.attr, c.queries, methodSeed))(Checks.finite)
      run("IIM local", local)
      run("IIM Spark", viaSpark)
      baselines.foreach(m => run(m.name, new Timed(s"baselines.${m.name}", m, tr)))
    }
    ops.op("IIM local vs Spark")(
      sameCalls(localOut.toSeq, sparkOut.toSeq, "IIM local vs Spark")(Checks.within(_, _, Checks.SparkTolerance, _)))
    ops.op("IIM RMS") {
      if (localOut.length != calls.length) Seq("local IIM calls failed")
      else {
        val rms = tr.span("ml.rms")(Metrics.rms(calls.flatMap(_.truths).toArray, localOut.flatten.toArray))
        reported(s"$dataset IIM RMS") = rms
        (if (ctx.seed == PinSeed) Checks.pinned(rms, pinnedRms, s"$dataset IIM RMS") else Nil) ++
          Checks.finite(Array(rms))
      }
    }
  }

  override def checkPhases(ctx: Ctx): Seq[Replay] = {
    val replays = mutable.ArrayBuffer.empty[Replay]
    val phased = new PhasedIim(p, new Trace(false), ctx.ops, new Selection, Some(replays))
    calls.foreach { c =>
      ctx.ops.op(s"IIM phases vs LocalImputer, attribute ${c.attr}") {
        val a = new IIM.LocalImputer(p).imputeAll(problem.complete, c.featIdx, c.attr, c.queries, ctx.seed + 2)
        val b = phased.imputeAll(problem.complete, c.featIdx, c.attr, c.queries, ctx.seed + 2)
        Checks.bitwise(a, b, "phase composition vs LocalImputer")
      }
    }
    replays.toSeq
  }
}

/** Table VII application path on MAM: `Applications.imputeMatrix` (2 passes)
  * with every Table VII method, then the 5-fold kNN-classifier F1 of the
  * filled matrix. Many small `imputeAll` calls, one per attribute and pass.
  */
final class AppsWorkload(val sizeFactor: Double, pinnedF1: Double) extends Workload {
  override val name = "apps-small-many"

  private val dataset = "MAM"
  private val cellProb = 0.15
  private val p = Methods.iimParams(dataset)
  private var holed: Array[Array[Double]] = _
  private var labels: Array[Int] = _

  override def prepare(ctx: Ctx, tr: Trace): Unit = {
    val ds = tr.span("data.generate")(Generators.byName(dataset, ctx.seed, sizeFactor))
    labels = ds.labels.getOrElse(sys.error(s"$dataset must be labelled"))
    holed = tr.span("data.inject")(AppsWorkload.injectCells(ds.rows, cellProb, ctx.seed + 1))
  }

  private def f1(filled: Array[Array[Double]], seed: Long): Double =
    Applications.classificationF1(filled, labels, seed)

  override def rep(ctx: Ctx, tr: Trace, sel: Selection): Unit = tr.span("rep") {
    val ops = ctx.ops
    val localOut = mutable.ArrayBuffer.empty[Array[Double]]
    val sparkOut = mutable.ArrayBuffer.empty[Array[Double]]
    val methods: Seq[(String, Imputer)] =
      Seq("IIM local" -> localIim(p, tr, ops, sel, localOut),
          "IIM Spark" -> sparkIim(ctx.spark, p, tr, sparkOut)) ++
        Methods.withMean().map(m => m.name -> new Timed(s"baselines.${m.name}", m, tr))
    methods.foreach { case (label, m) =>
      ops.op(s"$dataset $label") {
        val filled = tr.span("apps.impute_matrix")(Applications.imputeMatrix(holed, m, ctx.seed + 2))
        val score = tr.span("apps.score")(f1(filled, ctx.seed))
        if (label == "IIM local") reported(s"$dataset IIM F1") = score
        Checks.finiteMatrix(filled) ++
          (if (score >= 0.0 && score <= 1.0) Nil else Seq(s"F1 $score outside [0, 1]")) ++
          (if (label == "IIM local" && ctx.seed == PinSeed) Checks.pinned(score, pinnedF1, s"$dataset IIM F1") else Nil)
      }
    }
    ops.op(s"$dataset IIM local vs Spark")(
      sameCalls(localOut.toSeq, sparkOut.toSeq, "IIM local vs Spark")(Checks.within(_, _, Checks.SparkTolerance, _)))
  }

  override def checkPhases(ctx: Ctx): Seq[Replay] = {
    val replays = mutable.ArrayBuffer.empty[Replay]
    val phased = new PhasedIim(p, new Trace(false), ctx.ops, new Selection, Some(replays))
    ctx.ops.op(s"$dataset IIM phases vs LocalImputer") {
      val a = Applications.imputeMatrix(holed, new IIM.LocalImputer(p), ctx.seed + 2)
      val b = Applications.imputeMatrix(holed, phased, ctx.seed + 2)
      Checks.bitwise(a.flatten, b.flatten, "phase composition vs LocalImputer")
    }
    replays.toSeq
  }
}

object AppsWorkload {
  /** MCAR cells as `Missing.injectCells` makes them (each cell lost with
    * probability `cellProb`, every row keeps an observed cell), except that
    * the number of complete rows is fixed at its expected value, so every
    * seed gives IIM and the baselines a complete relation of the same size.
    */
  def injectCells(rows: Array[Array[Double]], cellProb: Double, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    val m = rows(0).length
    val complete = rnd.shuffle(rows.indices.toList)
      .take(math.round(rows.length * math.pow(1 - cellProb, m)).toInt).toSet
    rows.indices.map { i =>
      val c = rows(i).clone()
      if (!complete(i)) {
        var holes = Seq.empty[Int]
        while (holes.isEmpty || holes.length == m) holes = (0 until m).filter(_ => rnd.nextDouble() < cellProb)
        holes.foreach(a => c(a) = Double.NaN)
      }
      c
    }.toArray
  }
}

package repro.perfbench

import repro.core.{IIM, Imputer}
import repro.linalg.LinAlg.Vec
import scala.collection.mutable

/** A recorded Algorithm 2 workload: queries, the models they use and the
  * values `LocalImputer` returned for them.
  */
final case class Replay(complete: Array[Array[Double]], featIdx: Array[Int], models: Array[Vec],
                        k: Int, queries: Array[Array[Double]], expected: Array[Double])

/** Selection facts of one repetition, pooled over its IIM calls. */
final class Selection {
  val samples = mutable.ArrayBuffer.empty[Double]
  val ellStar = mutable.ArrayBuffer.empty[Double]
  var tuples = 0L
  var fallbacks = 0L
  var validated = 0L
}

/** IIM run as the five public phases `IIM.adaptive` and `LocalImputer` call,
  * in the same order and with the same arguments, one span per phase.
  */
final class PhasedIim(p: IIM.Params, tr: Trace, ops: Ops, sel: Selection,
                      replays: Option[mutable.ArrayBuffer[Replay]] = None) extends Imputer {
  override def name: String = "IIM"

  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    var lists: Array[Array[Int]] = null
    var models: Array[Array[Vec]] = null
    var cost: Array[Array[Double]] = null
    var chosen: Array[Vec] = null
    val ls = IIM.ellCandidates(complete.length, p.lMax, p.step)
    val out = tr.span("iim.local") {
      val limit = math.max(ls.last, p.kvEff + 1)
      lists = tr.span("core.lists")(IIM.neighborLists(complete, featIdx, limit))
      models = tr.span("core.candidates")(IIM.candidateModels(complete, featIdx, targetIdx, lists, ls, p.alpha))
      cost = tr.span("core.validation")(
        IIM.validationCosts(complete, featIdx, targetIdx, lists, models, ls, p.kvEff))
      chosen = tr.span("core.select")(IIM.selectModels(models, cost))
      tr.span("core.impute")(queries.map(q => IIM.imputeOne(complete, chosen, featIdx, q, p.k)))
    }
    tr.span("harness.counts") {
      ops.op("IIM selection counts")(PhasedIim.count(tr, sel, lists, models, cost, chosen, ls, p.kvEff))
    }
    replays.foreach(_ += Replay(complete, featIdx, chosen, p.k, queries, out))
    out
  }
}

object PhasedIim {
  /** Derives the work counts and the ℓ* / fallback / validation-sample facts
    * from the lists and cost matrix the phases returned, and checks that
    * fallbacks + validated = n, that the ℓ* histogram holds n tuples and that
    * `selectModels` picked the model the cost argmin names.
    */
  def count(tr: Trace, sel: Selection, lists: Array[Array[Int]], models: Array[Array[Vec]],
            cost: Array[Array[Double]], chosen: Array[Vec], ls: Array[Int], kv: Int): Seq[String] = {
    val n = lists.length
    // Validation samples per tuple i: validation tuples j that take i among
    // their kv nearest others (the loop of IIM.validationCosts).
    val samples = new Array[Int](n)
    var pairs = 0L
    var j = 0
    while (j < n) {
      val list = lists(j)
      var taken = 0; var q = 0
      while (q < list.length && taken < kv) {
        if (list(q) != j) { samples(list(q)) += 1; taken += 1 }
        q += 1
      }
      pairs += taken
      j += 1
    }
    val hist = mutable.TreeMap.empty[Int, Int]
    var fallbacks = 0; var wrongPick = 0
    var i = 0
    while (i < n) {
      val row = cost(i)
      val any = row.exists(_ > 0.0)
      var best = 0; var li = 1
      while (li < row.length) { if (row(li) < row(best)) best = li; li += 1 }
      val pick = if (any) best else row.length - 1
      if (!any) fallbacks += 1
      if (!(chosen(i) eq models(i)(pick))) wrongPick += 1
      hist(ls(pick)) = hist.getOrElse(ls(pick), 0) + 1
      sel.ellStar += ls(pick)
      i += 1
    }
    val validated = samples.count(_ > 0)
    samples.foreach(s => sel.samples += s)
    sel.tuples += n; sel.fallbacks += fallbacks; sel.validated += validated
    tr.count("core.lists.entries", lists.iterator.map(_.length.toLong).sum.toDouble)
    tr.count("core.candidates.models", n.toDouble * ls.length)
    tr.count("core.validation.pairs", pairs.toDouble)
    val problems = Seq.newBuilder[String]
    if (fallbacks + validated != n) problems += s"fallbacks $fallbacks + validated $validated != n $n"
    if (hist.values.sum != n) problems += s"ℓ* histogram mass ${hist.values.sum} != n $n"
    if (wrongPick > 0) problems += s"$wrongPick tuples' selected model is not the cost argmin"
    problems.result()
  }
}

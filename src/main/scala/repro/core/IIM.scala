package repro.core

import repro.linalg.LinAlg.Vec

/** Imputation via Individual Models — the paper's contribution.
  *
  * Learning (Algorithm 1) fits one ridge model per complete tuple over its ℓ
  * nearest learning neighbours; adaptive learning (Algorithm 3) selects a
  * per-tuple ℓ* by validating candidate models against the complete tuples
  * they would impute, using the incremental normal-equation update of
  * Proposition 3; imputation (Algorithm 2) aggregates the k imputation
  * neighbours' model predictions with the mutual-vote weights of
  * Formulas 10–12.
  */
object IIM {

  /** @param k     number of imputation neighbours (Algorithm 2)
    * @param alpha ridge regularisation α of Formula 5
    * @param lMax  cap on the learning-neighbour sweep of Algorithm 3; the
    *              paper sweeps ℓ to n, which is O(n³) — lMax bounds it for
    *              tractability (Fig. 11 shows optimal ℓ ≪ n)
    * @param step  stepping h of §V-A2: candidate ℓ ∈ {1, 1+h, 1+2h, …}
    * @param kv    validation-neighbour count of Algorithm 3 line 4. The paper
    *              uses k there; with noisy data each tuple then collects only
    *              ~k cost samples and the argmin over many ℓ candidates
    *              overfits validation noise. A wider validation neighbourhood
    *              (default max(15, 3k)) smooths cost[i][ℓ] without changing
    *              the imputation phase — documented deviation (DESIGN.md §5).
    */
  final case class Params(k: Int = 5, alpha: Double = 1e-3, lMax: Int = 100, step: Int = 1,
                          kv: Int = 0) {
    /** Effective validation-neighbour count. */
    def kvEff: Int = if (kv > 0) kv else math.max(15, 3 * k)
  }

  /** §III-A2: with a single learning neighbour the model is the constant
    * φ = (t_i[A_m], 0, …, 0).
    */
  def singleNeighborModel(nFeatures: Int, y: Double): Vec = {
    val phi = new Array[Double](nFeatures + 1)
    phi(0) = y
    phi
  }

  /** Candidate ℓ values {1, 1+h, …} capped at min(n, lMax); always non-empty. */
  def ellCandidates(n: Int, lMax: Int, step: Int): Array[Int] = {
    require(step >= 1, "stepping h must be >= 1")
    val top = math.min(n, math.max(1, lMax))
    Iterator.iterate(1)(_ + step).takeWhile(_ <= top).toArray
  }

  /** Full sorted learning-neighbour list (self included, at distance 0) for
    * every tuple, truncated at `limit` entries.
    */
  def neighborLists(data: Array[Array[Double]], featIdx: Array[Int], limit: Int): Array[Array[Int]] = {
    val n = data.length
    val c = math.min(limit, n)
    Array.tabulate(n) { i =>
      Neighbors.nearest(data, featIdx, Neighbors.project(data(i), featIdx), c)
    }
  }

  /** Algorithm 1 for one tuple and one ℓ, from scratch: a ridge model over
    * the first `ell` entries of its neighbour list.
    */
  private def fitOver(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                      list: Array[Int], ell: Int, alpha: Double): Vec = {
    if (ell <= 1) singleNeighborModel(featIdx.length, data(list(0))(targetIdx))
    else {
      val st = new Ridge.State(featIdx.length, alpha)
      var p = 0
      while (p < ell) {
        val row = data(list(p))
        st.add(Neighbors.project(row, featIdx), row(targetIdx))
        p += 1
      }
      st.solve()
    }
  }

  /** Candidate models for every tuple and candidate ℓ, computed with the
    * incremental update of Proposition 3: one pass per tuple, appending
    * neighbours in distance order and solving at each candidate ℓ.
    * Result is indexed `[tuple][candidateIdx]`; Algorithm 1 at a single ℓ is
    * `ls = Array(ℓ)`.
    */
  def candidateModels(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                      lists: Array[Array[Int]], ls: Array[Int], alpha: Double): Array[Array[Vec]] =
    Array.tabulate(data.length)(i => candidateModelsFor(data, featIdx, targetIdx, lists(i), ls, alpha))

  /** Incremental per-tuple candidate models (shared by local and Spark paths). */
  def candidateModelsFor(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         list: Array[Int], ls: Array[Int], alpha: Double): Array[Vec] = {
    val st = new Ridge.State(featIdx.length, alpha)
    var pos = 0
    val out = new Array[Vec](ls.length)
    var li = 0
    while (li < ls.length) {
      val ell = math.min(ls(li), list.length)
      while (pos < ell) {
        val row = data(list(pos))
        st.add(Neighbors.project(row, featIdx), row(targetIdx))
        pos += 1
      }
      out(li) = if (ell <= 1) singleNeighborModel(featIdx.length, data(list(0))(targetIdx)) else st.solve()
      li += 1
    }
    out
  }

  /** Candidate models recomputed from scratch for every ℓ (Algorithm 1 called
    * per ℓ, as Algorithm 3 is written) — the baseline that validates the
    * incremental path and anchors the Table III timing comparison.
    */
  def candidateModelsNaive(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           lists: Array[Array[Int]], ls: Array[Int], alpha: Double): Array[Array[Vec]] = {
    val n = data.length
    val out = Array.fill(n)(new Array[Vec](ls.length))
    var li = 0
    while (li < ls.length) {
      var i = 0
      while (i < n) {
        val ell = math.min(ls(li), lists(i).length)
        out(i)(li) = fitOver(data, featIdx, targetIdx, lists(i), ell, alpha)
        i += 1
      }
      li += 1
    }
    out
  }

  /** Validation costs of Algorithm 3 (lines 3–7): `cost[i][li]` accumulates
    * the squared error of tuple i's li-th candidate model when imputing every
    * validation tuple j that has i among its k imputation neighbours.
    */
  def validationCosts(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                      lists: Array[Array[Int]], models: Array[Array[Vec]],
                      ls: Array[Int], k: Int): Array[Array[Double]] = {
    val n = data.length
    val cost = Array.fill(n)(new Array[Double](ls.length))
    var j = 0
    while (j < n) {
      val xF = Neighbors.project(data(j), featIdx)
      val v = data(j)(targetIdx)
      // k imputation neighbours of validation tuple j, excluding j itself:
      // the precomputed list starts with j (distance 0), so skip it.
      val list = lists(j)
      var taken = 0; var p = 0
      while (p < list.length && taken < k) {
        val i = list(p)
        if (i != j) {
          var li = 0
          while (li < ls.length) {
            val d = v - Ridge.predict(models(i)(li), xF)
            cost(i)(li) += d * d
            li += 1
          }
          taken += 1
        }
        p += 1
      }
      j += 1
    }
    cost
  }

  /** Argmin over candidate ℓ per tuple (Algorithm 3 lines 8–10). Tuples with
    * an all-zero cost row were never anyone's imputation neighbour; they fall
    * back to the largest candidate ℓ (under-fit-safe, GLR-like).
    */
  def selectModels(models: Array[Array[Vec]], cost: Array[Array[Double]]): Array[Vec] =
    Array.tabulate(models.length)(i => models(i)(selectIndex(cost(i))))

  /** The candidate index [[selectModels]] keeps for one tuple's cost row. */
  private def selectIndex(row: Array[Double]): Int = {
    var best = 0; var bestC = row(0); var any = row(0) > 0.0
    var li = 1
    while (li < row.length) {
      if (row(li) > 0.0) any = true
      if (row(li) < bestC) { bestC = row(li); best = li }
      li += 1
    }
    if (any) best else row.length - 1
  }

  /** Reverse validation lists: `R(i)` holds, ascending, every validation
    * tuple j that counts i among the first `kv` non-self entries of
    * `lists(j)` — the tuples [[validationCosts]] charges to i's models.
    */
  def reverseLists(lists: Array[Array[Int]], kv: Int): Array[Array[Int]] = {
    val n = lists.length
    // Calls f(i) for each validation neighbour i of tuple j, in list order.
    def taken(j: Int)(f: Int => Unit): Unit = {
      val list = lists(j)
      var count = 0; var p = 0
      while (p < list.length && count < kv) {
        if (list(p) != j) { f(list(p)); count += 1 }
        p += 1
      }
    }
    val size = new Array[Int](n)
    for (j <- 0 until n) taken(j)(i => size(i) += 1)
    val rev = size.map(new Array[Int](_))
    java.util.Arrays.fill(size, 0)
    for (j <- 0 until n) taken(j) { i => rev(i)(size(i)) = j; size(i) += 1 }
    rev
  }

  /** Tuple i's row of [[validationCosts]] from its own candidate `models`
    * and its reverse list `rev`: the sums run over `rev` in ascending j, the
    * order [[validationCosts]] adds them in, so the rows agree bitwise.
    */
  def validationCostsFor(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         models: Array[Vec], rev: Array[Int]): Array[Double] = {
    val cost = new Array[Double](models.length)
    var p = 0
    while (p < rev.length) {
      val row = data(rev(p))
      val xF = Neighbors.project(row, featIdx)
      val v = row(targetIdx)
      var li = 0
      while (li < models.length) {
        val d = v - Ridge.predict(models(li), xF)
        cost(li) += d * d
        li += 1
      }
      p += 1
    }
    cost
  }

  /** Algorithm 3 for one tuple: its candidate models (Proposition 3), their
    * costs on its reverse list `rev`, and the model [[selectModels]] would
    * keep — bitwise the same. Local and Spark IIM both run it per tuple.
    */
  def adaptiveFor(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                  list: Array[Int], rev: Array[Int], ls: Array[Int], alpha: Double): Vec = {
    val models = candidateModelsFor(data, featIdx, targetIdx, list, ls, alpha)
    models(selectIndex(validationCostsFor(data, featIdx, targetIdx, models, rev)))
  }

  /** Candidate ℓ values and the forward-list length Algorithm 3 needs:
    * ℓ up to the largest candidate, plus self and `kv` validation neighbours.
    * Rejects a complete relation IIM cannot learn from: an empty one, a
    * target among the features, or a non-finite cell in a used column.
    */
  def sweep(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
            p: Params): (Array[Int], Int) = {
    require(data.nonEmpty, "IIM needs a non-empty complete relation to learn from")
    require(!featIdx.contains(targetIdx), s"target column $targetIdx is also a feature column")
    val used = featIdx :+ targetIdx
    for (i <- data.indices; c <- used)
      require(java.lang.Double.isFinite(data(i)(c)),
        s"complete relation has non-finite value ${data(i)(c)} at row $i, column $c")
    val ls = ellCandidates(data.length, p.lMax, p.step)
    (ls, math.max(ls.last, p.kvEff + 1))
  }

  /** Algorithm 3 end-to-end with incremental computation, one tuple at a
    * time: forward lists, their reverse, then [[adaptiveFor]] per tuple.
    */
  def adaptive(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int, p: Params): Array[Vec] = {
    val (ls, limit) = sweep(data, featIdx, targetIdx, p)
    val lists = neighborLists(data, featIdx, limit)
    val rev = reverseLists(lists, p.kvEff)
    Array.tabulate(data.length)(i => adaptiveFor(data, featIdx, targetIdx, lists(i), rev(i), ls, p.alpha))
  }

  /** Formulas 10–12: candidates vote for each other; weight ∝ 1 / Σ_j |c_i − c_j|. */
  def combine(cands: Array[Double]): Double = {
    val k = cands.length
    require(k > 0, "no imputation candidates")
    if (k == 1) return cands(0)
    val c = new Array[Double](k)
    var i = 0
    while (i < k) {
      var s = 0.0; var j = 0
      while (j < k) { s += math.abs(cands(i) - cands(j)); j += 1 }
      c(i) = s
      i += 1
    }
    // All candidates (numerically) identical → any of them.
    if (c.forall(_ <= 1e-12)) return cands(0)
    var wSum = 0.0; var acc = 0.0
    i = 0
    while (i < k) {
      val w = 1.0 / math.max(c(i), 1e-12)
      wSum += w; acc += w * cands(i)
      i += 1
    }
    acc / wSum
  }

  /** Algorithm 2: impute one query (projected features) from the k nearest
    * complete tuples' individual models.
    */
  def imputeOne(data: Array[Array[Double]], models: Array[Vec], featIdx: Array[Int],
                qF: Array[Double], k: Int): Double = {
    val nn = Neighbors.nearest(data, featIdx, qF, k)
    combine(nn.map(i => Ridge.predict(models(i), qF)))
  }

  /** [[Imputer]] adapter running the full local pipeline. */
  final class LocalImputer(p: Params) extends Imputer {
    override def name: String = "IIM"
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] = {
      val models = adaptive(complete, featIdx, targetIdx, p)
      queries.map(q => imputeOne(complete, models, featIdx, q, p.k))
    }
  }
}

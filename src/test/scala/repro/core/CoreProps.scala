package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.baselines.GlrImputer

/** ScalaCheck properties for the core invariants (run by sbt's ScalaCheck
  * framework alongside the ScalaTest suites).
  */
object CoreProps extends Properties("core") {

  private val smallData: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(8, 40)
    seed <- Gen.choose(0L, 10000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10, rnd.nextDouble() * 10))
  }

  private val fi = Array(0, 1)
  private val ti = 2

  property("combine lies within the candidate hull") = Prop.forAll(
    Gen.nonEmptyListOf(Gen.choose(-100.0, 100.0))) { cs =>
    val arr = cs.toArray
    val got = IIM.combine(arr)
    got >= arr.min - 1e-9 && got <= arr.max + 1e-9
  }

  property("combine weights sum to one (affine invariance under shift)") = Prop.forAll(
    Gen.listOfN(4, Gen.choose(-50.0, 50.0)), Gen.choose(-10.0, 10.0)) { (cs, shift) =>
    val arr = cs.toArray
    val a = IIM.combine(arr)
    val b = IIM.combine(arr.map(_ + shift))
    math.abs((a + shift) - b) < 1e-6
  }

  property("nearest returns sorted distances") = Prop.forAll(smallData, Gen.choose(1, 8)) { (data, k) =>
    val q = Array(5.0, 5.0)
    val nn = Neighbors.nearest(data, fi, q, k)
    val ds = nn.map(i => Neighbors.distance(data(i), fi, q))
    ds.zip(ds.drop(1)).forall { case (a, b) => a <= b }
  }

  property("learnFixed(ℓ=n) gives every tuple the global model") = Prop.forAll(smallData) { data =>
    val models = IIMSpec.learnFixed(data, fi, ti, data.length, 1e-3)
    val glr = GlrImputer.fit(data, fi, ti, 1e-3)
    models.forall(m => m.indices.forall(j => math.abs(m(j) - glr(j)) < 1e-6))
  }

  property("incremental equals from-scratch candidate models") = Prop.forAll(smallData) { data =>
    val ls = IIM.ellCandidates(data.length, 20, 2)
    val lists = IIM.neighborLists(data, fi, math.max(ls.last, 4))
    val a = IIM.candidateModels(data, fi, ti, lists, ls, 1e-3)
    val b = IIM.candidateModelsNaive(data, fi, ti, lists, ls, 1e-3)
    data.indices.forall(i => ls.indices.forall(li => a(i)(li).sameElements(b(i)(li))))
  }

  // Coarse integer features give duplicate rows (distance ties); n runs
  // from 1, below and above the validation-neighbour count kv.
  private val tiedData: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(1, 30)
    levels <- Gen.oneOf(2, 4, 1000)
    seed <- Gen.choose(0L, 10000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array(rnd.nextInt(levels).toDouble, rnd.nextInt(levels).toDouble, rnd.nextDouble() * 10))
  }

  property("fused adaptive equals selectModels over all candidates and costs, bitwise") = Prop.forAll(
    Gen.oneOf(smallData, tiedData), Gen.choose(1, 3), Gen.choose(1, 40), Gen.choose(1, 3)) { (data, k, kv, step) =>
    val p = IIM.Params(k = k, lMax = 12, step = step, kv = kv)
    val (ls, limit) = IIM.sweep(data, fi, ti, p)
    val lists = IIM.neighborLists(data, fi, limit)
    val models = IIM.candidateModels(data, fi, ti, lists, ls, p.alpha)
    val cost = IIM.validationCosts(data, fi, ti, lists, models, ls, kv)
    val want = IIM.selectModels(models, cost)
    val got = IIM.adaptive(data, fi, ti, p)
    val rev = IIM.reverseLists(lists, kv)
    def bits(m: Array[Double]) = m.map(java.lang.Double.doubleToRawLongBits).toSeq
    got.length == want.length && got.indices.forall(i => bits(got(i)) == bits(want(i))) &&
      data.indices.forall(i => bits(IIM.validationCostsFor(data, fi, ti, models(i), rev(i))) == bits(cost(i)))
  }

  property("Ridge incremental state equals batch fit") = Prop.forAll(smallData) { data =>
    val xs = data.map(r => Array(r(0), r(1)))
    val ys = data.map(_(2))
    val st = new Ridge.State(2, 1e-3)
    xs.indices.foreach(i => st.add(xs(i), ys(i)))
    st.solve().sameElements(Ridge.fit(xs, ys, 1e-3))
  }

  property("imputeOne is reproducible") = Prop.forAll(smallData) { data =>
    val models = IIMSpec.learnFixed(data, fi, ti, math.min(5, data.length), 1e-3)
    val q = Array(3.3, 6.6)
    IIM.imputeOne(data, models, fi, q, 3) == IIM.imputeOne(data, models, fi, q, 3)
  }
}

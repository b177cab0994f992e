package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RidgeSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean = math.abs(a - b) <= eps

  test("fit recovers an exact linear relation (α→0)") {
    // y = 2 + 3x over 5 points.
    val xs = Array(0.0, 1.0, 2.0, 3.0, 4.0).map(Array(_))
    val ys = xs.map(x => 2.0 + 3.0 * x(0))
    val phi = Ridge.fit(xs, ys, 1e-9)
    assert(approx(phi(0), 2.0) && approx(phi(1), 3.0))
  }

  test("fit recovers a multivariate linear relation") {
    val rnd = new scala.util.Random(7)
    val xs = Array.fill(50)(Array(rnd.nextDouble() * 4, rnd.nextDouble() * 4, rnd.nextDouble() * 4))
    val ys = xs.map(x => 1.5 - 2.0 * x(0) + 0.5 * x(1) + 3.0 * x(2))
    val phi = Ridge.fit(xs, ys, 1e-9)
    assert(approx(phi(0), 1.5, 1e-5) && approx(phi(1), -2.0, 1e-5) &&
      approx(phi(2), 0.5, 1e-5) && approx(phi(3), 3.0, 1e-5))
  }

  test("large α shrinks coefficients toward zero") {
    val xs = Array(0.0, 1.0, 2.0, 3.0).map(Array(_))
    val ys = xs.map(x => 10.0 * x(0))
    val small = Ridge.fit(xs, ys, 1e-9)(1)
    val big = Ridge.fit(xs, ys, 100.0)(1)
    assert(math.abs(big) < math.abs(small))
  }

  test("predict applies intercept plus weights") {
    assert(Ridge.predict(Array(1.0, 2.0, -1.0), Array(3.0, 4.0)) == 1.0 + 6.0 - 4.0)
  }

  test("incremental State equals batch fit bitwise") {
    val rnd = new scala.util.Random(13)
    val xs = Array.fill(40)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val ys = xs.map(x => 2.0 * x(0) - x(1) + rnd.nextGaussian() * 0.1)
    val st = new Ridge.State(2, 1e-3)
    xs.indices.foreach(i => st.add(xs(i), ys(i)))
    val inc = st.solve()
    val batch = Ridge.fit(xs, ys, 1e-3)
    assert(inc.sameElements(batch))
  }

  test("State accumulates XᵀX and XᵀY exactly (paper Example 6, U/V at ℓ=3)") {
    // t1..t3 of Figure 1: x = 0, 0.8, 1.9; y = 5.8, 4.6, 3.8.
    val st = new Ridge.State(1, 1e-6)
    st.add(Array(0.0), 5.8); st.add(Array(0.8), 4.6); st.add(Array(1.9), 3.8)
    assert(approx(st.u(0)(0), 3.0) && approx(st.u(0)(1), 2.7) &&
      approx(st.u(1)(0), 2.7) && approx(st.u(1)(1), 4.25))
    assert(approx(st.v(0), 14.2) && approx(st.v(1), 10.9))
    val phi3 = st.solve()
    assert(approx(phi3(0), 5.66, 0.01) && approx(phi3(1), -1.03, 0.01))
  }

  test("paper Example 6: incrementally adding t4 yields φ^(4) = (5.56, -0.87)") {
    val st = new Ridge.State(1, 1e-6)
    st.add(Array(0.0), 5.8); st.add(Array(0.8), 4.6); st.add(Array(1.9), 3.8)
    st.add(Array(2.9), 3.2) // the increment X^(3,1) = (1, 2.9), Y^(3,1) = (3.2)
    val phi4 = st.solve()
    assert(approx(phi4(0), 5.56, 0.01) && approx(phi4(1), -0.87, 0.01))
  }

  test("State rejects wrong feature arity") {
    val st = new Ridge.State(2, 1e-3)
    assertThrows[IllegalArgumentException](st.add(Array(1.0), 2.0))
  }

  test("fit rejects empty input") {
    assertThrows[IllegalArgumentException](Ridge.fit(Array.empty[Array[Double]], Array.empty[Double], 1e-3))
  }

  test("α regularisation makes an underdetermined system solvable") {
    // 1 observation, 2 features: XᵀX is singular; ridge still solves.
    val phi = Ridge.fit(Array(Array(1.0, 2.0)), Array(3.0), 1e-2)
    assert(phi.length == 3 && phi.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("fitWeighted with uniform weights equals unweighted fit") {
    val rnd = new scala.util.Random(5)
    val xs = Array.fill(20)(Array(rnd.nextDouble() * 3))
    val ys = xs.map(x => 4.0 - x(0) + rnd.nextGaussian() * 0.05)
    val w = Array.fill(20)(1.0)
    val a = Ridge.fit(xs, ys, 1e-3)
    val b = Ridge.fitWeighted(xs, ys, w, 1e-3)
    assert(a.sameElements(b))
  }

  test("fitWeighted zero-weight rows are ignored") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0), Array(100.0))
    val ys = Array(1.0, 2.0, 3.0, -500.0) // outlier with weight 0
    val w = Array(1.0, 1.0, 1.0, 0.0)
    val phi = Ridge.fitWeighted(xs, ys, w, 1e-9)
    assert(approx(phi(0), 1.0, 1e-5) && approx(phi(1), 1.0, 1e-5))
  }

  test("fitWeighted down-weights rows smoothly") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val ys = Array(0.0, 1.0, 2.0, 30.0)
    val full = Ridge.fitWeighted(xs, ys, Array(1.0, 1.0, 1.0, 1.0), 1e-6)(1)
    val damped = Ridge.fitWeighted(xs, ys, Array(1.0, 1.0, 1.0, 0.01), 1e-6)(1)
    assert(damped < full) // outlier pulls slope up less when down-weighted
  }
}

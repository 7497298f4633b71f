package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** The cost model must rank plans the way the paper's optimizer does:
  * filtered/pushed plans beat unpushed ones, merged/pushed C6 plans beat
  * join-of-closures.
  */
class CostSpec extends AnyFunSuite {

  private val stats = Map(
    "E" -> RelStats(10000, Map("src" -> 2000.0, "trg" -> 2000.0)),
    "S" -> RelStats(50, Map("src" -> 10.0, "trg" -> 50.0)),
    "G" -> RelStats(20000, Map("src" -> 3000.0, "pred" -> 10.0, "trg" -> 3000.0)))

  test("filter reduces estimated cardinality by the distinct count") {
    val e = Cost.estimate(Filter(EqConst("src", 1L), Rel("E")), stats, cat)
    assert(math.abs(e.rows - 10000.0 / 2000.0) < 1e-6)
  }

  test("join estimate uses the containment assumption") {
    val t = Term.compose(Rel("S"), Rel("E"))
    val e = Cost.estimate(t, stats, cat)
    assert(e.rows > 0 && e.rows < 10000 * 50)
  }

  test("fixpoint estimate grows with the constant part") {
    val small = Fix("X", Union(Filter(EqConst("src", 1L), Rel("E")),
      Term.unionBranches(closureE.body).find(_.usesRec("X")).get))
    val big = closureE
    val es = Cost.estimate(small, stats, cat)
    val eb = Cost.estimate(big, stats, cat)
    assert(es.rows < eb.rows)
    assert(es.cost < eb.cost)
  }

  test("pushed-filter plan is cheaper than filter-after-fixpoint (C2/C3)") {
    val unpushed = Filter(EqConst("src", 1L), closureE)
    val pushedT = Fix("X", Union(Filter(EqConst("src", 1L), Rel("E")),
      Term.unionBranches(closureE.body).find(_.usesRec("X")).get))
    val cu = Cost.estimate(unpushed, stats, cat).cost
    val cp = Cost.estimate(pushedT, stats, cat).cost
    assert(cp < cu, s"pushed=$cp unpushed=$cu")
  }

  test("cost-based selection picks a pushed plan for a filtered closure") {
    val t = Filter(EqConst("trg", 6L), closureE)
    val plans = Rewriter.explore(t, cat, RewriteConfig.all)
    val best = Cost.best(plans, stats, cat)
    // the best plan must contain the filter inside a fixpoint's base
    def hasF(v: Term): Boolean = v match {
      case Filter(EqConst("trg", _), _) => true
      case _: Antijoin | _: Fix         => false
      case _                            => v.children.exists(hasF)
    }
    def pushed(u: Term): Boolean = u match {
      case f: Fix => Term.unionBranches(f.body).exists(b => !b.usesRec(f.x) && hasF(b))
      case _: Filter | _: AntiProj | _: Rename => u.children.exists(pushed)
      case _ => false
    }
    assert(pushed(best), best.pretty)
  }

  test("estimate handles unknown relations with defaults") {
    val e = Cost.estimate(Rel("E"), Map.empty, cat)
    assert(e.rows > 0)
  }

  test("best survives plans that fail estimation") {
    val good = Rel("E")
    val t = Cost.best(Seq(good), stats, cat)
    assert(t == good)
  }
}

package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._
import repro.queries.PaperQueries
import repro.ucrpq.{QConst, Query2Mu, UcrpqParser}

/** The cost model must rank plans the way the paper's optimizer does:
  * filtered/pushed plans beat unpushed ones, merged/pushed C6 plans beat
  * join-of-closures. Analyses kept in a [[Memo]] equal fresh ones.
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

  // ------------------------------------------------------------ the memo

  /** Every closed subterm of `t`, `t` included. */
  private def closedSubterms(t: Term): Seq[Term] =
    (if (t.freeRecVars.isEmpty) Seq(t) else Seq.empty) ++ t.children.flatMap(closedSubterms)

  /** The sort, estimate and stable columns `m` gives each closed subterm
    * of `t` equal a computation under a fresh memo.
    */
  private def assertMemoSound(t: Term, m: Memo): Unit = closedSubterms(t).foreach { u =>
    assert(Analysis.sort(u, m, Map.empty) == Analysis.sort(u, m.cat), u.pretty)
    assert(Cost.estimate(u, m) == Cost.estimate(u, m.stats, m.cat), u.pretty)
    u match {
      case f: Fix => assert(Stabilizer.stableCols(f, m) == Stabilizer.stableCols(f, m.cat), u.pretty)
      case _      => ()
    }
  }

  /** `t` and every plan explored from it, analysed under one memo; each
    * plan is also its own normal form under a fresh normalisation.
    */
  private def assertExploredMemoSound(t: Term, m: Memo): Int = {
    val plans = Rewriter.explore(t, m, RewriteConfig.all, Cost.estimate(_, m).cost)
    (t +: plans).foreach(assertMemoSound(_, m))
    plans.foreach(p => assert(Rewriter.normalize(p, m.cat) == p, p.pretty))
    plans.size
  }

  test("memoised sorts, stable columns and estimates equal fresh ones on random terms and explored plans") {
    val randomCat = cat + ("V" -> Set("src"))
    val randomStats = stats + ("V" -> RelStats(30, Map("src" -> 30.0)))
    (0L until 30L).foreach { i =>
      val t = RandomTerms.topped(3).pureApply(Gen.Parameters.default, Seed(i))
      assertExploredMemoSound(t, new Memo(randomCat, randomStats))
    }
    // Constants only become filter values, so any node id will do.
    def translate(q: String): Term = {
      val consts = UcrpqParser.parse(q).conjuncts.flatMap(c => Seq(c.left, c.right))
        .collect { case QConst(n) => n -> (1L: Any) }.toMap
      Query2Mu.translate(q, consts)
    }
    val queries = PaperQueries.yago.map(_.query) ++
      (2 to 6).map(n => PaperQueries.concatClosure((0 until n).map(i => s"a$i")))
    val plans = queries.map(q => assertExploredMemoSound(translate(q), new Memo(cat, stats))).sum
    assert(plans > queries.size)
  }

  test("one term instance under two catalogs: each catalog's memo gives its own analyses") {
    val t = Term.closure(Rel("R"), "X").asInstanceOf[Fix]
    val narrow = new Memo(Map("R" -> Set("src", "trg")))
    val wide = new Memo(Map("R" -> Set("src", "trg", "w")))
    for (_ <- 1 to 2) {
      assert(Analysis.sort(t, narrow, Map.empty) == Set("src", "trg"))
      assert(Analysis.sort(t, wide, Map.empty) == Set("src", "trg", "w"))
      assert(Stabilizer.stableCols(t, narrow) == Set("src"))
      assert(Stabilizer.stableCols(t, wide) == Set("src", "w"))
      assert(Cost.estimate(t, narrow).distinct.keySet == Set("src", "trg"))
      assert(Cost.estimate(t, wide).distinct.keySet == Set("src", "trg", "w"))
    }
    assert(Analysis.sort(t, narrow.cat) == Set("src", "trg"))
    assert(Analysis.sort(t, wide.cat) == Set("src", "trg", "w"))
  }

  test("a failed analysis is not memoised: the same MuRaError is thrown again") {
    val m = new Memo(cat + ("V" -> Set("src")), stats)
    val e = closureE
    val illSorted = Union(e, Rel("V"))
    val first = intercept[MuRaError](Analysis.sort(illSorted, m, Map.empty)).getMessage
    assert(intercept[MuRaError](Analysis.sort(illSorted, m, Map.empty)).getMessage == first)
    // Its well-sorted part is analysed and kept.
    assert(Analysis.sort(e, m, Map.empty) == Set("src", "trg"))
    // φ(∅) ≠ ∅: the branch σ(X ∪ E) is not empty when X is.
    val nonVanishing = Fix("X", Union(Rel("E"), Filter(EqConst("src", 1L), Union(RecVar("X"), Rel("E")))))
    val msg = intercept[MuRaError](Cost.estimate(nonVanishing, m)).getMessage
    assert(msg.contains("φ(∅)=∅"))
    assert(intercept[MuRaError](Cost.estimate(nonVanishing, m)).getMessage == msg)
    assert(intercept[MuRaError](Stabilizer.stableCols(nonVanishing, m)).getMessage == msg)
  }
}

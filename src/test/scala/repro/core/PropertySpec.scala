package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** Property-based soundness: on random small graphs, every explored plan
  * of closure-style terms equals the brute-force reference, and Prop. 3
  * (fixpoint splitting) holds for arbitrary splits.
  */
class PropertySpec extends AnyFunSuite {

  /** Run a ScalaCheck property (100 cases) and assert it holds. */
  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  private val genGraph: Gen[Set[(Long, Long)]] = for {
    n <- Gen.choose(4, 10)
    m <- Gen.choose(3, 18)
    seed <- Gen.choose(0L, 100000L)
  } yield randEdges(n, m, seed)

  test("closure fixpoint equals brute closure on arbitrary graphs") {
    check(Prop.forAll(genGraph) { e =>
      asPairs(LocalEval.eval(closureE, Map("E" -> rel(e)))) == bruteClosure(e)
    })
  }

  test("Prop. 3: fixpoint of a split union equals union of split fixpoints") {
    check(Prop.forAll(genGraph, Gen.choose(1, 3)) { (e, parts) =>
      val s = e.take(math.max(1, e.size / 2))
      val groups = s.groupBy { case (a, b) => (a + b) % parts }
      val whole = asPairs(LocalEval.eval(example2, Map("E" -> rel(e), "S" -> rel(s))))
      val split = groups.values.map { g =>
        asPairs(LocalEval.eval(example2, Map("E" -> rel(e), "S" -> rel(g))))
      }.foldLeft(Set.empty[(Long, Long)])(_ ++ _)
      whole == split
    })
  }

  test("stable-column split yields pairwise disjoint local fixpoints") {
    check(Prop.forAll(genGraph) { e =>
      val s = e.take(math.max(1, e.size / 2))
      val groups = s.groupBy(_._1).values.toSeq // split by stable column src
      val res = groups.map(g =>
        asPairs(LocalEval.eval(example2, Map("E" -> rel(e), "S" -> rel(g)))))
      res.indices.forall(i => res.indices.forall(j =>
        i >= j || res(i).intersect(res(j)).isEmpty))
    })
  }

  test("all explored plans of σ(E+) are equivalent on arbitrary graphs") {
    check(Prop.forAll(genGraph, Gen.choose(1L, 10L)) { (e, v) =>
      val t = Filter(EqConst("trg", v), closureE)
      val plans = Rewriter.explore(t, cat, RewriteConfig.all)
      val expected = bruteClosure(e).filter(_._2 == v)
      plans.forall { p =>
        pairsOf(LocalEval.eval(p, Map("E" -> rel(e))), "src", "trg") == expected
      }
    })
  }

  test("all explored plans of compose(E+, S) are equivalent on arbitrary graphs") {
    check(Prop.forAll(genGraph, genGraph) { (e, s) =>
      val t = Term.compose(Term.closure(Rel("E")), Rel("S"))
      val plans = Rewriter.explore(t, cat, RewriteConfig.all)
      val expected = bruteCompose(bruteClosure(e), s)
      plans.forall { p =>
        pairsOf(LocalEval.eval(p, Map("E" -> rel(e), "S" -> rel(s))), "src", "trg") == expected
      }
    })
  }

  test("semi-naive delta evaluation equals naive full re-evaluation") {
    check(Prop.forAll(genGraph) { e =>
      // naive: iterate φ on the FULL set each round
      val env = Map("E" -> rel(e))
      var x = e
      var continue = true
      while (continue) {
        val next = e ++ bruteCompose(x, e)
        continue = next != x
        x = next
      }
      asPairs(LocalEval.eval(closureE, env)) == x
    })
  }

  test("every explored plan of a generated term equals it, under all rules and BigDatalog-lite's") {
    val cat = Map("E" -> Set("src", "trg"), "S" -> Set("src", "trg"), "V" -> Set("src"))
    def rows(r: LocalRel): Set[Seq[Any]] = r.aligned(r.cols.sorted).rows.map(_.toSeq).toSet
    val params = SCTest.Parameters.default.withMinSuccessfulTests(100).withInitialSeed(Seed(12L))
    val gen = for (t <- RandomTerms.topped(3); env <- RandomTerms.relations) yield (t, env)
    val res = SCTest.check(params, Prop.forAll(gen) { case (t, env) =>
      val expected = rows(LocalEval.eval(t, env))
      for (cfg <- Seq(RewriteConfig.all, RewriteConfig.bigDatalogLite); p <- Rewriter.explore(t, cat, cfg))
        assert(rows(LocalEval.eval(p, env)) == expected, s"${t.pretty}\n  explored to\n${p.pretty}")
      true
    })
    assert(res.passed, res.status.toString)
  }
}

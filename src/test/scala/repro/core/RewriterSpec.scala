package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._
import repro.queries.PaperQueries
import repro.ucrpq.Query2Mu

/** The MuRewriter rules (Sec. III): every rewritten plan must denote the
  * same relation. We verify both rule-level behavior and whole-space
  * semantic preservation via the in-memory evaluator.
  */
class RewriterSpec extends AnyFunSuite {

  private val env = Map("E" -> rel(paperE), "S" -> rel(paperS), "R" -> rel(paperE))

  private def resultSet(t: Term, e: Map[String, LocalRel] = env): Set[Vector[Any]] = {
    val r = LocalEval.eval(t, e)
    val order = r.cols.sorted
    r.aligned(order).rows.toSet
  }

  /** All plans explored from `t` must evaluate to the same relation. */
  private def assertAllPlansEquivalent(t: Term, e: Map[String, LocalRel] = env,
                                       cfg: RewriteConfig = RewriteConfig.all): Vector[Term] = {
    val plans = Rewriter.explore(t, cat, cfg)
    val ref = resultSet(plans.head, e)
    plans.tail.foreach { p =>
      assert(resultSet(p, e) == ref, s"plan differs:\n  ${p.pretty}\n  vs\n  ${plans.head.pretty}")
    }
    plans
  }

  // ------------------------------------------------------------- normalize

  test("normalize sinks a filter through join toward the filtered side") {
    // join E(src,trg) with S renamed to (a,b): the filter on src only
    // concerns the E side and must sink there.
    val t = Filter(EqConst("src", 1L), Join(Rel("E"), Rename("src", "a", Rename("trg", "b", Rel("S")))))
    val n = Rewriter.normalize(t, cat)
    assert(resultSet(t) == resultSet(n))
    // the filter must no longer sit at the root
    assert(!n.isInstanceOf[Filter])
  }

  test("normalize sinks filters through unions and antiprojections") {
    val t = Filter(EqConst("src", 1L), Union(AntiProj("m", Rename("trg", "m", Rel("E"))), AntiProj("trg", Rel("S"))))
    val n = Rewriter.normalize(t, cat)
    assert(resultSet(t) == resultSet(n))
    n match {
      case Union(_, _) => ()
      case other       => fail(s"expected union at root, got ${other.pretty}")
    }
  }

  test("normalize sinks a rename into a fixpoint (pure relabeling)") {
    val t = Rename("trg", "w", closureE)
    val n = Rewriter.normalize(t, cat)
    assert(n.isInstanceOf[Fix], n.pretty)
    assert(Analysis.sort(n, cat) == Set("src", "w"))
    assert(pairsOf(LocalEval.eval(n, env), "src", "w") == bruteClosure(paperE))
  }

  test("normalize handles rename target clashing with internal middle column") {
    // closure's middle column is m_1; rename trg to m_1
    val t = Rename("trg", "m_1", closureE)
    val n = Rewriter.normalize(t, cat)
    assert(Analysis.sort(n, cat) == Set("src", "m_1"))
    assert(pairsOf(LocalEval.eval(n, env), "src", "m_1") == bruteClosure(paperE))
  }

  test("normalize antiprojection through join (projection pushdown)") {
    val t = AntiProj("pred", Join(Rel("G"), Rename("src", "trg2", Rename("trg", "q", Rel("E")))))
    val g = labeledRel(Set((1L, "a", 2L), (2L, "a", 3L)))
    val e2 = Map("G" -> g, "E" -> rel(Set((5L, 6L))))
    val n = Rewriter.normalize(t, cat)
    assert(resultSet(t, e2) == resultSet(n, e2))
  }

  test("normalize keeps filters below anti-projections and reaches a normal form") {
    val labelA = Filter(EqConst("pred", "l"), Rel("G"))
    val t = Filter(EqConst("trg", 2L), AntiProj("pred", labelA))
    val n = Rewriter.normalize(t, cat)
    assert(n == AntiProj("pred", Filter(EqConst("trg", 2L), labelA)), n.pretty)
    assert(Rewriter.normalize(n, cat) eq n)
  }

  // ------------------------------------------------------------ push filter

  test("push filter into fixpoint: stable side is pushed to the constant part") {
    val t = Filter(EqConst("src", 1L), closureE) // src is stable
    val plans = assertAllPlansEquivalent(t)
    val pushed = plans.exists {
      case Fix(_, body) =>
        Term.unionBranches(body).exists {
          case Filter(EqConst("src", v), _) => v == 1L
          case _                            => false
        }
      case _ => false
    }
    assert(pushed, plans.map(_.pretty).mkString("\n"))
  }

  test("push filter on the non-stable side requires reversal first (C2)") {
    val t = Filter(EqConst("trg", 6L), closureE)
    // without reversal: no plan may push the filter inside
    val noRev = Rewriter.explore(t, cat, RewriteConfig.bigDatalogLite)
    noRev.foreach {
      case Fix(_, _) => fail("filter pushed without reversal")
      case _         => ()
    }
    // with reversal: some plan starts the fixpoint from σ_trg=6(E)
    val plans = assertAllPlansEquivalent(t)
    val pushed = plans.exists {
      case Fix(_, body) => Term.unionBranches(body).exists {
        case Filter(EqConst("trg", v), _) => v == 6L
        case _                            => false
      }
      case _ => false
    }
    assert(pushed, plans.map(_.pretty).mkString("\n"))
    val expected = bruteClosure(paperE).filter(_._2 == 6L)
    assert(pairsOf(LocalEval.eval(t, env), "src", "trg") == expected)
  }

  // ------------------------------------------------------------- reversal

  test("reverse rule flips a pure closure and preserves semantics") {
    val plans = assertAllPlansEquivalent(closureE)
    // some plan must have trg stable (the reversed orientation)
    val reversed = plans.collect { case f: Fix => Stabilizer.stableCols(f, cat) }
    assert(reversed.contains(Set("trg")), reversed.toString)
    assert(reversed.contains(Set("src")))
  }

  test("reversal does not apply to base-extended closures") {
    // μ(X = S ∪ X∘E) is S∘E*, not a pure closure; reversing it would be wrong
    val lf = Rewriter.recognizeLinear(example2, cat)
    assert(lf.isDefined)
    assert(!Rewriter.isPureClosure(lf.get, cat))
    val plans = assertAllPlansEquivalent(example2)
    assert(plans.nonEmpty)
  }

  // ------------------------------------------------------------ push join

  test("push join into fixpoint on a stable column (C5: b/a+)") {
    // compose(S, E+): join column is E+'s src, which is stable in the
    // right-appending orientation — pushable without reversal.
    val t = Term.compose(Rel("S"), Term.closure(Rel("E"), "X"))
    val plans = assertAllPlansEquivalent(t)
    // some plan contains a fixpoint whose constant part mentions S
    val pushed = plans.exists {
      case f: Fix => Analysis.decompose(f)._1.freeRels.contains("S")
      case AntiProj(_, f: Fix) => Analysis.decompose(f)._1.freeRels.contains("S")
      case Rename(_, _, f: Fix) => Analysis.decompose(f)._1.freeRels.contains("S")
      case _ => false
    }
    assert(pushed, plans.map(_.pretty).mkString("\n"))
    assert(pairsOf(LocalEval.eval(t, env), "src", "trg") ==
      bruteCompose(paperS, bruteClosure(paperE)))
  }

  test("push join for C4 (a+/b) requires reversal") {
    val t = Term.compose(Term.closure(Rel("E"), "X"), Rel("S"))
    val expected = bruteCompose(bruteClosure(paperE), paperS)
    assert(pairsOf(LocalEval.eval(t, env), "src", "trg") == expected)
    val plans = assertAllPlansEquivalent(t)
    def hasPushedFix(p: Term): Boolean = p match {
      case f: Fix      => Analysis.decompose(f)._1.freeRels.contains("S")
      case _: Antijoin => false
      case _           => p.children.exists(hasPushedFix)
    }
    assert(plans.exists(hasPushedFix), plans.map(_.pretty).mkString("\n"))
    // without reversal, BigDatalog-lite cannot push this join
    val noRev = Rewriter.explore(t, cat, RewriteConfig.bigDatalogLite)
    assert(!noRev.exists(hasPushedFix))
  }

  // ------------------------------------------------------ push antiproj

  test("push antiprojection into fixpoint (reachability-style)") {
    // π̃_src(E+): src is stable and unused by the right-appending step.
    val t = AntiProj("src", Term.closure(Rel("E"), "X"))
    val plans = assertAllPlansEquivalent(t)
    val pushed = plans.exists {
      case f: Fix => Analysis.sort(f, cat) == Set("trg")
      case _      => false
    }
    assert(pushed, plans.map(_.pretty).mkString("\n"))
    assert(LocalEval.eval(t, env).rows.map(_.head).toSet ==
      bruteClosure(paperE).map(_._2))
  }

  // ------------------------------------------------------------- merging

  test("merge fixpoints: a+/b+ becomes a single fixpoint (C6)") {
    val a = Set((1L, 2L), (2L, 3L), (7L, 1L))
    val b = Set((3L, 4L), (4L, 5L), (3L, 9L))
    val e2 = Map("A" -> rel(a), "B" -> rel(b))
    val cat2 = cat ++ Map("A" -> Set("src", "trg"), "B" -> Set("src", "trg"))
    val t = Term.compose(Term.closure(Rel("A")), Term.closure(Rel("B")))
    val plans = Rewriter.explore(t, cat2, RewriteConfig.all)
    val expected = bruteCompose(bruteClosure(a), bruteClosure(b))
    plans.foreach { p =>
      assert(pairsOf(LocalEval.eval(p, e2), "src", "trg") == expected, p.pretty)
    }
    // some plan is a single fixpoint with two variable branches
    val merged = plans.exists {
      case f: Fix => Analysis.decompose(f)._2.size == 2
      case _      => false
    }
    assert(merged, plans.map(_.pretty).mkString("\n"))
    // BigDatalog-lite never merges
    val noMerge = Rewriter.explore(t, cat2, RewriteConfig.bigDatalogLite)
    noMerge.foreach {
      case f: Fix => assert(Analysis.decompose(f)._2.size <= 1)
      case _      => ()
    }
  }

  test("three concatenated closures still equivalent across all plans") {
    val a = Set((1L, 2L), (2L, 3L))
    val b = Set((3L, 4L), (4L, 5L))
    val c = Set((5L, 6L), (6L, 7L), (5L, 1L))
    val e3 = Map("A" -> rel(a), "B" -> rel(b), "C" -> rel(c))
    val cat3 = cat ++ Map("A" -> Set("src", "trg"), "B" -> Set("src", "trg"), "C" -> Set("src", "trg"))
    val t = Term.compose(Term.compose(Term.closure(Rel("A")), Term.closure(Rel("B"))), Term.closure(Rel("C")))
    val expected = bruteCompose(bruteCompose(bruteClosure(a), bruteClosure(b)), bruteClosure(c))
    val plans = Rewriter.explore(t, cat3, RewriteConfig.all)
    assert(plans.nonEmpty)
    plans.foreach { p =>
      assert(pairsOf(LocalEval.eval(p, e3), "src", "trg") == expected, p.pretty)
    }
  }

  // ------------------------------------------------- whole-space checks

  test("plan space of filtered compose-closure queries is sound (random graphs)") {
    (1 to 8).foreach { seed =>
      val e = randEdges(9, 14, seed)
      val s = randEdges(9, 5, seed + 100)
      val lenv = Map("E" -> rel(e), "S" -> rel(s))
      val queries = Seq(
        Filter(EqConst("src", 1L), Term.closure(Rel("E"))),
        Filter(EqConst("trg", 2L), Term.closure(Rel("E"))),
        Term.compose(Rel("S"), Term.closure(Rel("E"))),
        Term.compose(Term.closure(Rel("E")), Rel("S")),
        AntiProj("src", Term.closure(Rel("E"))),
        Filter(EqConst("trg", 3L), Term.compose(Rel("S"), Term.closure(Rel("E")))),
      )
      queries.foreach(q => assertAllPlansEquivalent(q, lenv))
    }
  }

  test("explore returns at least the normalized input and respects maxPlans") {
    val plans = Rewriter.explore(closureE, cat, RewriteConfig.all.copy(maxPlans = 2))
    assert(plans.nonEmpty && plans.size <= 2)
    val none = Rewriter.explore(closureE, cat, RewriteConfig.none)
    assert(none.size == 1)
  }

  test("explore stops when its thread is interrupted") {
    val t = Query2Mu.translate(PaperQueries.concatClosure((1 to 6).map(i => s"a$i")), Map.empty)
    Thread.currentThread().interrupt()
    try assertThrows[InterruptedException](Rewriter.explore(t, cat, RewriteConfig.all))
    finally Thread.interrupted()
  }
}

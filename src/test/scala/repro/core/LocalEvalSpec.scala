package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** The in-memory semi-naive evaluator against brute-force references. */
class LocalEvalSpec extends AnyFunSuite {

  private val env = Map("E" -> rel(paperE), "S" -> rel(paperS), "R" -> rel(paperE))

  test("base relation lookup") {
    assert(asPairs(LocalEval.eval(Rel("E"), env)) == paperE)
  }

  test("filter on constant") {
    val r = LocalEval.eval(Filter(EqConst("src", 1L), Rel("E")), env)
    assert(asPairs(r) == paperE.filter(_._1 == 1L))
  }

  test("filter on column equality") {
    val withLoop = rel(paperE + ((3L, 3L)))
    val r = LocalEval.eval(Filter(EqCols("src", "trg"), Rel("E")), Map("E" -> withLoop))
    assert(asPairs(r) == Set((3L, 3L)))
  }

  test("rename") {
    val r = LocalEval.eval(Rename("trg", "m", Rel("E")), env)
    assert(r.cols.toSet == Set("src", "m"))
    assert(pairsOf(r, "src", "m") == paperE)
  }

  test("natural join = composition after renames") {
    val comp = Term.compose(Rel("S"), Rel("E"))
    val r = LocalEval.eval(comp, env)
    assert(asPairs(r) == bruteCompose(paperS, paperE))
  }

  test("join with no common columns is a cartesian product") {
    val t = Join(Rename("src", "a", Rename("trg", "b", Rel("S"))), Rel("E"))
    val r = LocalEval.eval(t, env)
    assert(r.size == paperS.size * paperE.size)
  }

  test("antijoin removes matching tuples") {
    val t = Antijoin(Rel("E"), Rel("S"))
    assert(asPairs(LocalEval.eval(t, env)) == paperE -- paperS)
  }

  test("antijoin on disjoint columns: empty right keeps left") {
    val empty = LocalRel(Vector("a"), Vector.empty)
    val t = Antijoin(Rel("E"), Rel("Z"))
    assert(asPairs(LocalEval.eval(t, env + ("Z" -> empty))) == paperE)
    val nonEmpty = LocalRel(Vector("a"), Vector(Vector(1L)))
    assert(LocalEval.eval(t, env + ("Z" -> nonEmpty)).isEmpty)
  }

  test("union deduplicates") {
    val r = LocalEval.eval(Union(Rel("E"), Rel("S")), env)
    assert(asPairs(r) == paperE) // S ⊆ E
    assert(r.size == paperE.size)
  }

  test("antiprojection deduplicates") {
    val r = LocalEval.eval(AntiProj("trg", Rel("E")), env)
    assert(r.cols == Vector("src"))
    assert(r.rows.toSet.size == r.rows.size)
    assert(r.rows.map(_.head).toSet == paperE.map(_._1))
  }

  test("Example 2 fixpoint matches the paper's trace") {
    val r = LocalEval.eval(example2, env)
    val expected = paperS ++
      Set((1L, 3L), (1L, 5L), (10L, 5L), (10L, 12L)) ++
      Set((1L, 6L), (10L, 6L))
    assert(asPairs(r) == expected)
    assert(asPairs(r) == bruteFrom(paperS, paperE))
  }

  test("E+ fixpoint equals brute-force transitive closure") {
    val r = LocalEval.eval(closureE, env)
    assert(asPairs(r) == bruteClosure(paperE))
  }

  test("left-appending closure equals right-appending closure") {
    val left = Fix("X", Union(Rel("E"),
      AntiProj("m", Join(Rename("trg", "m", Rel("E")), Rename("src", "m", RecVar("X"))))))
    assert(asPairs(LocalEval.eval(left, env)) == asPairs(LocalEval.eval(closureE, env)))
  }

  test("fixpoint on random graphs equals brute closure (20 seeds)") {
    (1 to 20).foreach { seed =>
      val e = randEdges(12, 20, seed)
      val r = LocalEval.eval(closureE, Map("E" -> rel(e)))
      assert(asPairs(r) == bruteClosure(e), s"seed=$seed")
    }
  }

  test("φ's join reaches a pair along several paths: the closure equals brute force, the X-free side right or left") {
    // Each node of a layer has an edge to each of the next: a pair two
    // layers apart is reached through each of three middle nodes.
    val layered = (for (l <- 0 until 3; a <- 0 until 3; b <- 0 until 3) yield (10L * l + a, 10L * (l + 1) + b)).toSet
    val xFreeRight = Fix("X", Union(Rel("E"),
      AntiProj("m", Join(Rename("trg", "m", RecVar("X")), Rename("src", "m", Rel("E"))))))
    val xFreeLeft = Fix("X", Union(Rel("E"),
      AntiProj("m", Join(Rename("src", "m", Rel("E")), Rename("trg", "m", RecVar("X"))))))
    val twoSteps = Join(Rename("trg", "m", Rel("E")), Rename("src", "m", Rel("E")))
    assert(LocalEval.eval(twoSteps, Map("E" -> rel(layered))).size == 3 * bruteCompose(layered, layered).size)
    for (e <- layered +: (1 to 10).map(seed => randEdges(10, 40, seed)); t <- Seq(xFreeRight, xFreeLeft))
      assert(asPairs(LocalEval.eval(t, Map("E" -> rel(e)))) == bruteClosure(e), t.pretty)
  }

  test("fixpoint with union constant part") {
    val fix = Fix("X", Union(Union(Rel("S"), Rel("E")),
      AntiProj("c", Join(Rename("trg", "c", RecVar("X")), Rename("src", "c", Rel("E"))))))
    val r = LocalEval.eval(fix, Map("E" -> rel(paperE), "S" -> rel(paperS)))
    assert(asPairs(r) == bruteClosure(paperE))
  }

  test("merged-style fixpoint with two variable branches") {
    // μ(Z = S ∪ E∘Z ∪ Z∘E) = E* ∘ S ∘ E*
    val prepend = AntiProj("k1", Join(Rename("trg", "k1", Rel("E")), Rename("src", "k1", RecVar("Z"))))
    val append  = AntiProj("k2", Join(Rename("trg", "k2", RecVar("Z")), Rename("src", "k2", Rel("E"))))
    val fix = Fix("Z", Union(Rel("S"), Union(prepend, append)))
    val r = LocalEval.eval(fix, env)
    // reference: saturate S by prepending/appending E
    var acc = paperS; var changed = true
    while (changed) {
      val next = acc ++ bruteCompose(paperE, acc) ++ bruteCompose(acc, paperE)
      changed = next != acc; acc = next
    }
    assert(asPairs(r) == acc)
  }

  test("aligned reorders columns") {
    val r = rel(paperE)
    val a = r.aligned(Vector("trg", "src"))
    assert(pairsOf(a, "src", "trg") == paperE)
    assert(a.cols == Vector("trg", "src"))
  }

  test("fixpoint respects maxIters") {
    assertThrows[MuRaError](
      LocalEval.eval(closureE, Map("E" -> rel(randEdges(30, 90, 1))), maxIters = 1))
  }

  // ------------------------------------------------------- edge cases

  test("an Int constant selects from a Long column, whose values stay Long") {
    val r = LocalEval.eval(Filter(EqConst("src", 1), Rel("E")), env)
    assert(r.rows.flatten.forall(_.isInstanceOf[Long]))
    assert(asPairs(r) == paperE.filter(_._1 == 1L))
  }

  test("String and Boolean columns filter, join and project") {
    val people = LocalRel(Vector("name", "adult", "city"), Vector(
      Vector("ann", true, "Paris"), Vector("bob", false, "Paris"), Vector("cy", true, "Rome")))
    val cities = LocalRel(Vector("city", "country"), Vector(Vector("Paris", "FR"), Vector("Rome", "IT")))
    val t = AntiProj("city", Join(Filter(EqConst("adult", true), Rel("P")), Rel("C")))
    val r = LocalEval.eval(t, Map("P" -> people, "C" -> cities))
    assert(r.aligned(Vector("name", "adult", "country")).rows.toSet ==
      Set(Vector("ann", true, "FR"), Vector("cy", true, "IT")))
  }

  test("null is a value: it is selected, joined and deduplicated like any other") {
    val n = LocalRel(Vector("src", "trg"), Vector(Vector(1L, null), Vector(null, 2L), Vector(1L, null)))
    val e = Map("N" -> n)
    assert(LocalEval.eval(Union(Rel("N"), Rel("N")), e).size == 2)
    assert(LocalEval.eval(Filter(EqConst("trg", null), Rel("N")), e).rows.toSet == Set(Vector(1L, null)))
    assert(asPairs(LocalEval.eval(Term.compose(Rel("N"), Rel("N")), e)) == Set((1L, 2L)))
  }

  test("duplicate input rows count once in unions, anti-projections and fixpoints") {
    val dup = LocalRel(Vector("src", "trg"), rel(paperE).rows ++ rel(paperE).rows)
    val e = Map("E" -> dup)
    assert(LocalEval.eval(Union(Rel("E"), Rel("E")), e).size == paperE.size)
    assert(LocalEval.eval(AntiProj("trg", Rel("E")), e).size == paperE.map(_._1).size)
    val c = LocalEval.eval(closureE, e)
    assert(c.size == bruteClosure(paperE).size)
    assert(asPairs(c) == bruteClosure(paperE))
  }

  test("anti-projection down to zero columns gives {()} or ∅, which joins and antijoins respect") {
    val unit = AntiProj("trg", AntiProj("src", Rel("E")))
    val none = AntiProj("trg", AntiProj("src", Filter(EqConst("src", 99L), Rel("E"))))
    val r = LocalEval.eval(unit, env)
    assert(r.cols.isEmpty && r.size == 1)
    assert(LocalEval.eval(none, env).isEmpty)
    assert(asPairs(LocalEval.eval(Join(Rel("E"), unit), env)) == paperE)
    assert(LocalEval.eval(Join(Rel("E"), none), env).isEmpty)
    assert(LocalEval.eval(Antijoin(Rel("E"), unit), env).isEmpty)
    assert(asPairs(LocalEval.eval(Antijoin(Rel("E"), none), env)) == paperE)
  }

  test("a rename onto a column already present is a MuRaError") {
    assertThrows[MuRaError](LocalEval.eval(Rename("src", "trg", Rel("E")), env))
  }

  test("a union of different columns is a MuRaError, in a term and in a fixpoint's step") {
    assertThrows[MuRaError](LocalEval.eval(Union(AntiProj("trg", Rel("S")), Rel("E")), env))
    val widening = Fix("X", Union(Rel("E"), Join(RecVar("X"), Rename("src", "a", Rename("trg", "b", Rel("S"))))))
    assertThrows[MuRaError](LocalEval.eval(widening, env))
  }

  test("a fixpoint whose φ is a π̃ leaving columns other than the fixpoint's is a MuRaError") {
    val ab = Rename("src", "a", Rename("trg", "b", Rel("S")))
    val steps = Seq(
      AntiProj("trg", Join(Rename("trg", "m", RecVar("X")), Rename("src", "m", Rel("E")))), // (src, m)
      AntiProj("trg", Join(Rename("src", "m", Rel("E")), Rename("trg", "m", RecVar("X")))), // (src, m)
      AntiProj("trg", Join(RecVar("X"), ab)),                                               // (src, a, b)
      AntiProj("trg", Rename("src", "m", RecVar("X"))))                                     // (m)
    for (step <- steps) {
      val e = intercept[MuRaError](LocalEval.eval(Fix("X", Union(Rel("E"), step)), env))
      assert(e.getMessage.contains("union of different columns"), step.pretty)
    }
  }

  test("an interrupted fixpoint throws InterruptedException") {
    Thread.currentThread().interrupt()
    try assertThrows[InterruptedException](LocalEval.eval(closureE, env))
    finally Thread.interrupted()
  }
}

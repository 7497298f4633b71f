package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** Stable-column analysis (Sec. IV-A2, Def. 10 of [11]). */
class StabilizerSpec extends AnyFunSuite {

  test("Example 2: src is stable, trg is not (as stated in the paper)") {
    assert(Stabilizer.stableCols(example2, cat) == Set("src"))
  }

  test("right-appending closure: src stable") {
    assert(Stabilizer.stableCols(closureE, cat) == Set("src"))
  }

  test("left-appending closure: trg stable") {
    val left = Fix("X", Union(Rel("E"),
      AntiProj("m", Join(Rename("trg", "m", Rel("E")), Rename("src", "m", RecVar("X"))))))
    assert(Stabilizer.stableCols(left, cat) == Set("trg"))
  }

  test("merged fixpoint (prepend and append branches): nothing stable") {
    val prepend = AntiProj("k1", Join(Rename("trg", "k1", Rel("E")), Rename("src", "k1", RecVar("Z"))))
    val append  = AntiProj("k2", Join(Rename("trg", "k2", RecVar("Z")), Rename("src", "k2", Rel("E"))))
    val fix = Fix("Z", Union(Rel("S"), Union(prepend, append)))
    assert(Stabilizer.stableCols(fix, cat) == Set.empty)
  }

  test("identity variable branch: all columns stable") {
    val fix = Fix("X", Union(Rel("E"), Filter(EqConst("src", 1L), RecVar("X"))))
    assert(Stabilizer.stableCols(fix, cat) == Set("src", "trg"))
  }

  test("pushed-join fixpoint keeps extra passthrough columns stable") {
    // X over (src, m, trg): appends E on trg; src and m ride along.
    val step = AntiProj("c", Join(
      Rename("trg", "c", RecVar("X")),
      Rename("src", "c", Rel("E"))))
    val base = Join(Rename("trg", "m", Rel("S")), Rename("src", "m", Rel("E")))
    val fix = Fix("X", Union(base, step))
    assert(Analysis.sort(fix, cat) == Set("src", "m", "trg"))
    assert(Stabilizer.stableCols(fix, cat) == Set("src", "m"))
  }

  test("provenance through a union is the intersection of branches") {
    val b1 = Filter(EqConst("src", 1L), RecVar("X"))
    val b2 = AntiProj("m", Join(Rename("trg", "m", RecVar("X")), Rename("src", "m", Rel("E"))))
    val fix = Fix("X", Union(Rel("E"), Union(b1, b2)))
    assert(Stabilizer.stableCols(fix, cat) == Set("src"))
  }

  test("renamed-away column is not stable") {
    // swap src and trg each step: neither is stable
    val swap = Rename("m", "trg", Rename("trg", "src", Rename("src", "m", RecVar("X"))))
    val fix = Fix("X", Union(Rel("E"), swap))
    assert(Stabilizer.stableCols(fix, cat) == Set.empty)
  }

  test("repartition disjointness property on the paper's example") {
    // Split S by the stable column src: local fixpoints must be disjoint.
    val bySrc = paperS.groupBy(_._1)
    val results = bySrc.values.map { part =>
      asPairs(LocalEval.eval(example2, Map("E" -> rel(paperE), "S" -> rel(part))))
    }.toSeq
    // pairwise disjoint
    for (i <- results.indices; j <- results.indices; if i < j)
      assert(results(i).intersect(results(j)).isEmpty)
    // and their union is the full fixpoint
    assert(results.reduce(_ ++ _) ==
      asPairs(LocalEval.eval(example2, Map("E" -> rel(paperE), "S" -> rel(paperS)))))
  }

  test("splitting by a NON-stable column can produce cross-partition duplicates") {
    val byTrg = paperS.groupBy(_._2) // trg is not stable
    val results = byTrg.values.map { part =>
      asPairs(LocalEval.eval(example2, Map("E" -> rel(paperE), "S" -> rel(part))))
    }.toSeq
    // Disjointness is no longer guaranteed, but the union is still the
    // full fixpoint (Prop. 3 holds for ANY split of the constant part).
    assert(results.reduce(_ ++ _) ==
      asPairs(LocalEval.eval(example2, Map("E" -> rel(paperE), "S" -> rel(paperS)))))
  }
}

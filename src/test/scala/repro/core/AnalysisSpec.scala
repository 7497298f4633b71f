package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** Sorts, F_cond checks, decomposition (Sec. II of the paper). */
class AnalysisSpec extends AnyFunSuite {

  test("sort of a base relation comes from the catalog") {
    assert(Analysis.sort(Rel("E"), cat) == Set("src", "trg"))
    assert(Analysis.sort(Rel("G"), cat) == Set("src", "pred", "trg"))
  }

  test("sort of unknown relation fails") {
    assertThrows[MuRaError](Analysis.sort(Rel("nope"), cat))
  }

  test("filter keeps the sort and requires its columns") {
    assert(Analysis.sort(Filter(EqConst("src", 1L), Rel("E")), cat) == Set("src", "trg"))
    assertThrows[MuRaError](Analysis.sort(Filter(EqConst("zzz", 1L), Rel("E")), cat))
    assertThrows[MuRaError](Analysis.sort(Filter(EqCols("src", "zzz"), Rel("E")), cat))
  }

  test("natural join unions sorts") {
    assert(Analysis.sort(Join(Rel("E"), Rel("G")), cat) == Set("src", "pred", "trg"))
  }

  test("antiprojection removes a column; fails on missing column") {
    assert(Analysis.sort(AntiProj("pred", Rel("G")), cat) == Set("src", "trg"))
    assertThrows[MuRaError](Analysis.sort(AntiProj("x", Rel("E")), cat))
  }

  test("rename replaces a column; fails on collision") {
    assert(Analysis.sort(Rename("trg", "m", Rel("E")), cat) == Set("src", "m"))
    assertThrows[MuRaError](Analysis.sort(Rename("trg", "src", Rel("E")), cat))
    assertThrows[MuRaError](Analysis.sort(Rename("zzz", "m", Rel("E")), cat))
  }

  test("union requires equal sorts") {
    assert(Analysis.sort(Union(Rel("E"), Rel("S")), cat) == Set("src", "trg"))
    assertThrows[MuRaError](Analysis.sort(Union(Rel("E"), Rel("G")), cat))
  }

  test("fixpoint sort equals the constant part sort (Example 2)") {
    assert(Analysis.sort(example2, cat) == Set("src", "trg"))
  }

  test("fixpoint with no constant part is rejected (Prop. 2 form)") {
    val bad = Fix("X", AntiProj("c",
      Join(Rename("trg", "c", RecVar("X")), Rename("src", "c", Rel("E")))))
    assertThrows[MuRaError](Analysis.sort(bad, cat))
  }

  test("fixpoint with mismatched variable-part sort is rejected") {
    val bad = Fix("X", Union(Rel("E"), Join(RecVar("X"), Rel("G"))))
    assertThrows[MuRaError](Analysis.sort(bad, cat))
  }

  test("decompose splits constant and variable parts") {
    val (constT, varB) = Analysis.decompose(example2)
    assert(constT == Rel("S"))
    assert(varB.size == 1)
    assert(varB.head.usesRec("X"))
  }

  test("decompose accepts a union constant part") {
    val fix = Fix("X", Union(Rel("S"), Union(Rel("E"), example2.body match {
      case Union(_, step) => step
      case _              => fail()
    })))
    val (constT, varB) = Analysis.decompose(fix)
    assert(Term.unionBranches(constT).toSet == Set(Rel("S"), Rel("E")))
    assert(varB.size == 1)
  }

  test("vanishesOnEmpty: joins with X vanish, base relations do not") {
    assert(Analysis.vanishesOnEmpty(RecVar("X"), "X"))
    assert(Analysis.vanishesOnEmpty(Join(Rel("E"), RecVar("X")), "X"))
    assert(!Analysis.vanishesOnEmpty(Rel("E"), "X"))
    assert(!Analysis.vanishesOnEmpty(Union(Rel("E"), RecVar("X")), "X"))
    assert(Analysis.vanishesOnEmpty(Union(RecVar("X"), Join(RecVar("X"), Rel("E"))), "X"))
    assert(Analysis.vanishesOnEmpty(Antijoin(RecVar("X"), Rel("E")), "X"))
  }

  test("decompose rejects a variable part with φ(∅) ≠ ∅") {
    val bad = Fix("X", Union(Rel("S"), Union(RecVar("X"), Rel("E"))))
    // inner Union(RecVar, Rel) flattens: branches are S, X, E — X alone is
    // a variable branch that vanishes; E is constant. This one is fine.
    Analysis.decompose(bad)
    // A branch like (E ∪ X) nested under a join does not vanish:
    val bad2 = Fix("X", Union(Rel("S"), AntiProj("c",
      Join(Rename("trg", "c", Union(RecVar("X"), Rel("E"))), Rename("src", "c", Rel("E"))))))
    assertThrows[MuRaError](Analysis.decompose(bad2))
  }

  test("F_cond: antijoin right side must be constant (positivity)") {
    val bad = Fix("X", Union(Rel("E"), Antijoin(Rel("E"), RecVar("X"))))
    assertThrows[MuRaError](Analysis.checkFcond(bad))
  }

  test("F_cond: joins must be linear") {
    val bad = Fix("X", Union(Rel("E"), Join(RecVar("X"), RecVar("X"))))
    assertThrows[MuRaError](Analysis.checkFcond(bad))
  }

  test("F_cond: no mutual recursion") {
    val inner = Fix("Y", Union(RecVar("X"), RecVar("Y")))
    val bad = Fix("X", Union(Rel("E"), inner))
    assertThrows[MuRaError](Analysis.checkFcond(bad))
  }

  test("F_cond accepts Example 2 and E+") {
    Analysis.checkFcond(example2)
    Analysis.checkFcond(closureE)
  }

  test("freeRels and freeRecVars") {
    assert(example2.freeRels == Set("S", "E"))
    assert(example2.freeRecVars.isEmpty)
    assert(example2.body.freeRecVars == Set("X"))
  }

  test("substRec replaces only the matching variable") {
    val t = Join(RecVar("X"), RecVar("Y"))
    assert(Analysis.substRec(t, "X", Rel("E")) == Join(Rel("E"), RecVar("Y")))
  }

  test("canonical: α-equivalence modulo recursion variable and middle columns") {
    val c1 = Term.closure(Rel("E"), "X")
    val c2 = Term.closure(Rel("E"), "Zq")
    assert(Analysis.alphaEq(c1, c2, cat))
    assert(!Analysis.alphaEq(c1, Term.closure(Rel("S"), "X"), cat))
  }

  test("canonical numbers binders, not names: sibling fixpoints may share a name") {
    val same = Join(Term.closure(Rel("E"), "X"), Term.closure(Rel("S"), "X"))
    val renamed = Join(Term.closure(Rel("E"), "X"), Term.closure(Rel("S"), "Y"))
    assert(Analysis.alphaEq(same, renamed, cat))
  }

  test("alphaEq distinguishes orientation") {
    val right = Term.closure(Rel("E"), "X") // X ∘ E
    val left = Fix("X", Union(Rel("E"),
      AntiProj("m", Join(Rename("trg", "m", Rel("E")), Rename("src", "m", RecVar("X"))))))
    assert(!Analysis.alphaEq(right, left, cat))
  }
}

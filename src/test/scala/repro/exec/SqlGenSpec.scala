package repro.exec

import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.scalacheck.{Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.TestGraphs._

/** μ-RA → SQL generation, executed directly on DuckDB and compared with
  * the in-memory evaluator (no Spark needed).
  */
class SqlGenSpec extends AnyFunSuite {

  private val env = Map("E" -> rel(paperE), "S" -> rel(paperS))

  /** `t` compiled to SQL by [[DuckDb.compile]] (every column a BIGINT)
    * and run on DuckDB over `env` gives what [[LocalEval]] gives.
    */
  private def check(t: Term, env: Map[String, LocalRel] = env): Unit = {
    val cat = env.map { case (n, r) => n -> r.cols.toSet }
    val q = DuckDb.compile(t, u => StructType(Analysis.sort(u, cat).toSeq.sorted.map(StructField(_, LongType))))
    val expected = LocalEval.eval(t, env).aligned(q.schema.fieldNames.toVector).rows.toSet
    val got = q.run((n, cols) => env(n).aligned(cols).rows).map(_.toSeq.toVector).toSet
    assert(got == expected, s"SQL result differs for ${t.pretty}\n${q.sql}")
  }

  test("base relation") { check(Rel("E")) }
  test("filter") { check(Filter(EqConst("src", 1L), Rel("E"))) }
  test("column-equality filter") { check(Filter(EqCols("src", "trg"), Rel("E"))) }
  test("rename") { check(Rename("trg", "m", Rel("E"))) }
  test("antiprojection deduplicates") { check(AntiProj("trg", Rel("E"))) }
  test("natural join / composition") { check(Term.compose(Rel("S"), Rel("E"))) }
  test("cross join") {
    check(Join(Rename("src", "a", Rename("trg", "b", Rel("S"))), Rel("E")))
  }
  test("antijoin") { check(Antijoin(Rel("E"), Rel("S"))) }
  test("union dedups") { check(Union(Rel("E"), Rel("S"))) }

  test("recursive CTE: Example 2") { check(example2) }
  test("recursive CTE: pure closure") { check(closureE) }

  test("recursive CTE with two recursive branches (merged fixpoint)") {
    val prepend = AntiProj("k1", Join(Rename("trg", "k1", Rel("E")), Rename("src", "k1", RecVar("Z"))))
    val append  = AntiProj("k2", Join(Rename("trg", "k2", RecVar("Z")), Rename("src", "k2", Rel("E"))))
    check(Fix("Z", Union(Rel("S"), Union(prepend, append))))
  }

  test("nested fixpoints (closure used inside another fixpoint's base)") {
    val inner = Term.closure(Rel("E"), "Y")
    val t = Fix("X", Union(Term.compose(Rel("S"), inner),
      AntiProj("c", Join(Rename("trg", "c", RecVar("X")), Rename("src", "c", Rel("E"))))))
    check(t)
  }

  test("fixpoint inside a filter (post-filtered closure)") {
    check(Filter(EqConst("trg", 6L), closureE))
  }

  test("string literals are escaped") {
    val g = new SqlGen(Map("G" -> "g_tab"), Map("G" -> Seq("src", "pred", "trg")))
    val (sql, _) = g.select(Filter(EqConst("pred", "it's"), Rel("G")), Map.empty)
    assert(sql.contains("'it''s'"))
  }

  // ------------------------------------- random terms: LocalEval vs DuckDB

  test("random terms of σ, ⋈, ▷, ∪, π̃, ρ and linear closures: LocalEval equals DuckDB (50 cases)") {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(50).withInitialSeed(Seed(8L))
    val res = SCTest.check(params, Prop.forAll(RandomTerms.cases) { case (t, e) =>
      Analysis.checkFcond(t)
      check(t, e)
      true
    })
    assert(res.passed, res.status.toString)
  }
}

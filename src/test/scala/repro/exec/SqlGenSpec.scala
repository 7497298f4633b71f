package repro.exec

import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Test => SCTest}
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

  /** Random well-sorted terms over E(src,trg), S(trg,src) and V(src),
    * with their sort. Unions pair a term with a sort-preserving change of
    * it; closures are linear: `μ(X = t ∪ f(step(X)))`, where `step`
    * moves one column of X along an edge and `f` may filter or antijoin.
    */
  private object RandomTerms {
    private val names = Vector("src", "trg", "a", "b")
    private val bases = Vector[(Term, Set[String])](
      Rel("E") -> Set("src", "trg"), Rel("S") -> Set("src", "trg"), Rel("V") -> Set("src"))

    /** `x` with column `c` moved along an edge of `base`: π̃_m(ρ_c^m(x) ⋈ ρ_src^m ρ_trg^c(base)). */
    private def step(x: Term, c: String, base: String): Term = {
      val edge = Rename("src", "m", Rel(base))
      AntiProj("m", Join(Rename(c, "m", x), if (c == "trg") edge else Rename("trg", c, edge)))
    }

    /** A term with the sort `s` of `t`, built from `t`. */
    private def variant(t: Term, s: Set[String], depth: Int): Gen[Term] = Gen.oneOf(
      for (c <- Gen.oneOf(s.toSeq); v <- Gen.choose(1L, 5L)) yield Filter(EqConst(c, v), t),
      for (c <- Gen.oneOf(s.toSeq); b <- Gen.oneOf("E", "S")) yield step(t, c, b),
      for ((u, _) <- term(depth)) yield Antijoin(t, u))

    def term(depth: Int): Gen[(Term, Set[String])] =
      if (depth == 0) Gen.oneOf(bases)
      else {
        val sub = term(depth - 1)
        Gen.frequency(
          1 -> Gen.oneOf(bases),
          2 -> (for ((t, s) <- sub; c <- Gen.oneOf(s.toSeq); v <- Gen.choose(1L, 5L))
                  yield (Filter(EqConst(c, v), t), s)),
          1 -> sub.map { case (t, s) =>
                 if (s.size < 2) (t, s) else (Filter(EqCols(s.min, s.max), t), s) },
          2 -> (for ((t, s) <- sub; c <- Gen.oneOf(s.toSeq); to <- Gen.oneOf(names))
                  yield if (s(to)) (t, s) else (Rename(c, to, t), s - c + to)),
          1 -> (for ((t, s) <- sub; c <- Gen.oneOf(s.toSeq))
                  yield if (s.size < 2) (t, s) else (AntiProj(c, t), s - c)),
          2 -> (for ((l, ls) <- sub; (r, rs) <- sub) yield (Join(l, r), ls ++ rs)),
          1 -> (for ((l, ls) <- sub; (r, _) <- sub) yield (Antijoin(l, r), ls)),
          2 -> (for ((t, s) <- sub; u <- variant(t, s, depth - 1); swap <- Gen.oneOf(true, false))
                  yield (if (swap) Union(u, t) else Union(t, u), s)),
          2 -> (for ((t, s) <- sub; c <- Gen.oneOf(s.toSeq); b <- Gen.oneOf("E", "S");
                     x = s"X$depth"; phi <- variant(step(RecVar(x), c, b), s, 0))
                  yield (Fix(x, Union(t, phi)), s)))
      }

    private def relation(cols: Vector[String]): Gen[LocalRel] =
      Gen.containerOf[Set, Vector[Any]](Gen.listOfN(cols.size, Gen.choose(1L, 5L)).map(_.toVector))
        .map(rows => LocalRel(cols, rows.toVector.take(8)))

    val cases: Gen[(Term, Map[String, LocalRel])] = for {
      (t, _) <- term(3)
      e <- relation(Vector("src", "trg"))
      s <- relation(Vector("trg", "src")) // another column order: joins and unions must align
      v <- relation(Vector("src"))
    } yield (t, Map("E" -> e, "S" -> s, "V" -> v))
  }

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

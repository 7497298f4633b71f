package repro.exec

import org.apache.spark.sql.types.LongType
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.TestGraphs._

/** μ-RA → SQL generation, executed directly on DuckDB and compared with
  * the in-memory evaluator (no Spark needed).
  */
class SqlGenSpec extends AnyFunSuite {

  private def withDuck[A](tables: Map[String, Set[(Long, Long)]])(f: java.sql.Connection => A): A =
    DuckDb.withConnection { conn =>
      tables.foreach { case (n, rows) =>
        DuckDb.load(conn, n, Seq("src", "trg"), Seq("BIGINT", "BIGINT"), rows.map { case (a, b) => Seq(a, b) })
      }
      f(conn)
    }

  private def gen = new SqlGen(
    relTable = Map("E" -> "e_tab", "S" -> "s_tab"),
    relCols = Map("E" -> Seq("src", "trg"), "S" -> Seq("src", "trg")))

  private def runSql(conn: java.sql.Connection, sql: String, cols: Vector[String]): Set[Vector[Any]] =
    DuckDb.rows(conn.createStatement.executeQuery(sql), cols.map(_ => LongType)).map(_.toSeq.toVector).toSet

  private def check(t: Term): Unit = {
    val (sql, cols) = gen.select(t, Map.empty)
    val local = LocalEval.eval(t, Map("E" -> rel(paperE), "S" -> rel(paperS)))
    val expected = local.aligned(cols).rows.toSet
    val got = withDuck(Map("e_tab" -> paperE, "s_tab" -> paperS))(runSql(_, sql, cols))
    assert(got == expected, s"SQL result differs for ${t.pretty}\n$sql")
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

  test("localFixpointQuery computes a per-partition fixpoint") {
    val (_, varB) = Analysis.decompose(example2)
    val sql = gen.localFixpointQuery(varB, "X", "part_r", Seq("src", "trg"))
    val got = withDuck(Map("e_tab" -> paperE, "part_r" -> paperS))(
      runSql(_, sql, Vector("src", "trg")))
    assert(got.map(v => (v(0).asInstanceOf[Long], v(1).asInstanceOf[Long])) ==
      bruteFrom(paperS, paperE))
  }

  test("string literals are escaped") {
    val g = new SqlGen(Map("G" -> "g_tab"), Map("G" -> Seq("src", "pred", "trg")))
    val (sql, _) = g.select(Filter(EqConst("pred", "it's"), Rel("G")), Map.empty)
    assert(sql.contains("'it''s'"))
  }
}

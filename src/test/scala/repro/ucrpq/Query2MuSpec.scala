package repro.ucrpq

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.TestGraphs._

/** Query2Mu translation, validated by evaluating the translated μ-RA
  * terms with the in-memory evaluator against brute-force references
  * over a small labeled graph.
  */
class Query2MuSpec extends AnyFunSuite {

  // labeled toy graph
  private val g: Set[(Long, String, Long)] = Set(
    (1L, "a", 2L), (2L, "a", 3L), (3L, "a", 4L),
    (2L, "b", 5L), (5L, "b", 6L), (4L, "b", 7L),
    (1L, "c", 5L), (6L, "c", 1L))
  private val env = Map(Query2Mu.GraphRel -> labeledRel(g))
  private val consts: Map[String, Any] = Map("N1" -> 1L, "N4" -> 4L, "N7" -> 7L, "N6" -> 6L)
  private val gcat: Analysis.Catalog = Map(Query2Mu.GraphRel -> Query2Mu.graphSchema)

  private def label(l: String): Set[(Long, Long)] =
    g.collect { case (s, p, t) if p == l => (s, t) }

  private def evalQ(q: String): LocalRel =
    LocalEval.eval(Query2Mu.translate(q, consts), env)

  test("translation is deterministic: recursive variables are named from the term") {
    val q = "?x,?y <- ?x a+/b+/(a|c)+ ?y"
    assert(Query2Mu.translate(q, consts) == Query2Mu.translate(q, consts))
  }

  test("translated terms type-check and satisfy F_cond") {
    val queries = Seq(
      "?x,?y <- ?x a+ ?y", "?x <- ?x a+ N4", "?x <- N1 a+ ?x",
      "?x,?y <- ?x a+/b ?y", "?x,?y <- ?x b/a+ ?y", "?x,?y <- ?x a+/b+ ?y",
      "?x,?y <- ?x (a|b)+ ?y", "?x,?y <- ?x (a/-a)+ ?y",
      "?x,?y,?z <- ?x a+ ?y, ?y b+ ?z")
    queries.foreach { q =>
      val t = Query2Mu.translate(q, consts)
      Analysis.checkFcond(t)
      Analysis.sort(t, gcat)
    }
  }

  test("single label") {
    assert(pairsOf(evalQ("?x,?y <- ?x a ?y"), "x", "y") == label("a"))
  }

  test("inverse label") {
    assert(pairsOf(evalQ("?x,?y <- ?x -a ?y"), "x", "y") == label("a").map(_.swap))
  }

  test("C1: single recursion a+") {
    assert(pairsOf(evalQ("?x,?y <- ?x a+ ?y"), "x", "y") == bruteClosure(label("a")))
  }

  test("C2: filter right of recursion") {
    val r = evalQ("?x <- ?x a+ N4")
    assert(r.cols == Vector("x"))
    assert(r.rows.map(_.head).toSet == bruteClosure(label("a")).filter(_._2 == 4L).map(_._1))
  }

  test("C3: filter left of recursion") {
    val r = evalQ("?x <- N1 a+ ?x")
    assert(r.rows.map(_.head).toSet == bruteClosure(label("a")).filter(_._1 == 1L).map(_._2))
  }

  test("C4: a+/b") {
    assert(pairsOf(evalQ("?x,?y <- ?x a+/b ?y"), "x", "y") ==
      bruteCompose(bruteClosure(label("a")), label("b")))
  }

  test("C5: b/a+") {
    assert(pairsOf(evalQ("?x,?y <- ?x b/a+ ?y"), "x", "y") ==
      bruteCompose(label("b"), bruteClosure(label("a"))))
  }

  test("C6: a+/b+") {
    assert(pairsOf(evalQ("?x,?y <- ?x a+/b+ ?y"), "x", "y") ==
      bruteCompose(bruteClosure(label("a")), bruteClosure(label("b"))))
  }

  test("alternation closure (a|b)+") {
    assert(pairsOf(evalQ("?x,?y <- ?x (a|b)+ ?y"), "x", "y") ==
      bruteClosure(label("a") ++ label("b")))
  }

  test("two-way closure (a/-a)+ (co-something pattern)") {
    val ainv = label("a") ++ Set.empty
    val step = bruteCompose(label("a"), label("a").map(_.swap))
    assert(pairsOf(evalQ("?x,?y <- ?x (a/-a)+ ?y"), "x", "y") == bruteClosure(step))
    val _ = ainv
  }

  test("conjunction joins on shared variables") {
    val exp = for {
      (x, y) <- bruteClosure(label("a"))
      (y2, z) <- bruteClosure(label("b"))
      if y == y2
    } yield (x, y, z)
    val r = evalQ("?x,?y,?z <- ?x a+ ?y, ?y b+ ?z")
    val i = (r.colIdx("x"), r.colIdx("y"), r.colIdx("z"))
    assert(r.rows.map(row => (row(i._1), row(i._2), row(i._3))).toSet ==
      exp.map { case (a, b, c) => (a: Any, b: Any, c: Any) })
  }

  test("head projection drops non-head variables") {
    val r = evalQ("?x <- ?x a+ ?y")
    assert(r.cols == Vector("x"))
    assert(r.rows.map(_.head).toSet == bruteClosure(label("a")).map(_._1))
  }

  test("same variable on both sides becomes a column-equality filter") {
    // cycle through c: 1 -c-> 5, 6 -c-> 1 ... build a query with a loop
    val r = evalQ("?x <- ?x (a/b/c)+ ?x")
    val abc = bruteClosure(bruteCompose(bruteCompose(label("a"), label("b")), label("c")))
    assert(r.rows.map(_.head).toSet == abc.filter(p => p._1 == p._2).map(_._1))
  }

  test("unknown constants are rejected") {
    assertThrows[MuRaError](Query2Mu.translate("?x <- ?x a+ Nope", consts))
  }

  test("unbound head variables are rejected") {
    assertThrows[MuRaError](Query2Mu.translate("?z <- ?x a+ ?y", consts))
  }

  test("reserved variable names are rejected") {
    assertThrows[IllegalArgumentException](Query2Mu.translate("?src <- ?src a+ ?y", consts))
  }

  test("double-constant conjuncts are rejected") {
    assertThrows[MuRaError](Query2Mu.translate("?x <- N1 a+ N4, ?x b ?x", consts))
  }

  test("explored plans of translated queries stay equivalent (end-to-end soundness)") {
    val queries = Seq(
      "?x,?y <- ?x a+ ?y", "?x <- ?x a+ N4", "?x <- N1 a+ ?x",
      "?x,?y <- ?x a+/b ?y", "?x,?y <- ?x b/a+ ?y", "?x,?y <- ?x a+/b+ ?y",
      "?y <- ?x a+ ?y", "?x <- ?x (a/-a)+ N1")
    queries.foreach { q =>
      val t = Query2Mu.translate(q, consts)
      val plans = Rewriter.explore(t, gcat, RewriteConfig.all)
      assert(plans.nonEmpty, q)
      val ref = LocalEval.eval(plans.head, env)
      val refSet = ref.aligned(ref.cols.sorted).rows.toSet
      plans.tail.foreach { p =>
        val r = LocalEval.eval(p, env)
        assert(r.aligned(r.cols.sorted).rows.toSet == refSet, s"$q:\n${p.pretty}")
      }
    }
  }
}

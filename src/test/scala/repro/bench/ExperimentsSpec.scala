package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import Harness.Table

/** The experiment runner's own logic: artifact selection, the marker
  * splice into EXPERIMENTS.md and the per-artifact check. No Spark.
  */
class ExperimentsSpec extends AnyFunSuite {

  private val doc =
    """# Title
      |<!-- BEGIN fig7 -->
      |old fig7
      |<!-- END fig7 -->
      |between
      |<!-- BEGIN fig10 -->
      |old fig10
      |<!-- END fig10 -->
      |tail
      |""".stripMargin

  test("splice replaces only its own block") {
    val out = Experiments.splice(doc, "fig7", "new fig7")
    assert(out == doc.replace("old fig7", "new fig7"))
    assert(Experiments.splice(doc, "fig10", "| a |\n") == doc.replace("old fig10", "| a |"))
  }

  test("splicing twice gives the same document") {
    val once = Experiments.splice(doc, "fig7", "new fig7\n\n")
    assert(Experiments.splice(once, "fig7", "new fig7\n\n") == once)
    val empty = Experiments.splice(doc, "fig10", "")
    assert(Experiments.splice(empty, "fig10", "") == empty)
  }

  test("a missing or duplicated marker pair is an error naming the artifact") {
    val missing = intercept[IllegalArgumentException](Experiments.splice(doc, "fig9", "x"))
    assert(missing.getMessage.startsWith("fig9:"), missing.getMessage)
    val twice = doc + "<!-- BEGIN fig7 -->\n<!-- END fig7 -->\n"
    val dup = intercept[IllegalArgumentException](Experiments.splice(twice, "fig7", "x"))
    assert(dup.getMessage.startsWith("fig7:"), dup.getMessage)
    val noEnd = doc.replace("<!-- END fig10 -->", "")
    assert(intercept[IllegalArgumentException](Experiments.splice(noEnd, "fig10", "x"))
      .getMessage.startsWith("fig10:"))
  }

  test("an unknown artifact id is rejected with the list of valid ids") {
    assert(Experiments.select(Seq("fig9", "table1")).map(_.id) == Seq("fig9", "table1"))
    val e = intercept[IllegalArgumentException](Experiments.select(Seq("fig7", "fig99")))
    assert(e.getMessage.contains("fig99"))
    assert(e.getMessage.contains(Experiments.artifacts.map(_.id).mkString(" ")), e.getMessage)
  }

  test("the check wants every expected row and no failed Dist-mu-RA cell; a timeout passes") {
    val a = Experiments.select(Seq("fig10")).head
    def table(cells: Seq[String]): Table =
      Table("t", Seq("query", "Dist-mu-RA", "GraphX", "result rows"),
        a.rows.map(q => q +: cells))
    Experiments.check(a, table(Seq("0.10 s", "fail(OutOfMemoryError)", "3")))
    Experiments.check(a, table(Seq("timeout", "timeout", "-")))
    val failed = intercept[IllegalStateException](Experiments.check(a, table(Seq("fail(X)", "1 s", "3"))))
    assert(failed.getMessage.startsWith("fig10:") && failed.getMessage.contains("fail(X)"))
    val short = table(Seq("0.10 s", "1 s", "3")).copy(rows = Seq(Seq("n=2", "0.1 s", "1 s", "3")))
    assert(intercept[IllegalStateException](Experiments.check(a, short)).getMessage.contains("n=10"))
  }
}

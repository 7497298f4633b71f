package repro.exec

import repro.core._

/** μ-RA → SQL translation for the RDBMS-backed physical plans
  * (the local loop of a `P_plw^pg` region task and the Centralized μ-RA
  * baseline). Fixpoints become `WITH RECURSIVE … UNION …` — the RDBMS's
  * own semi-naive, set-semantics iteration, which is exactly how the
  * paper's PostgreSQL backend evaluates the local fixpoints.
  *
  * Every generated SELECT projects its columns in lexicographic order so
  * that UNION branches align positionally.
  */
final class SqlGen(relTable: Map[String, String], relCols: Map[String, Seq[String]]) {

  private var n = 0
  private def alias(prefix: String = "t"): String = { n += 1; s"${prefix}_$n" }

  private def id(c: String): String = "\"" + c + "\""

  private def lit(v: Any): String = v match {
    case s: String => "'" + s.replace("'", "''") + "'"
    case other     => String.valueOf(other)
  }

  /** Returns (sql, output columns in the order projected). `rec` maps a
    * recursive variable to (its CTE name, its columns).
    */
  def select(t: Term, rec: Map[String, (String, Set[String])]): (String, Vector[String]) = t match {
    case Rel(name) =>
      val cols = relCols(name).sorted.toVector
      (s"SELECT ${cols.map(id).mkString(", ")} FROM ${relTable(name)}", cols)

    case RecVar(x) =>
      val (tbl, cs) = rec.getOrElse(x, throw MuRaError(s"unbound recursive variable $x in SQL gen"))
      val cols = cs.toVector.sorted
      (s"SELECT ${cols.map(id).mkString(", ")} FROM $tbl", cols)

    case Filter(cond, s) =>
      val (sql, cols) = select(s, rec)
      val a = alias()
      val condSql = cond match {
        case EqConst(c, v) => s"$a.${id(c)} = ${lit(v)}"
        case EqCols(x, y)  => s"$a.${id(x)} = $a.${id(y)}"
      }
      (s"SELECT ${cols.map(c => s"$a.${id(c)}").mkString(", ")} FROM ($sql) AS $a WHERE $condSql", cols)

    case Join(l, r) =>
      val (ls, lc) = select(l, rec)
      val (rs, rc) = select(r, rec)
      val a = alias(); val b = alias()
      val common = lc.toSet intersect rc.toSet
      val out = (lc.toSet ++ rc.toSet).toVector.sorted
      val proj = out.map { c =>
        if (lc.contains(c)) s"$a.${id(c)} AS ${id(c)}" else s"$b.${id(c)} AS ${id(c)}"
      }.mkString(", ")
      if (common.isEmpty)
        (s"SELECT $proj FROM ($ls) AS $a CROSS JOIN ($rs) AS $b", out)
      else {
        val on = common.toVector.sorted.map(c => s"$a.${id(c)} = $b.${id(c)}").mkString(" AND ")
        (s"SELECT $proj FROM ($ls) AS $a JOIN ($rs) AS $b ON $on", out)
      }

    case Antijoin(l, r) =>
      val (ls, lc) = select(l, rec)
      val (rs, rc) = select(r, rec)
      val a = alias(); val b = alias()
      val common = lc.toSet intersect rc.toSet
      val where =
        if (common.isEmpty) s"NOT EXISTS (SELECT 1 FROM ($rs) AS $b)"
        else {
          val on = common.toVector.sorted.map(c => s"$a.${id(c)} = $b.${id(c)}").mkString(" AND ")
          s"NOT EXISTS (SELECT 1 FROM ($rs) AS $b WHERE $on)"
        }
      (s"SELECT ${lc.map(c => s"$a.${id(c)}").mkString(", ")} FROM ($ls) AS $a WHERE $where", lc)

    case Union(l, r) =>
      val (ls, lc) = select(l, rec)
      val (rs, rc) = select(r, rec)
      require(lc == rc, s"union columns differ: $lc vs $rc")
      (s"($ls) UNION ($rs)", lc)

    case AntiProj(c, s) =>
      val (sql, cols) = select(s, rec)
      val out = cols.filterNot(_ == c)
      val a = alias()
      (s"SELECT DISTINCT ${out.map(x => s"$a.${id(x)}").mkString(", ")} FROM ($sql) AS $a", out)

    case Rename(f, to, s) =>
      val (sql, cols) = select(s, rec)
      val a = alias()
      val out = (cols.filterNot(_ == f) :+ to).sorted
      val proj = out.map { c =>
        if (c == to) s"$a.${id(f)} AS ${id(to)}" else s"$a.${id(c)} AS ${id(c)}"
      }.mkString(", ")
      (s"SELECT $proj FROM ($sql) AS $a", out)

    case fix @ Fix(x, _) =>
      val (constB, varB) = fix.branches
      val (baseSqls, baseColsList) = constB.map(select(_, rec)).unzip
      val cols = baseColsList.head
      require(baseColsList.forall(_ == cols), "fixpoint constant parts project different columns")
      val fx = alias("fx")
      val base = baseSqls.map(s => s"($s)").mkString(" UNION ")
      if (varB.isEmpty) (s"(WITH $fx AS ($base) SELECT * FROM $fx)", cols)
      else {
        val recEnv = rec + (x -> (fx, cols.toSet))
        val stepSqls = varB.map { b =>
          val (s, c) = select(b, recEnv)
          require(c == cols, s"fixpoint step projects $c, expected $cols")
          s"($s)"
        }
        // Single parenthesized recursive term: the initial part and the
        // recursive part of the CTE must be the two operands of one UNION.
        val step = stepSqls.mkString(" UNION ")
        (s"(WITH RECURSIVE $fx AS (($base) UNION ($step)) SELECT ${cols.map(id).mkString(", ")} FROM $fx)", cols)
      }
  }
}

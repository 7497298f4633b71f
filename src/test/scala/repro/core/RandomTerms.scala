package repro.core

import org.scalacheck.Gen

/** Random well-sorted μ-RA terms over E(src,trg), S(trg,src) and V(src),
  * with their sort, and small random relations to run them on. Unions
  * pair a term with a sort-preserving change of it; closures are linear:
  * `μ(X = t ∪ f(step(X)))`, where `step` moves one column of X along an
  * edge and `f` may filter or antijoin. Every term passes F_cond.
  */
object RandomTerms {
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

  /** A linear closure whose constant part is `t`, of sort `s`. */
  private def closure(t: Term, s: Set[String], depth: Int): Gen[Term] =
    for (c <- Gen.oneOf(s.toSeq); b <- Gen.oneOf("E", "S");
         x = s"X$depth"; phi <- variant(step(RecVar(x), c, b), s, 0))
      yield Fix(x, Union(t, phi))

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
        2 -> (for ((t, s) <- sub; f <- closure(t, s, depth)) yield (f, s)))
    }

  /** A closure under one more operator: a join, a union, an
    * anti-projection or a filter.
    */
  def topped(depth: Int): Gen[Term] =
    for {
      (t, s) <- term(depth - 1)
      f <- closure(t, s, depth)
      top <- Gen.oneOf(
        for ((u, _) <- term(1); swap <- Gen.oneOf(true, false)) yield if (swap) Join(u, f) else Join(f, u),
        for (u <- variant(f, s, 1)) yield Union(f, u),
        for (c <- Gen.oneOf(s.toSeq)) yield if (s.size < 2) f else AntiProj(c, f),
        for (c <- Gen.oneOf(s.toSeq); v <- Gen.choose(1L, 5L)) yield Filter(EqConst(c, v), f))
    } yield top

  private def relation(cols: Vector[String]): Gen[LocalRel] =
    Gen.containerOf[Set, Vector[Any]](Gen.listOfN(cols.size, Gen.choose(1L, 5L)).map(_.toVector))
      .map(rows => LocalRel(cols, rows.toVector.take(8)))

  /** E, S and V: at most 8 rows of values 1 to 5 each. S lists its
    * columns in another order, so joins and unions must align them.
    */
  val relations: Gen[Map[String, LocalRel]] = for {
    e <- relation(Vector("src", "trg"))
    s <- relation(Vector("trg", "src"))
    v <- relation(Vector("src"))
  } yield Map("E" -> e, "S" -> s, "V" -> v)

  /** A term of [[term]] at depth 3 with relations to run it on. */
  val cases: Gen[(Term, Map[String, LocalRel])] =
    for ((t, _) <- term(3); env <- relations) yield (t, env)
}

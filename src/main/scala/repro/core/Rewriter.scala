package repro.core

import java.util.IdentityHashMap
import scala.collection.mutable
import Analysis.{Catalog, RecEnv}

/** Which rewrite rules a system is allowed to use. Dist-μ-RA enables all
  * of them; the baseline configurations disable the rules the paper says
  * the corresponding system lacks (Sec. VI): BigDatalog has no fixpoint
  * reversal and no fixpoint merging, Myria performs no logical
  * optimization of recursion at all.
  */
final case class RewriteConfig(
    pushFilter: Boolean = true,
    pushJoin: Boolean = true,
    pushAntiProj: Boolean = true,
    reverse: Boolean = true,
    merge: Boolean = true,
    maxPlans: Int = 64,
) { def anyEnabled: Boolean = pushFilter || pushJoin || pushAntiProj || reverse || merge }

object RewriteConfig {
  val all: RewriteConfig = RewriteConfig()
  /** Magic-sets-level optimization: push in the written direction only. */
  val bigDatalogLite: RewriteConfig =
    RewriteConfig(reverse = false, merge = false, pushAntiProj = false)
  /** No logical optimization of recursion. */
  val none: RewriteConfig =
    RewriteConfig(pushFilter = false, pushJoin = false, pushAntiProj = false,
                  reverse = false, merge = false)
}

/** The MuRewriter of Sec. III: explores the space of semantically
  * equivalent logical plans.
  *
  *  - [[normalize]] performs the classical, always-beneficial moves:
  *    sinking filters and anti-projections toward the leaves (filters
  *    below anti-projections) and sinking renames into fixpoints (pure
  *    column relabeling), so that the fixpoint-specific rules below see
  *    their redexes.
  *  - [[explore]] applies the five fixpoint rules of Sec. III — pushing
  *    filters / joins / anti-projections into fixpoints, reversing
  *    fixpoints, merging fixpoints — with breadth-first bounded search,
  *    deduplicating plans by α-equivalence.
  */
object Rewriter {

  // ---------------------------------------------------------------------
  // Normalization
  // ---------------------------------------------------------------------

  /** Normal form of `t`, by one innermost walk: normalise the children
    * (the env extended at a `Fix`), try one [[localNorm]] step at the root
    * and, if one applies, normalise its result. Every step moves a σ or
    * π̃ strictly down or sinks a ρ into a fixpoint, so the walk ends.
    * Returns `t` itself when nothing changes.
    */
  def normalize(t: Term, cat: Catalog): Term = norm(t, new Memo(cat), Map.empty)

  private def norm(t: Term, m: Memo, rec: RecEnv): Term = {
    val kept = m.normal.get(t)
    if (kept != null) return kept
    val inner = t match {
      case fix @ Fix(x, _) => rec + (x -> Analysis.sort(fix, m, rec))
      case _               => rec
    }
    val u = t.mapChildren(norm(_, m, inner))
    val n = localNorm(u, m, rec).fold(u)(norm(_, m, rec))
    // A normal form is its own normal form: a plan built on it re-walks
    // only the path that was rebuilt.
    m.keep(m.normal, n, n)
    m.keep(m.normal, t, n)
  }

  /** One local normalization step at the root of `u`, if any applies. */
  private def localNorm(u: Term, m: Memo, rec: RecEnv): Option[Term] = u match {
    // --- filter sinking -------------------------------------------------
    case Filter(c, Union(l, r)) => Some(Union(Filter(c, l), Filter(c, r)))
    case Filter(c, AntiProj(d, s)) => Some(AntiProj(d, Filter(c, s)))
    case Filter(c, Rename(f, o, s)) => Some(Rename(f, o, Filter(c.rename(o, f), s)))
    case Filter(c, Antijoin(l, r)) => Some(Antijoin(Filter(c, l), r))
    case Filter(c, Join(l, r)) =>
      val sl = Analysis.sort(l, m, rec); val sr = Analysis.sort(r, m, rec)
      if (c.cols.subsetOf(sl) && !c.cols.subsetOf(sr)) Some(Join(Filter(c, l), r))
      else if (c.cols.subsetOf(sr) && !c.cols.subsetOf(sl)) Some(Join(l, Filter(c, r)))
      else if (c.cols.subsetOf(sl) && c.cols.subsetOf(sr)) Some(Join(Filter(c, l), Filter(c, r)))
      else None

    // --- anti-projection sinking ----------------------------------------
    case AntiProj(c, Union(l, r)) => Some(Union(AntiProj(c, l), AntiProj(c, r)))
    case AntiProj(c, Rename(f, o, s)) =>
      if (c == o) Some(AntiProj(f, s)) else Some(Rename(f, o, AntiProj(c, s)))
    case AntiProj(c, Join(l, r)) =>
      val sl = Analysis.sort(l, m, rec); val sr = Analysis.sort(r, m, rec)
      val common = sl intersect sr
      if (common.contains(c)) None
      else if (sl.contains(c)) Some(Join(AntiProj(c, l), r))
      else Some(Join(l, AntiProj(c, r)))
    case AntiProj(c, Antijoin(l, r)) =>
      val common = Analysis.sort(l, m, rec) intersect Analysis.sort(r, m, rec)
      if (common.contains(c)) None else Some(Antijoin(AntiProj(c, l), r))

    // --- rename sinking into fixpoints (pure relabeling) ----------------
    case Rename(f, to, Fix(x, body)) if relabelSafe(body, to, m.cat) =>
      Some(Fix(x, Term.renameEverywhere(body, f, to, m.cat(_))))
    case _ => None
  }

  /** A relabel target is safe when it is not used in the term and does not
    * clash with the schema of any base relation mentioning the source.
    */
  private def relabelSafe(body: Term, to: String, cat: Catalog): Boolean =
    !body.allColNames.contains(to) && body.freeRels.forall(n => !cat(n).contains(to))

  // ---------------------------------------------------------------------
  // Spine analysis (the path(s) from occurrences of X up to the root of a
  // variable branch) — preconditions of the push rules.
  // ---------------------------------------------------------------------

  /** The columns the spine of `t` filters, drops, renames or joins on
    * (for a join or antijoin: the partner's whole sort).
    */
  private def spineCols(t: Term, x: String, m: Memo, rec: RecEnv): Set[String] =
    if (!t.usesRec(x)) Set.empty
    else t match {
      case Filter(c, s)    => spineCols(s, x, m, rec) ++ c.cols
      case AntiProj(c, s)  => spineCols(s, x, m, rec) + c
      case Rename(f, o, s) => spineCols(s, x, m, rec) + f + o
      case Join(l, r) =>
        if (l.usesRec(x)) spineCols(l, x, m, rec) ++ Analysis.sort(r, m, rec)
        else spineCols(r, x, m, rec) ++ Analysis.sort(l, m, rec)
      case Antijoin(l, r) => spineCols(l, x, m, rec) ++ Analysis.sort(r, m, rec)
      case Union(l, r)    => spineCols(l, x, m, rec) ++ spineCols(r, x, m, rec)
      case RecVar(_) | Rel(_) | Fix(_, _) => Set.empty // x cannot occur in Rel/Fix under F_cond
    }

  // ---------------------------------------------------------------------
  // Linear-fixpoint recognition (closures and base-extended closures)
  // ---------------------------------------------------------------------

  /** A recognized linear fixpoint over a binary sort: a single variable
    * branch `π̃_k(ρ_{xCol}^k(X) ⋈ ρ_{eCol}^k(E))` with E constant.
    * Semantically: each step joins X's `xCol` end with E's `eCol` end and
    * keeps E's other end, i.e. the recursion extends paths on the `xCol`
    * side.
    */
  final case class LinearFix(x: String, constBranches: List[Term], e: Term,
                             xCol: String, eCol: String, k: String, sort: Set[String])

  def recognizeLinear(fix: Fix, cat: Catalog): Option[LinearFix] = recognizeLinear(fix, new Memo(cat))

  private def recognizeLinear(fix: Fix, m: Memo): Option[LinearFix] = {
    val xSort = Analysis.sort(fix, m, Map.empty)
    if (xSort.size != 2) return None
    val varB = Analysis.decompose(fix, m)._2
    if (varB.size != 1) return None
    varB.head match {
      case AntiProj(k, Join(a, b)) =>
        def split(p: Term, q: Term): Option[LinearFix] = p match {
          case Rename(xc, `k`, RecVar(fix.x)) =>
            q match {
              case Rename(ec, `k`, e) if e.freeRecVars.isEmpty
                  && xSort.contains(xc) && xSort.contains(ec)
                  && Analysis.sort(e, m, Map.empty) == xSort =>
                Some(LinearFix(fix.x, fix.branches._1, e, xc, ec, k, xSort))
              case _ => None
            }
          case _ => None
        }
        split(a, b).orElse(split(b, a))
      case _ => None
    }
  }

  /** True when the fixpoint is a *pure closure* `E+`: its constant part is
    * α-equivalent to its step relation. Only pure closures can be
    * reversed (`E+` computed left-to-right equals `E+` computed
    * right-to-left); base-extended closures `R∘E*` cannot.
    */
  def isPureClosure(lf: LinearFix, cat: Catalog): Boolean = isPureClosure(lf, new Memo(cat))

  private def isPureClosure(lf: LinearFix, m: Memo): Boolean =
    lf.constBranches match {
      case List(r) => Analysis.canonical(r, m) == Analysis.canonical(lf.e, m)
      case _       => false
    }

  // ---------------------------------------------------------------------
  // Fixpoint rewrite rules
  // ---------------------------------------------------------------------

  private def rebuildFix(x: String, constBranches: List[Term], varBranches: List[Term]): Fix =
    Fix(x, Term.unionAll(constBranches ++ varBranches))

  /** σ_cond(μ(X = R ∪ φ)) → μ(X = σ_cond(R) ∪ φ) when every column the
    * condition reads is stable (Sec. III "pushing filters into fixpoints").
    */
  private def pushFilterRule(u: Term, m: Memo): Vector[Term] = u match {
    case Filter(cond, fix @ Fix(x, _)) if fix.freeRecVars.isEmpty =>
      if (!cond.cols.subsetOf(Stabilizer.stableCols(fix, m))) Vector.empty
      else {
        val (constB, varB) = fix.branches
        Vector(rebuildFix(x, constB.map(Filter(cond, _)), varB))
      }
    case _ => Vector.empty
  }

  /** T ⋈ μ(X = R ∪ φ) → μ(X = (T ⋈ R) ∪ φ) when the join columns are all
    * stable and T's extra columns cannot be captured inside φ (clashing
    * extras are relabeled to fresh names and renamed back outside).
    */
  private def pushJoinRule(u: Term, m: Memo): Vector[Term] = u match {
    case Join(a, b) =>
      def attempt(tConst: Term, fix: Fix): Option[Term] = {
        if (tConst.freeRecVars.nonEmpty || fix.freeRecVars.nonEmpty) return None
        val stable = Stabilizer.stableCols(fix, m)
        val fixSort = Analysis.sort(fix, m, Map.empty)
        val tSort = Analysis.sort(tConst, m, Map.empty)
        val j = tSort intersect fixSort
        if (j.isEmpty || !j.subsetOf(stable)) return None
        val extras = tSort -- j
        val (constB, varB) = fix.branches
        val hazards: Set[String] =
          varB.flatMap(spineCols(_, fix.x, m, Map(fix.x -> fixSort))).toSet ++ fix.body.allColNames
        // Relabel clashing extra columns of T to fresh names; rename back
        // outside the new fixpoint.
        var t2 = tConst
        var outer = List.empty[(String, String)] // fresh -> original
        var avoid = hazards ++ tSort ++ fixSort ++ tConst.allColNames
        extras.toSeq.sorted.foreach { e =>
          if (hazards.contains(e)) {
            val f = Fresh.col(avoid, "j"); avoid += f
            t2 = Rename(e, f, t2)
            outer ::= (f -> e)
          }
        }
        val pushed = rebuildFix(fix.x, constB.map(Join(t2, _)), varB)
        Some(outer.foldLeft(pushed: Term) { case (acc, (f, e)) => Rename(f, e, acc) })
      }
      (a, b) match {
        case (t, f: Fix) => attempt(t, f).toVector ++ (t match {
          case tf: Fix => attempt(b, tf).toVector
          case _       => Vector.empty
        })
        case (f: Fix, t) => attempt(t, f).toVector
        case _           => Vector.empty
      }
    case _ => Vector.empty
  }

  /** π̃_c(μ(X = R ∪ φ)) → μ(X = π̃_c(R) ∪ φ) when c is stable and φ never
    * reads X's column c (it is a pure passthrough): c is then dead inside
    * the fixpoint and dropping it early shrinks every iteration.
    */
  private def pushAntiProjRule(u: Term, m: Memo): Vector[Term] = u match {
    case AntiProj(c, fix @ Fix(x, _)) if fix.freeRecVars.isEmpty =>
      if (!Stabilizer.stableCols(fix, m).contains(c)) Vector.empty
      else {
        val (constB, varB) = fix.branches
        val xs = Analysis.sort(fix, m, Map.empty)
        if (varB.exists(spineCols(_, x, m, Map(x -> xs)).contains(c))) Vector.empty
        else Vector(rebuildFix(x, constB.map(AntiProj(c, _)), varB))
      }
    case _ => Vector.empty
  }

  /** Reverse a *pure closure*: μ(X = E ∪ X∘E) ↔ μ(X = E ∪ E∘X). Both
    * denote E+; reversing changes which column is stable, enabling pushes
    * on the other side (Sec. III "reversing a fixpoint").
    */
  private def reverseRule(u: Term, m: Memo): Vector[Term] = u match {
    case fix: Fix if fix.freeRecVars.isEmpty =>
      recognizeLinear(fix, m) match {
        case Some(lf) if isPureClosure(lf, m) =>
          // swap roles: X now renamed on the column E was renamed on, etc.
          val step = AntiProj(lf.k, Join(
            Rename(lf.eCol, lf.k, RecVar(lf.x)),
            Rename(lf.xCol, lf.k, lf.e)))
          Vector(rebuildFix(lf.x, lf.constBranches, List(step)))
        case _ => Vector.empty
      }
    case _ => Vector.empty
  }

  /** Merge two concatenated linear fixpoints (Sec. III "merging
    * fixpoints"):
    *
    *   π̃_m(F1 ⋈ F2) with F1 = A*∘R1 over (s,m) and F2 = R2∘B* over (m,t)
    *   →  μ(Z = π̃_m(R1 ⋈ R2) ∪ A∘Z ∪ Z∘B)
    *
    * sound because composition distributes over union, so the result is
    * ∪_{i,j} A^i ∘ R1 ∘ R2 ∘ B^j on both sides. F1 must extend on its
    * non-shared side "to the left" and F2 "to the right"; the reverse rule
    * supplies those orientations for pure closures.
    */
  private def mergeRule(u: Term, memo: Memo): Vector[Term] = u match {
    case AntiProj(m, Join(a: Fix, b: Fix))
        if a.freeRecVars.isEmpty && b.freeRecVars.isEmpty =>
      (recognizeLinear(a, memo), recognizeLinear(b, memo)) match {
        case (Some(l1), Some(l2)) =>
          val s1 = l1.sort; val s2 = l2.sort
          if ((s1 intersect s2) != Set(m)) return Vector.empty
          val s = (s1 - m).head // F1's non-shared column
          val t = (s2 - m).head // F2's non-shared column
          // F1 must prepend A on its s side: its step renames X on s and A on m.
          // F2 must append B on its t side: its step renames X on t and B on m.
          if (l1.xCol != s || l1.eCol != m || l2.xCol != t || l2.eCol != m)
            return Vector.empty
          val base = AntiProj(m, Join(Term.unionAll(l1.constBranches), Term.unionAll(l2.constBranches)))
          val z = Fresh.recVar(base.recVarNames ++ l1.e.recVarNames ++ l2.e.recVarNames)
          val avoid = l1.e.allColNames ++ l2.e.allColNames ++ Set(s, m, t) ++
            l1.constBranches.flatMap(_.allColNames) ++ l2.constBranches.flatMap(_.allColNames)
          val k1 = Fresh.col(avoid, "k")
          val k2 = Fresh.col(avoid + k1, "k")
          val prepend = AntiProj(k1, Join(Rename(m, k1, l1.e), Rename(s, k1, RecVar(z))))
          val append  = AntiProj(k2, Join(Rename(t, k2, RecVar(z)), Rename(m, k2, l2.e)))
          Vector(Fix(z, Union(base, Union(prepend, append))))
        case _ => Vector.empty
      }
    case _ => Vector.empty
  }

  // ---------------------------------------------------------------------
  // Bounded plan-space exploration
  // ---------------------------------------------------------------------

  private def enabledRules(cfg: RewriteConfig): Vector[(Term, Memo) => Vector[Term]] = {
    val b = Vector.newBuilder[(Term, Memo) => Vector[Term]]
    if (cfg.pushFilter) b += pushFilterRule
    if (cfg.pushJoin) b += pushJoinRule
    if (cfg.pushAntiProj) b += pushAntiProjRule
    if (cfg.reverse) b += reverseRule
    if (cfg.merge) b += mergeRule
    b.result()
  }

  /** Apply `rule` at every position of `t`, returning each whole term
    * with exactly one redex rewritten.
    */
  private def applyEverywhere(t: Term, m: Memo, rule: (Term, Memo) => Vector[Term],
                              kept: IdentityHashMap[Term, Vector[Term]]): Vector[Term] = {
    val k = kept.get(t)
    if (k != null) return k
    val cs = t.children
    m.keep(kept, t, cs.indices.foldLeft(rule(t, m)) { (acc, i) =>
      acc ++ applyEverywhere(cs(i), m, rule, kept).map(t.withChild(i, _))
    })
  }

  /** Cost-guided best-first exploration of the plan space: start from
    * the normalized input; repeatedly expand the cheapest not-yet-expanded
    * plan by applying every enabled rule at every position, re-normalize,
    * deduplicate by α-equivalence. `rank` orders the frontier (pass the
    * cost estimate — beneficial rewrites like pushed filters make plans
    * cheaper, so chains of 4–5 rewrites are reached long before the
    * expansion budget runs out; with the default constant rank this
    * degenerates to breadth-first search). Expands at most `cfg.maxPlans`
    * plans. Returns every discovered plan (including the input), each
    * semantically equivalent to the input.
    */
  def explore(t0: Term, cat: Catalog, cfg: RewriteConfig,
              rank: Term => Double = _ => 0.0): Vector[Term] = explore(t0, new Memo(cat), cfg, rank)

  /** [[explore]] with every analysis and normal form kept in `m`, which
    * `rank` may share.
    */
  def explore(t0: Term, m: Memo, cfg: RewriteConfig, rank: Term => Double): Vector[Term] = {
    val start = norm(t0, m, Map.empty)
    if (!cfg.anyEnabled) return Vector(start)
    // Each rule fires only at closed nodes, so the rewrites of a closed
    // subterm are the same in every plan that shares it: kept per rule.
    val rules = enabledRules(cfg).map(_ -> new IdentityHashMap[Term, Vector[Term]])
    val seen = mutable.LinkedHashMap.empty[Term, Term] // canonical -> representative
    // min-heap on rank; insertion index breaks ties FIFO
    implicit val ord: Ordering[(Double, Long, Term)] =
      Ordering.by[(Double, Long, Term), (Double, Long)](e => (-e._1, -e._2))
    val frontier = mutable.PriorityQueue.empty[(Double, Long, Term)]
    var counter = 0L
    def add(t: Term): Unit = {
      if (seen.size >= cfg.maxPlans * 8) return // frontier memory bound
      val key = Analysis.canonical(t, m)
      if (!seen.contains(key)) {
        seen(key) = t
        counter += 1
        frontier.enqueue((rank(t), counter, t))
      }
    }
    add(start)
    var expansions = 0
    while (frontier.nonEmpty && expansions < cfg.maxPlans) {
      if (Thread.interrupted()) throw new InterruptedException("plan exploration cancelled")
      val (_, _, t) = frontier.dequeue()
      expansions += 1
      rules.foreach { case (rule, kept) =>
        applyEverywhere(t, m, rule, kept).foreach { t2 =>
          add(norm(t2, m, Map.empty))
        }
      }
    }
    seen.values.toVector
  }
}

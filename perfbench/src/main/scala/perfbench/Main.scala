package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Callable, ExecutionException, Executors, ThreadFactory, TimeUnit, TimeoutException}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Analysis, Cost, Rewriter, Term}
import repro.ucrpq.Query2Mu
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Closed-loop query benchmark over `Engines.distMuRA`: one driver thread
  * issues a workload's queries one after another on `local[nproc]`, with
  * `nPartitions = defaultParallelism`.
  *
  *  - `--trace 0` times each query from `runQuery`/`run` until `.count()`
  *    returns and reports the end-to-end metrics.
  *  - `--trace 1` calls each layer's public functions one after another,
  *    each in a span with its own Spark job group, and reports the
  *    per-layer metrics; a [[JobListener]] adds job spans and counters.
  *
  * Every run first checks each query's row count and row checksum
  * against a reference computed without the rewriter (see [[Reference]]),
  * and checks the row count of every later execution.
  */
object Main {

  final case class Args(workload: String = "", seed: Long = 1, seconds: Double = 10,
                        trace: Boolean = false, outDir: Path = Paths.get("."),
                        refDir: Path = Paths.get("."), timeoutS: Double = 30,
                        corruptReference: Boolean = false, commit: String = "unknown")

  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case Nil                                => a
    case "--workload" :: v :: rest          => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest              => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest           => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest             => parse(rest, a.copy(trace = v == "1"))
    case "--out-dir" :: v :: rest           => parse(rest, a.copy(outDir = Paths.get(v)))
    case "--ref-dir" :: v :: rest           => parse(rest, a.copy(refDir = Paths.get(v)))
    case "--timeout-s" :: v :: rest         => parse(rest, a.copy(timeoutS = v.toDouble))
    case "--corrupt-reference" :: rest      => parse(rest, a.copy(corruptReference = true))
    case "--commit" :: v :: rest            => parse(rest, a.copy(commit = v))
    case other :: _ => throw new IllegalArgumentException(s"unknown argument $other")
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else { val s = xs.sorted; s(math.min(s.size - 1, math.ceil(p * s.size).toInt - 1).max(0)) }

  def secs(ns: Long): Double = ns / 1e9
  def ms(ns: Long): Double = ns / 1e6

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList)
    val wl = Workloads(args.workload)
    val nproc = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val code = new Bench(spark, wl, args).run()
    // A timed-out query may still be running on the driver thread; exit
    // rather than wait for it (Spark's shutdown hook stops the context).
    sys.exit(code)
  }
}

final class Bench(spark: SparkSession, wl: Workload, args: Main.Args) {
  import Main._

  private val sc = spark.sparkContext
  private val Setups = 7
  private val nPartitions = sc.defaultParallelism
  private val cores = Runtime.getRuntime.availableProcessors()

  // ---------------------------------------------------------------- runner

  private val worker = Executors.newSingleThreadExecutor(new ThreadFactory {
    def newThread(r: Runnable): Thread = { val t = new Thread(r, "perfbench-driver"); t.setDaemon(true); t }
  })

  /** Set once a query times out: its driver-side work may still be
    * running, so every later query of the run counts as failed instead
    * of being timed against leftover work.
    */
  private var aborted: Option[String] = None
  private var attempted = 0L
  private val failures = mutable.ArrayBuffer.empty[String]

  private def fail(msg: String): Unit = { failures += msg; Console.err.println(s"[perfbench] FAIL $msg") }

  /** Run `body` on the driver thread under the per-query timeout. */
  private def guarded[A](what: String, group: String)(body: => A): Option[A] = {
    attempted += 1
    if (aborted.nonEmpty) { fail(s"$what: not run (${aborted.get})"); return None }
    val fut = worker.submit(new Callable[A] {
      def call(): A = { sc.setJobGroup(group, what, interruptOnCancel = true); body }
    })
    try Some(fut.get((args.timeoutS * 1000).toLong, TimeUnit.MILLISECONDS))
    catch {
      case _: TimeoutException =>
        sc.cancelAllJobs()
        fut.cancel(true)
        aborted = Some(s"after timeout of $what")
        fail(s"$what: timeout after ${args.timeoutS} s")
        None
      case e: ExecutionException =>
        fail(s"$what: ${e.getCause}")
        None
    }
  }

  private var data: Map[String, Dataset] = Map.empty
  private var refs: Map[String, Expected] = Map.empty

  private def runDf(q: BenchQuery): DataFrame = data(q.data).engine.runQuery(q.ucrpq)

  private def checkRows(what: String, q: BenchQuery, rows: Long): Unit =
    if (rows != refs(q.id).rows) fail(s"$what: $rows rows, expected ${refs(q.id).rows}")

  // ----------------------------------------------------------------- set-up

  /** Generate and cache the graphs, gather statistics and run the warm-up
    * queries; repeated [[Setups]] times (the first one runs on a cold JVM),
    * the last set-up is kept.
    */
  private def setup(): Seq[Double] = (1 to Setups).map { _ =>
    data.values.foreach(_.catalog.values.foreach(_.unpersist(true)))
    val t0 = System.nanoTime()
    data = wl.setup(spark, args.seed, nPartitions)
    wl.warmQueries.foreach(q => runDf(q).count())
    secs(System.nanoTime() - t0)
  }

  /** The reference file is keyed by the generated data (row count and
    * checksum of every base relation) and the translated terms, so a
    * reference is never reused for other data or other queries.
    */
  private def referencePath: Path = {
    val relations = data.toSeq.sortBy(_._1).flatMap { case (dn, d) =>
      d.catalog.toSeq.sortBy(_._1).map { case (r, df) => s"$dn.$r=${Checksum.of(df)}" }
    }
    val terms = wl.queries.map(q => s"${q.id}=${q.translated(data(q.data).constants)}")
    val h = java.security.MessageDigest.getInstance("SHA-256")
      .digest((wl.name +: (relations ++ terms)).mkString("\n").getBytes(StandardCharsets.UTF_8))
      .take(6).map("%02x".format(_)).mkString
    args.refDir.resolve(s"${wl.name}-seed${args.seed}-$h.tsv")
  }

  private def loadReference(): Double = {
    val t0 = System.nanoTime()
    val file = referencePath
    refs = Reference.load(file).getOrElse {
      val r = wl.queries.groupBy(_.data).toSeq.flatMap { case (dn, qs) =>
        val d = data(dn)
        Reference.compute(d.catalog, qs.map(q => q.id -> q.translated(d.constants))).toSeq
      }.toMap
      Reference.save(file, r)
      r
    }
    if (args.corruptReference) {
      val q = wl.queries.head.id
      refs += q -> refs(q).copy(checksum = refs(q).checksum + 1)
    }
    secs(System.nanoTime() - t0)
  }

  /** One untimed pass that checks row count and checksum of every query. */
  private def verify(): Unit = wl.queries.foreach { q =>
    guarded(s"verify ${q.id}", s"pb|verify|${q.id}") {
      val df = runDf(q)
      (df.columns.toSeq.sorted, Checksum.of(df))
    }.foreach { case (cols, (rows, sum)) =>
      val e = refs(q.id)
      if (cols != e.cols) fail(s"verify ${q.id}: columns $cols, expected ${e.cols}")
      else if (rows != e.rows) fail(s"verify ${q.id}: $rows rows, expected ${e.rows}")
      else if (sum != e.checksum) fail(s"verify ${q.id}: checksum $sum, expected ${e.checksum}")
    }
  }

  // --------------------------------------------------------- untimed pass

  /** One untraced pass; returns its wall time and per-query times. */
  private def untracedPass(pass: Int): Option[(Double, Seq[(String, Double)])] = {
    val t0 = System.nanoTime()
    val times = wl.queries.flatMap { q =>
      guarded(s"pass $pass ${q.id}", s"pb|u$pass|${q.id}") {
        val s = System.nanoTime()
        val n = runDf(q).count()
        (System.nanoTime() - s, n)
      }.map { case (ns, n) => checkRows(s"pass $pass ${q.id}", q, n); q.id -> secs(ns) }
    }
    if (times.size == wl.queries.size) Some((secs(System.nanoTime() - t0), times)) else None
  }

  // ----------------------------------------------------------- traced pass

  private val tracer = new Tracer
  private val listener = new JobListener
  val phases: Seq[String] = Seq("translate", "analysis", "explore", "select", "build", "materialize")

  final case class QueryTrace(id: String, span: Span, phaseSpans: Map[String, Span], plans: Int,
                              rankCalls: Long, rows: Long, estRows: Double)

  private def tracedQuery(pass: Int, q: BenchQuery): Option[QueryTrace] = {
    val d = data(q.data)
    val eng = d.engine
    val group = (ph: String) => s"pb|t$pass|${q.id}|$ph"
    guarded(s"traced pass $pass ${q.id}", group("translate")) {
      val root = tracer.open(-1, "query", q.id, pass)
      def phase[A](ph: String)(f: => A): (A, Span) = {
        sc.setJobGroup(group(ph), s"$ph ${q.id}", interruptOnCancel = true)
        tracer.span(root.id, ph, q.id, pass)(f)
      }
      val (t, s1) = phase("translate")(Query2Mu.translate(q.ucrpq, d.constants))
      val (_, s2) = phase("analysis") { Analysis.checkFcond(t); Analysis.sort(t, eng.cat) }
      var rankCalls = 0L
      val rank = (p: Term) => { rankCalls += 1; Cost.estimate(p, eng.stats, eng.cat).cost }
      val (cands, s3) = phase("explore")(Rewriter.explore(t, eng.cat, eng.cfg.rewrite, rank))
      val (plan, s4) = phase("select")(Cost.best(cands, eng.stats, eng.cat))
      val (df, s5) = phase("build")(eng.execute(plan))
      val (rows, s6) = phase("materialize")(df.count())
      tracer.close(root)
      val est = Cost.estimate(plan, eng.stats, eng.cat).rows
      QueryTrace(q.id, root, Seq(s1, s2, s3, s4, s5, s6).map(s => s.name -> s).toMap,
        cands.size, rankCalls, rows, est)
    }.map { qt => checkRows(s"traced pass $pass ${q.id}", q, qt.rows); qt }
  }

  /** Per-layer sums of one traced pass (see BENCHMARK.json `per_layer`).
    * The listener is registered only for the pass, so its cost counts in
    * the traced pass time and in no other.
    */
  private def tracedPass(pass: Int): Option[(ListMap[String, Double], Seq[QueryTrace])] = {
    sc.addSparkListener(listener)
    val t0 = System.nanoTime()
    val qts =
      try wl.queries.flatMap(tracedQuery(pass, _))
      finally { listener.settle(sc); sc.removeSparkListener(listener) }
    val wall = secs(System.nanoTime() - t0)
    if (qts.size != wl.queries.size) return None
    val m = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val qerrors = mutable.ArrayBuffer.empty[Double]
    qts.foreach { qt =>
      val g = (ph: String) => s"pb|t$pass|${qt.id}|$ph"
      var phaseSum = 0L
      phases.foreach { ph =>
        val s = qt.phaseSpans(ph)
        phaseSum += s.durNs
        val jobs = listener.jobsOf(g(ph))
        jobs.foreach(j => tracer.add(s.id, s"job ${j.jobId}", qt.id, pass, j.startNs, j.endNs))
        val cover = Trace.covered(s.startNs, s.endNs, jobs.map(j => (j.startNs, j.endNs)))
        val a = listener.aggOf(g(ph))
        m("spark.jobs") += jobs.size
        m("spark.stages") += a.stages
        m("spark.tasks") += a.tasks
        m("spark.job_wall_ms") += ms(cover) // AQE runs some stages as concurrent jobs
        m("spark.shuffle_write_bytes") += a.shuffleWrite
        m("spark.shuffle_read_bytes") += a.shuffleRead
        m("spark.result_bytes") += a.resultBytes
        m("spark.task_run_ms") += a.runMs
        m("spark.task_cpu_ms") += a.cpuNs / 1e6
        m("spark.gc_ms") += a.gcMs
        m(s"self.$ph.ms") += ms(s.durNs - cover)
        if (ph == "build") { m("spark.build.jobs") += jobs.size }
        if (ph == "build" || ph == "materialize") m("exec.driver_gap_ms") += ms(s.durNs - cover)
        if (ph == "materialize") m("spark.materialize.task_run_ms") += a.runMs
      }
      val ps = qt.phaseSpans
      m("ucrpq.translate_ms") += ms(ps("translate").durNs)
      m("analysis.check_ms") += ms(ps("analysis").durNs)
      m("rewriter.explore_ms") += ms(ps("explore").durNs)
      m("rewriter.plans") += qt.plans
      m("cost.select_ms") += ms(ps("select").durNs)
      m("cost.rank_calls") += qt.rankCalls
      m("exec.build_ms") += ms(ps("build").durNs)
      m("exec.materialize_ms") += ms(ps("materialize").durNs)
      m("result.rows") += qt.rows
      m("trace.uncovered_ms") += ms(qt.span.durNs - phaseSum)
      val est = math.max(1.0, qt.estRows); val act = math.max(1.0, qt.rows.toDouble)
      qerrors += math.max(est / act, act / est)
    }
    m("cost.qerror_p50") = median(qerrors.toSeq)
    m("spark.core_util") =
      if (m("spark.job_wall_ms") > 0) m("spark.task_run_ms") / (m("spark.job_wall_ms") * cores) else 0.0
    m("trace.mix_s") = wall
    Some((ListMap.from(m), qts))
  }

  // -------------------------------------------------------------- the run

  def run(): Int = {
    val wallStart = System.nanoTime()
    val setups = setup()
    val refS = loadReference()
    verify()
    // The first pass after set-up is still the slowest (JIT, Spark's code
    // caches), so it runs as a warm-up and is left out of every metric.
    val warmupS = untracedPass(0).map(_._1)
    val untraced = mutable.ArrayBuffer.empty[(Double, Seq[(String, Double)])]
    val traced = mutable.ArrayBuffer.empty[(ListMap[String, Double], Seq[QueryTrace])]
    val t0 = System.nanoTime()
    def timeLeft: Boolean = secs(System.nanoTime() - t0) < args.seconds
    // Traced runs order their passes untraced, traced, traced, untraced and
    // end after a whole block of four, so the tracing overhead compares
    // passes made under the same drift. A pass with a failed query ends
    // the measurement.
    def isTraced(pass: Int): Boolean = args.trace && (pass % 4 == 2 || pass % 4 == 3)
    var pass = 0
    var complete = warmupS.nonEmpty
    while (complete && aborted.isEmpty && (timeLeft || untraced.isEmpty || (args.trace && pass % 4 != 0))) {
      pass += 1
      complete =
        if (isTraced(pass)) tracedPass(pass).map(traced += _).nonEmpty
        else untracedPass(pass).map(untraced += _).nonEmpty
    }
    val measureS = secs(System.nanoTime() - t0)
    val queryTimes = untraced.flatMap(_._2.map(_._2)).toSeq
    val mixS = median(untraced.map(_._1).toSeq)

    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    val heapMb = (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)

    val failed = failures.size.toLong
    val metrics: ListMap[String, (Double, String)] =
      if (!args.trace) ListMap(
        "mix_s" -> (mixS, "s"),
        "query_p50_s" -> (median(queryTimes), "s"),
        "setup_s" -> (median(setups), "s"),
        "driver_heap_mb" -> (heapMb, "MB"))
      else tracedMetrics(traced.toSeq, mixS)

    val meta = ListMap[String, Any](
      "commit" -> args.commit,
      "workload" -> wl.name,
      "seed" -> args.seed,
      "trace" -> (if (args.trace) 1 else 0),
      "seconds" -> args.seconds,
      "timeout_s" -> args.timeoutS,
      "setups" -> Setups,
      "nproc" -> cores,
      "spark_master" -> sc.master,
      "spark_version" -> spark.version,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "nPartitions" -> nPartitions,
      "xmx" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .find(_.startsWith("-Xmx")).getOrElse(s"${rt.maxMemory() / (1024 * 1024)}m (default)"),
      "jvm_options" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")),
      "java_version" -> System.getProperty("java.version"),
      "sizes" -> wl.sizes,
      "edges" -> ListMap.from(data.toSeq.sortBy(_._1).map { case (n, d) => n -> d.edges }),
      "queries" -> wl.queries.map(_.id))

    val perQuery = wl.queries.map { q =>
      val ts = untraced.flatMap(_._2.filter(_._1 == q.id).map(_._2)).toSeq
      q.id -> ListMap("median_s" -> median(ts), "runs" -> ts.size, "rows" -> refs.get(q.id).map(_.rows))
    }
    val report = ListMap[String, Any](
      "meta" -> meta,
      "correct" -> failures.isEmpty,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> ListMap.from(metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) }),
      "extra" -> ListMap(
        "failed_frac" -> failed.toDouble / attempted,
        "query_p90_s" -> percentile(queryTimes, 0.9),
        "query_samples" -> queryTimes.size,
        "untraced_passes" -> untraced.size,
        "traced_passes" -> traced.size,
        "warmup_pass_s" -> warmupS,
        "pass_s" -> untraced.map(_._1).toSeq,
        "setup_s_each" -> setups,
        "reference_s" -> refS,
        "measure_s" -> measureS,
        "run_s" -> secs(System.nanoTime() - wallStart)),
      "per_query" -> ListMap.from(perQuery),
      "failures" -> failures.toSeq) ++
      (if (args.trace) tracedDetails(traced.toSeq) else ListMap.empty)

    Files.createDirectories(args.outDir)
    val base = s"${wl.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    Files.write(args.outDir.resolve(s"$base.json"), Json(report).getBytes(StandardCharsets.UTF_8))
    if (args.trace) writeSpans(args.outDir.resolve(s"$base.spans.jsonl"))
    0
  }

  private def tracedMetrics(traced: Seq[(ListMap[String, Double], Seq[QueryTrace])],
                            untracedMix: Double): ListMap[String, (Double, String)] = {
    def med(k: String): Double = median(traced.map(_._1.getOrElse(k, 0.0)))
    def unit(k: String): String =
      if (k.endsWith("_ms")) "ms"
      else if (k.endsWith("_s")) "s"
      else if (k.endsWith("_bytes")) "bytes"
      else if (k == "cost.qerror_p50" || k == "spark.core_util") "ratio"
      else "count"
    val keys = Seq("ucrpq.translate_ms", "analysis.check_ms", "rewriter.explore_ms", "rewriter.plans",
      "cost.select_ms", "cost.rank_calls", "cost.qerror_p50", "exec.build_ms", "spark.build.jobs",
      "spark.result_bytes", "exec.driver_gap_ms", "exec.materialize_ms", "spark.materialize.task_run_ms",
      "spark.jobs", "spark.stages", "spark.tasks", "spark.job_wall_ms", "spark.shuffle_write_bytes",
      "spark.shuffle_read_bytes", "spark.task_run_ms", "spark.task_cpu_ms", "spark.gc_ms",
      "spark.core_util", "result.rows", "trace.mix_s", "trace.uncovered_ms")
    ListMap.from(keys.map(k => k -> (med(k), unit(k)))) +
      ("trace.overhead_s" -> (med("trace.mix_s") - untracedMix, "s"))
  }

  /** Counts that must repeat exactly from pass to pass. `spark.result_bytes`
    * is not one: task results carry the tasks' own serialized timings.
    */
  val exactCounts: Seq[String] = Seq("spark.jobs", "spark.stages", "spark.tasks", "spark.shuffle_write_bytes",
    "spark.shuffle_read_bytes", "rewriter.plans", "cost.rank_calls", "result.rows")

  private def tracedDetails(traced: Seq[(ListMap[String, Double], Seq[QueryTrace])]): ListMap[String, Any] = {
    val counts = exactCounts.map(k => k -> traced.map(_._1.getOrElse(k, 0.0)).distinct)
    val last = traced.lastOption.map(_._2).getOrElse(Seq.empty)
    ListMap(
      "self_ms" -> ListMap.from(phases.map(ph => ph -> median(traced.map(_._1.getOrElse(s"self.$ph.ms", 0.0))))),
      "counts_per_pass" -> ListMap.from(counts),
      "counts_repeat" -> counts.forall(_._2.size <= 1),
      "per_query_trace" -> ListMap.from(last.map { qt =>
        qt.id -> ListMap(
          "wall_ms" -> ms(qt.span.durNs),
          "uncovered_ms" -> ms(qt.span.durNs - qt.phaseSpans.values.map(_.durNs).sum),
          "plans" -> qt.plans,
          "rank_calls" -> qt.rankCalls,
          "rows" -> qt.rows,
          "est_rows" -> qt.estRows,
          "phase_ms" -> ListMap.from(phases.map(ph => ph -> ms(qt.phaseSpans(ph).durNs))))
      }))
  }

  private def writeSpans(file: Path): Unit = {
    val lines = tracer.spans.map { s =>
      Json(ListMap("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "query" -> s.query,
        "pass" -> s.pass, "start_ns" -> s.startNs, "end_ns" -> s.endNs))
    }
    Files.write(file, lines.asJava, StandardCharsets.UTF_8)
  }
}

/** Minimal JSON rendering for the report (maps keep their order). */
object Json {
  private def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def apply(v: Any): String = v match {
    case null | None              => "null"
    case Some(x)                  => apply(x)
    case s: String                => str(s)
    case b: Boolean               => b.toString
    case d: Double                => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float                 => apply(f.toDouble)
    case n: Number                => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => str(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]          => xs.map(apply).mkString("[", ", ", "]")
    case other                    => str(other.toString)
  }
}

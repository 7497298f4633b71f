package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** DataFrame builders for test graphs. */
object SparkTestData {

  private val pairSchema = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("trg", LongType, nullable = false)))

  private val tripleSchema = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("pred", StringType, nullable = false),
    StructField("trg", LongType, nullable = false)))

  def edgeDf(spark: SparkSession, edges: Set[(Long, Long)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(edges.toSeq.map(e => Row(e._1, e._2)), 4), pairSchema)

  def labeledDf(spark: SparkSession, triples: Set[(Long, String, Long)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(triples.toSeq.map(e => Row(e._1, e._2, e._3)), 4), tripleSchema)

  def toPairs(df: DataFrame): Set[(Long, Long)] = toPairs(df, "src", "trg")

  def toPairs(df: DataFrame, c1: String, c2: String): Set[(Long, Long)] = {
    val si = df.columns.indexOf(c1); val ti = df.columns.indexOf(c2)
    df.collect().map(r => (r.getLong(si), r.getLong(ti))).toSet
  }

  def toLongs(df: DataFrame): Set[Long] =
    df.collect().map(_.getLong(0)).toSet
}

package org.apache.spark.sql

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
import org.apache.spark.sql.types._

/** DataFrames over rows of plain values, built without the `Row`
  * encoder. `SparkSession.internalCreateDataFrame`, which takes rows in
  * Catalyst's internal form, is `private[sql]`, hence this package.
  */
object ValueRows {

  /** The conversion of a non-null value of `dt` to Catalyst's form. A
    * number is itself, unless it is boxed as another type: the
    * dictionary of `repro.core.LocalEval` gives equal numbers of two types
    * one code, which decodes to the first one encoded.
    */
  private def converter(dt: DataType): Any => Any = {
    def number(box: Class[_], as: Number => Any): Any => Any =
      v => if (v.getClass eq box) v else as(v.asInstanceOf[Number])
    dt match {
      case BooleanType => identity
      case ByteType    => number(classOf[java.lang.Byte], _.byteValue)
      case ShortType   => number(classOf[java.lang.Short], _.shortValue)
      case IntegerType => number(classOf[java.lang.Integer], _.intValue)
      case LongType    => number(classOf[java.lang.Long], _.longValue)
      case FloatType   => number(classOf[java.lang.Float], _.floatValue)
      case DoubleType  => number(classOf[java.lang.Double], _.doubleValue)
      case _           => CatalystTypeConverters.createToCatalystConverter(dt)
    }
  }

  /** A DataFrame of `schema` whose logical plan is one scan of `rows`,
    * each an array of the values of `schema`'s fields in that order, as
    * Scala or Java values. Each array is converted in place and becomes
    * the row: the columns Catalyst stores in another form (`String` as
    * `UTF8String`, dates, decimals, …) are converted, and booleans, nulls
    * and numbers of the column's type pass through unchanged.
    */
  def dataFrame(spark: SparkSession, rows: RDD[Array[Any]], schema: StructType): DataFrame = {
    val types = schema.fields.map(_.dataType)
    val internal = rows.mapPartitions { it =>
      val convert = types.map(converter)
      it.map { r =>
        var i = 0
        while (i < r.length) {
          if (r(i) != null) r(i) = convert(i)(r(i))
          i += 1
        }
        new GenericInternalRow(r): InternalRow
      }
    }
    castToImpl(spark).internalCreateDataFrame(internal, schema)
  }
}

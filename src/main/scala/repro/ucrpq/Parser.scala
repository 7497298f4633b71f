package repro.ucrpq

/** Raised on malformed UCRPQ input. */
final case class ParseError(msg: String) extends RuntimeException(msg)

/** Hand-rolled recursive-descent parser for the paper's UCRPQ syntax:
  *
  * {{{
  * ?x, ?y <- ?x isMarriedTo/knows+ ?y, ?x livesIn Japan
  * ?a     <- ?a (actedIn/-actedIn)+ Kevin_Bacon
  * ?a,?b  <- ?a (isL | dw | rdfs:subClassOf)+ ?b
  * }}}
  *
  * Alternation inside parentheses can be separated by `|` or by
  * whitespace (both appear in the paper's query listings). `<-` and `←`
  * are accepted. Identifiers may contain letters, digits, `_` and `:`.
  */
object UcrpqParser {

  private sealed trait Tok
  private final case class TVar(n: String) extends Tok
  private final case class TIdent(n: String) extends Tok
  private case object TArrow extends Tok
  private case object TComma extends Tok
  private case object TSlash extends Tok
  private case object TPlus extends Tok
  private case object TLParen extends Tok
  private case object TRParen extends Tok
  private case object TPipe extends Tok
  private case object TDash extends Tok

  private def isIdentChar(c: Char): Boolean =
    c.isLetterOrDigit || c == '_' || c == ':' || c == '\''

  private def tokenize(s: String): Vector[Tok] = {
    val out = Vector.newBuilder[Tok]
    var i = 0
    while (i < s.length) {
      val c = s(i)
      if (c.isWhitespace) i += 1
      else if (c == '?') {
        var j = i + 1
        while (j < s.length && isIdentChar(s(j))) j += 1
        if (j == i + 1) throw ParseError(s"empty variable name at $i")
        out += TVar(s.substring(i + 1, j)); i = j
      } else if (c == '<' && i + 1 < s.length && s(i + 1) == '-') { out += TArrow; i += 2 }
      else if (c == '←') { out += TArrow; i += 1 }
      else if (c == ',') { out += TComma; i += 1 }
      else if (c == '/') { out += TSlash; i += 1 }
      else if (c == '+') { out += TPlus; i += 1 }
      else if (c == '(') { out += TLParen; i += 1 }
      else if (c == ')') { out += TRParen; i += 1 }
      else if (c == '|') { out += TPipe; i += 1 }
      else if (c == '-') { out += TDash; i += 1 }
      else if (isIdentChar(c)) {
        var j = i
        while (j < s.length && isIdentChar(s(j))) j += 1
        out += TIdent(s.substring(i, j)); i = j
      } else throw ParseError(s"unexpected character '$c' at $i in: $s")
    }
    out.result()
  }

  private final class P(toks: Vector[Tok]) {
    private var pos = 0
    def peek: Option[Tok] = if (pos < toks.length) Some(toks(pos)) else None
    def next(): Tok = {
      if (pos >= toks.length) throw ParseError("unexpected end of input")
      val t = toks(pos); pos += 1; t
    }
    def expect(t: Tok): Unit = {
      val got = if (pos < toks.length) toks(pos) else null
      if (got != t) throw ParseError(s"expected $t, got $got at token $pos")
      pos += 1
    }
    def eof: Boolean = pos >= toks.length

    private def headVar(): String = next() match {
      case TVar(n) => n
      case other   => throw ParseError(s"expected head variable, got $other")
    }

    def fullQuery(): Query = {
      val heads = List.newBuilder[String]
      heads += headVar()
      while (peek.contains(TComma)) { next(); heads += headVar() }
      expect(TArrow)
      val cs = List.newBuilder[Conjunct]
      cs += conjunct()
      while (peek.contains(TComma)) { next(); cs += conjunct() }
      if (!eof) throw ParseError(s"trailing tokens after query")
      Query(heads.result(), cs.result())
    }

    def conjunct(): Conjunct = {
      val l = endpoint()
      val p = seq()
      val r = endpoint()
      Conjunct(l, p, r)
    }

    private def endpoint(): Endpoint = next() match {
      case TVar(n)   => QVar(n)
      case TIdent(n) => QConst(n)
      case other     => throw ParseError(s"expected endpoint, got $other")
    }

    /** seq := item (SLASH item)*; stops before a token that cannot start
      * an item continuation.
      */
    def seq(): Path = {
      val items = List.newBuilder[Path]
      items += item()
      while (peek.contains(TSlash)) { next(); items += item() }
      items.result() match {
        case List(p) => p
        case ps      => Concat(ps)
      }
    }

    private def item(): Path = {
      var p = atom()
      while (peek.contains(TPlus)) { next(); p = Plus(p) }
      p
    }

    private def atom(): Path = next() match {
      case TIdent(n) => Label(n)
      case TDash =>
        next() match {
          case TIdent(n) => Inv(n)
          case other     => throw ParseError(s"expected label after '-', got $other")
        }
      case TLParen =>
        val alts = List.newBuilder[Path]
        alts += seq()
        var done = false
        while (!done) peek match {
          case Some(TPipe)             => next(); alts += seq()
          case Some(TIdent(_) | TDash | TLParen) => alts += seq() // space-separated alternation
          case Some(TRParen)           => next(); done = true
          case other                   => throw ParseError(s"unexpected $other in alternation")
        }
        alts.result() match {
          case List(p) => p
          case ps      => Alt(ps)
        }
      case other => throw ParseError(s"expected path atom, got $other")
    }
  }

  /** Parse a full UCRPQ. */
  def parse(s: String): Query = new P(tokenize(s)).fullQuery()
}

#include "sql/parser.hpp"

#include <algorithm>
#include <charconv>

#include "sql/lexer.hpp"

namespace quotient {
namespace sql {

namespace {

/// Recursive-descent parser over the token stream. Errors are thrown as
/// ParseError internally and converted to Result at the boundary.
struct ParseError {
  std::string message;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  std::shared_ptr<SqlQuery> ParseQueryToEnd() {
    auto query = ParseSelect();
    ParseOrderLimitTail(query.get());
    Expect(TokenKind::kEnd, "end of input");
    return query;
  }

  std::shared_ptr<SqlStatement> ParseStatementToEnd() {
    auto statement = std::make_shared<SqlStatement>();
    if (Peek().IsKeyword("BEGIN")) {
      Advance();
      AcceptTransactionNoise();
      statement->kind = SqlStatement::Kind::kBegin;
    } else if (Peek().IsKeyword("COMMIT")) {
      Advance();
      AcceptTransactionNoise();
      statement->kind = SqlStatement::Kind::kCommit;
    } else if (Peek().IsKeyword("ROLLBACK")) {
      Advance();
      AcceptTransactionNoise();
      statement->kind = SqlStatement::Kind::kRollback;
    } else if (Peek().IsKeyword("INSERT")) {
      statement->kind = SqlStatement::Kind::kInsert;
      statement->insert = ParseInsert();
    } else if (Peek().IsKeyword("DELETE")) {
      statement->kind = SqlStatement::Kind::kDelete;
      statement->del = ParseDelete();
    } else {
      statement->kind = SqlStatement::Kind::kSelect;
      statement->select = ParseSelect();
      ParseOrderLimitTail(statement->select.get());
    }
    Expect(TokenKind::kEnd, "end of input");
    return statement;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = position_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[position_++]; }
  bool AcceptKeyword(const char* word) {
    if (Peek().IsKeyword(word)) {
      ++position_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* symbol) {
    if (Peek().IsSymbol(symbol)) {
      ++position_;
      return true;
    }
    return false;
  }
  void ExpectKeyword(const char* word) {
    if (!AcceptKeyword(word)) Fail(std::string("expected ") + word);
  }
  void ExpectSymbol(const char* symbol) {
    if (!AcceptSymbol(symbol)) Fail(std::string("expected '") + symbol + "'");
  }
  void Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) Fail(std::string("expected ") + what);
    ++position_;
  }
  [[noreturn]] void Fail(const std::string& message) const {
    throw ParseError{message + " at position " + std::to_string(Peek().position) + " (near '" +
                     Peek().text + "')"};
  }

  std::string ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) Fail("expected identifier");
    return Advance().text;
  }

  /// One level of nesting for the current scope (kMaxNestingDepth).
  class Nested {
   public:
    explicit Nested(Parser* parser) : parser_(parser) {
      if (++parser_->depth_ > kMaxNestingDepth) {
        parser_->Fail("nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels");
      }
    }
    ~Nested() { --parser_->depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser* parser_;
  };

  /// One more level on an expression path of `depth` levels
  /// (kMaxExpressionDepth).
  size_t Deeper(size_t depth) const {
    if (depth + 1 > kMaxExpressionDepth) {
      Fail("expression deeper than " + std::to_string(kMaxExpressionDepth) + " levels");
    }
    return depth + 1;
  }

  /// The numeric token `token` (optionally negated) as an int or real
  /// Value; a literal its type cannot represent is a parse error.
  static Value NumberLiteral(const Token& token, bool negative) {
    std::string text = negative ? "-" + token.text : token.text;
    bool is_int = text.find('.') == std::string::npos;
    int64_t i = 0;
    double d = 0;
    const char* end = text.data() + text.size();
    std::from_chars_result parsed = is_int ? std::from_chars(text.data(), end, i)
                                           : std::from_chars(text.data(), end, d);
    if (parsed.ec != std::errc() || parsed.ptr != end) {
      throw ParseError{std::string(is_int ? "integer" : "real") +
                       " literal out of range at position " + std::to_string(token.position)};
    }
    return is_int ? Value::Int(i) : Value::Real(d);
  }

  std::shared_ptr<SqlQuery> ParseSelect() {
    ExpectKeyword("SELECT");
    auto query = std::make_shared<SqlQuery>();
    query->distinct = AcceptKeyword("DISTINCT");
    // Select list.
    if (AcceptSymbol("*")) {
      SelectItem item;
      item.star = true;
      query->items.push_back(std::move(item));
    } else {
      do {
        SelectItem item;
        item.expr = ParseExpr();
        if (AcceptKeyword("AS")) {
          item.alias = ExpectIdent();
        } else if (item.expr->kind == SqlExpr::Kind::kColumn) {
          item.alias = item.expr->name;
        }
        query->items.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    ExpectKeyword("FROM");
    do {
      query->from.push_back(ParseTableRef());
    } while (AcceptSymbol(","));
    if (AcceptKeyword("WHERE")) query->where = ParseCondition();
    if (AcceptKeyword("GROUP")) {
      ExpectKeyword("BY");
      do {
        query->group_by.push_back(ParseExpr());
      } while (AcceptSymbol(","));
      if (AcceptKeyword("HAVING")) query->having = ParseCondition();
    }
    return query;
  }

  /// The optional TRANSACTION/WORK noise word after BEGIN/COMMIT/ROLLBACK.
  void AcceptTransactionNoise() {
    if (!AcceptKeyword("TRANSACTION")) AcceptKeyword("WORK");
  }

  /// INSERT INTO table VALUES (literal, ...) [, (literal, ...)]*
  /// Values must be literals (optionally sign-prefixed numbers): DML does
  /// not flow through the plan cache, so '?' slots are not supported.
  SqlInsert ParseInsert() {
    ExpectKeyword("INSERT");
    ExpectKeyword("INTO");
    SqlInsert insert;
    insert.table = ExpectIdent();
    ExpectKeyword("VALUES");
    do {
      ExpectSymbol("(");
      std::vector<Value> row;
      do {
        row.push_back(ParseLiteralValue());
      } while (AcceptSymbol(","));
      ExpectSymbol(")");
      insert.rows.push_back(std::move(row));
    } while (AcceptSymbol(","));
    return insert;
  }

  /// DELETE FROM table [WHERE condition]
  SqlDelete ParseDelete() {
    ExpectKeyword("DELETE");
    ExpectKeyword("FROM");
    SqlDelete del;
    del.table = ExpectIdent();
    if (AcceptKeyword("WHERE")) del.where = ParseCondition();
    return del;
  }

  Value ParseLiteralValue() {
    bool negative = AcceptSymbol("-");
    const Token& token = Peek();
    if (token.kind == TokenKind::kNumber) {
      Advance();
      return NumberLiteral(token, negative);
    }
    if (token.kind == TokenKind::kString && !negative) {
      Advance();
      return Value::Str(token.text);
    }
    Fail("expected literal value");
  }

  /// [ORDER BY expr [ASC|DESC] (',' ...)*] [LIMIT n] — top statement level
  /// only; subqueries reject both (their callers expect ')' next).
  void ParseOrderLimitTail(SqlQuery* query) {
    if (AcceptKeyword("ORDER")) {
      ExpectKeyword("BY");
      do {
        OrderItem item;
        item.expr = ParseExpr();
        if (!AcceptKeyword("ASC")) item.descending = AcceptKeyword("DESC");
        query->order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("LIMIT")) {
      const Token& token = Peek();
      if (token.kind != TokenKind::kNumber || token.text.find('.') != std::string::npos) {
        Fail("expected row count after LIMIT");
      }
      Advance();
      query->limit = NumberLiteral(token, /*negative=*/false).as_int();
    }
  }

  TableRef ParseTableFactor() {
    TableRef ref;
    if (AcceptSymbol("(")) {
      Nested nested(this);
      ref.subquery = ParseSelect();
      ExpectSymbol(")");
      AcceptKeyword("AS");
      ref.alias = ExpectIdent();
    } else {
      ref.table = ExpectIdent();
      ref.alias = ref.table;
      if (AcceptKeyword("AS")) {
        ref.alias = ExpectIdent();
      } else if (Peek().kind == TokenKind::kIdent) {
        ref.alias = Advance().text;  // bare alias
      }
    }
    return ref;
  }

  TableRef ParseTableRef() {
    TableRef ref = ParseTableFactor();
    if (AcceptKeyword("DIVIDE")) {
      ExpectKeyword("BY");
      ref.divisor = std::make_shared<TableRef>(ParseTableFactor());
      ExpectKeyword("ON");
      ref.on_condition = ParseCondition();
    }
    return ref;
  }

  // condition := or_term; or_term := and_term (OR and_term)*
  //
  // Every Parse* that returns an expression leaves its depth in chain links
  // and parenthesized levels (kMaxExpressionDepth) in expr_depth_.
  SqlExprPtr ParseCondition() {
    SqlExprPtr left = ParseAnd();
    size_t depth = expr_depth_;
    while (AcceptKeyword("OR")) {
      depth = Deeper(depth);
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kOr;
      node->left = left;
      node->right = ParseAnd();
      depth = std::max(depth, Deeper(expr_depth_));
      left = node;
    }
    expr_depth_ = depth;
    return left;
  }

  SqlExprPtr ParseAnd() {
    SqlExprPtr left = ParseCondUnary();
    size_t depth = expr_depth_;
    while (AcceptKeyword("AND")) {
      depth = Deeper(depth);
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kAnd;
      node->left = left;
      node->right = ParseCondUnary();
      depth = std::max(depth, Deeper(expr_depth_));
      left = node;
    }
    expr_depth_ = depth;
    return left;
  }

  SqlExprPtr ParseCondUnary() {
    if (AcceptKeyword("NOT")) {
      Nested nested(this);
      // NOT EXISTS is folded into the EXISTS node.
      if (Peek().IsKeyword("EXISTS")) {
        SqlExprPtr exists = ParseCondUnary();
        exists->negated = true;
        return exists;
      }
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kNot;
      node->left = ParseCondUnary();
      return node;
    }
    if (AcceptKeyword("EXISTS")) {
      ExpectSymbol("(");
      Nested nested(this);
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kExists;
      node->subquery = ParseSelect();
      ExpectSymbol(")");
      expr_depth_ = 0;
      return node;
    }
    if (Peek().IsSymbol("(")) {
      // Parenthesized condition.
      ExpectSymbol("(");
      Nested nested(this);
      SqlExprPtr inner = ParseCondition();
      ExpectSymbol(")");
      expr_depth_ = Deeper(expr_depth_);
      return inner;
    }
    // expr [cmp expr | (NOT) IN (subquery)]
    SqlExprPtr left = ParseExpr();
    size_t left_depth = expr_depth_;
    for (const char* op : {"=", "<>", "<=", ">=", "<", ">"}) {
      if (AcceptSymbol(op)) {
        auto node = std::make_shared<SqlExpr>();
        node->kind = SqlExpr::Kind::kCompare;
        node->op = op;
        node->left = left;
        node->right = ParseExpr();
        expr_depth_ = std::max(left_depth, expr_depth_);
        return node;
      }
    }
    bool negated_in = false;
    if (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("IN")) {
      Advance();
      negated_in = true;
    }
    if (AcceptKeyword("IN")) {
      ExpectSymbol("(");
      Nested nested(this);
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kInSubquery;
      node->left = left;
      node->negated = negated_in;
      node->subquery = ParseSelect();
      ExpectSymbol(")");
      expr_depth_ = left_depth;
      return node;
    }
    return left;  // bare boolean expression
  }

  SqlExprPtr ParseExpr() {  // additive
    SqlExprPtr left = ParseTerm();
    size_t depth = expr_depth_;
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      std::string op = Advance().text;
      depth = Deeper(depth);
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kArith;
      node->op = op;
      node->left = left;
      node->right = ParseTerm();
      depth = std::max(depth, Deeper(expr_depth_));
      left = node;
    }
    expr_depth_ = depth;
    return left;
  }

  SqlExprPtr ParseTerm() {
    SqlExprPtr left = ParsePrimary();
    size_t depth = expr_depth_;
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      std::string op = Advance().text;
      depth = Deeper(depth);
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kArith;
      node->op = op;
      node->left = left;
      node->right = ParsePrimary();
      depth = std::max(depth, Deeper(expr_depth_));
      left = node;
    }
    expr_depth_ = depth;
    return left;
  }

  SqlExprPtr ParsePrimary() {
    auto node = std::make_shared<SqlExpr>();
    const Token& token = Peek();
    expr_depth_ = 0;  // a leaf; the aggregate and parenthesized cases set their own
    // Aggregate functions.
    for (const char* fn : {"COUNT", "SUM", "MIN", "MAX", "AVG"}) {
      if (token.IsKeyword(fn)) {
        Advance();
        ExpectSymbol("(");
        Nested nested(this);
        node->kind = SqlExpr::Kind::kAggregate;
        node->name = fn;
        if (AcceptSymbol("*")) {
          node->count_star = true;  // expr_depth_ stays 0
        } else {
          node->left = ParseExpr();
        }
        ExpectSymbol(")");
        return node;
      }
    }
    if (token.IsSymbol("?")) {
      Advance();
      node->kind = SqlExpr::Kind::kParam;
      node->param_index = next_param_++;
      return node;
    }
    if (token.kind == TokenKind::kNumber) {
      Advance();
      node->kind = SqlExpr::Kind::kLiteral;
      node->literal = NumberLiteral(token, /*negative=*/false);
      return node;
    }
    if (token.kind == TokenKind::kString) {
      Advance();
      node->kind = SqlExpr::Kind::kLiteral;
      node->literal = Value::Str(token.text);
      return node;
    }
    if (token.kind == TokenKind::kIdent) {
      Advance();
      node->kind = SqlExpr::Kind::kColumn;
      node->name = token.text;
      if (AcceptSymbol(".")) {
        node->qualifier = node->name;
        node->name = ExpectIdent();
      }
      return node;
    }
    if (AcceptSymbol("(")) {
      Nested nested(this);
      SqlExprPtr inner = ParseExpr();
      ExpectSymbol(")");
      expr_depth_ = Deeper(expr_depth_);
      return inner;
    }
    Fail("expected expression");
  }

  std::vector<Token> tokens_;
  size_t position_ = 0;
  size_t next_param_ = 0;  // '?' ordinals, assigned left to right
  size_t depth_ = 0;       // open nesting levels (Nested)
  size_t expr_depth_ = 0;  // depth of the expression last parsed (Deeper)
};

}  // namespace

Result<std::shared_ptr<SqlQuery>> ParseQuery(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return Result<std::shared_ptr<SqlQuery>>::Error(tokens.error());
  return ParseTokens(std::move(tokens).value());
}

Result<std::shared_ptr<SqlQuery>> ParseTokens(std::vector<Token> tokens) {
  try {
    Parser parser(std::move(tokens));
    return parser.ParseQueryToEnd();
  } catch (const ParseError& error) {
    return Result<std::shared_ptr<SqlQuery>>::Error(error.message);
  }
}

Result<std::shared_ptr<SqlStatement>> ParseStatement(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return Result<std::shared_ptr<SqlStatement>>::Error(tokens.error());
  return ParseStatementTokens(std::move(tokens).value());
}

Result<std::shared_ptr<SqlStatement>> ParseStatementTokens(std::vector<Token> tokens) {
  try {
    Parser parser(std::move(tokens));
    return parser.ParseStatementToEnd();
  } catch (const ParseError& error) {
    return Result<std::shared_ptr<SqlStatement>>::Error(error.message);
  }
}

}  // namespace sql
}  // namespace quotient

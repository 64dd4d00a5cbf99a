#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtdb {
namespace sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x = 5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Tokenize("SELECT 'o''brien'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[1].text, "o'brien");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(LexerTest, Operators) {
  auto tokens = Tokenize("<= >= <> != < > =");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLe);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kGe);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kLt);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kGt);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kEq);
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseSelect("SELECT Beds FROM Account17 WHERE Hospital = 'State'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items.size(), 1u);
  EXPECT_EQ((*stmt)->from.size(), 1u);
  EXPECT_EQ((*stmt)->from[0].table_name, "Account17");
  ASSERT_NE((*stmt)->where, nullptr);
}

TEST(ParserTest, SelectStar) {
  auto stmt = ParseSelect("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->select_star);
}

TEST(ParserTest, QualifiedColumnsAndAliases) {
  auto stmt = ParseSelect(
      "SELECT p.id AS pid, c.col1 FROM parent p, child c "
      "WHERE p.id = c.parent");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].alias, "pid");
  EXPECT_EQ((*stmt)->from[0].alias, "p");
  EXPECT_EQ((*stmt)->from[1].alias, "c");
}

TEST(ParserTest, ExplicitJoinFlattensIntoWhere) {
  auto stmt = ParseSelect(
      "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE b.x = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->from.size(), 2u);
  // ON + WHERE are both conjuncts now.
  std::vector<ParsedExprPtr> conjuncts;
  SplitParsedConjuncts(*(*stmt)->where, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 2u);
}

TEST(ParserTest, SubqueryInFrom) {
  auto stmt = ParseSelect(
      "SELECT x.beds FROM (SELECT Int1 AS beds FROM chunks WHERE tenant = 17) "
      "AS x WHERE x.beds > 100");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->from[0].is_subquery());
  EXPECT_EQ((*stmt)->from[0].alias, "x");
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  auto stmt = ParseSelect(
      "SELECT status, COUNT(*) AS n FROM t GROUP BY status "
      "HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 5 OFFSET 2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ((*stmt)->order_by.size(), 1u);
  EXPECT_TRUE((*stmt)->order_by[0].descending);
  EXPECT_EQ((*stmt)->limit, 5);
  EXPECT_EQ((*stmt)->offset, 2);
}

TEST(ParserTest, Params) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE b = ? AND c = ?");
  ASSERT_TRUE(stmt.ok());
  std::vector<ParsedExprPtr> conjuncts;
  SplitParsedConjuncts(*(*stmt)->where, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->right->param_ordinal, 0u);
  EXPECT_EQ(conjuncts[1]->right->param_ordinal, 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a + 2 * 3 = 7 OR b = 1 AND c = 2");
  ASSERT_TRUE(stmt.ok());
  // Top level must be OR (AND binds tighter).
  EXPECT_EQ((*stmt)->where->binary_op, BinaryOp::kOr);
  // a + 2*3: the + has a Mul as its right child.
  const ParsedExpr* cmp = (*stmt)->where->left.get();
  EXPECT_EQ(cmp->left->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(cmp->left->right->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, InsertStatement) {
  auto stmt = Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kInsert);
  EXPECT_EQ(stmt->insert->columns.size(), 2u);
  EXPECT_EQ(stmt->insert->rows.size(), 2u);
}

TEST(ParserTest, UpdateStatement) {
  auto stmt = Parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kUpdate);
  EXPECT_EQ(stmt->update->assignments.size(), 2u);
  ASSERT_NE(stmt->update->where, nullptr);
}

TEST(ParserTest, DeleteStatement) {
  auto stmt = Parse("DELETE FROM t WHERE a IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kDelete);
  EXPECT_TRUE(stmt->del->where->is_null_negated);
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse(
      "CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR(100), d DATE)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kCreateTable);
  ASSERT_EQ(stmt->create_table->columns.size(), 3u);
  EXPECT_TRUE(stmt->create_table->columns[0].not_null);
  EXPECT_EQ(stmt->create_table->columns[1].type, TypeId::kString);
  EXPECT_EQ(stmt->create_table->columns[2].type, TypeId::kDate);
}

TEST(ParserTest, CreateUniqueIndex) {
  auto stmt = Parse("CREATE UNIQUE INDEX ux ON t (tenant, id)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kCreateIndex);
  EXPECT_TRUE(stmt->create_index->unique);
  EXPECT_EQ(stmt->create_index->columns.size(), 2u);
}

TEST(ParserTest, DropStatements) {
  EXPECT_EQ(Parse("DROP TABLE t")->kind, StatementKind::kDropTable);
  EXPECT_EQ(Parse("DROP INDEX i")->kind, StatementKind::kDropIndex);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("FOO BAR").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES 1").ok());
}

TEST(PrinterTest, RoundTripSimple) {
  const char* sql =
      "SELECT p.id, c.col1 FROM parent p, child c "
      "WHERE ((p.id = c.parent) AND (p.id = ?))";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  std::string printed = ToSql(**stmt);
  // Re-parse the printed SQL; it must print identically (fixpoint).
  auto again = ParseSelect(printed);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(ToSql(**again), printed);
}

TEST(PrinterTest, RoundTripComplex) {
  const char* sql =
      "SELECT status, COUNT(*), SUM(amount) FROM opportunity "
      "WHERE tenant = 17 AND amount > 100.5 GROUP BY status "
      "ORDER BY status LIMIT 10";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  std::string printed = ToSql(**stmt);
  auto again = ParseSelect(printed);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(ToSql(**again), printed);
}

TEST(PrinterTest, SubqueryPrinting) {
  const char* sql =
      "SELECT x.a FROM (SELECT b AS a FROM t WHERE c = 1) AS x";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  std::string printed = ToSql(**stmt);
  EXPECT_NE(printed.find("(SELECT"), std::string::npos);
  auto again = ParseSelect(printed);
  ASSERT_TRUE(again.ok()) << printed;
}

TEST(ParserTest, LikePredicate) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE name LIKE 'ab%' AND "
                          "city NOT LIKE '_x%'");
  ASSERT_TRUE(stmt.ok());
  std::vector<ParsedExprPtr> conjuncts;
  SplitParsedConjuncts(*(*stmt)->where, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind, PExprKind::kLike);
  EXPECT_FALSE(conjuncts[0]->like_negated);
  EXPECT_EQ(conjuncts[1]->kind, PExprKind::kLike);
  EXPECT_TRUE(conjuncts[1]->like_negated);
}

TEST(ParserTest, InExpandsToOrChain) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE x IN (1, 2, 3)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->kind, PExprKind::kBinary);
  EXPECT_EQ((*stmt)->where->binary_op, BinaryOp::kOr);
}

TEST(ParserTest, NotInNegatesChain) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE x NOT IN (1, 2)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->kind, PExprKind::kUnary);
}

TEST(ParserTest, DistinctFlag) {
  auto stmt = ParseSelect("SELECT DISTINCT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->distinct);
  std::string printed = ToSql(**stmt);
  EXPECT_NE(printed.find("DISTINCT"), std::string::npos);
  auto again = ParseSelect(printed);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->distinct);
}

TEST(PrinterTest, LikeRoundTrip) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE (b LIKE 'x%')");
  ASSERT_TRUE(stmt.ok());
  std::string printed = ToSql(**stmt);
  auto again = ParseSelect(printed);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(ToSql(**again), printed);
}

TEST(PrinterTest, DoubleLiteralsParseBackExactly) {
  // Compensations and recovery hints find rows by exact value through
  // printed SQL, so a printed DOUBLE must parse back bit for bit.
  for (double v : {1234.5678, 0.1 + 0.2, 1e-7, 1e20, 3.0, 2.718281828459045,
                   5e-324, 1.7976931348623157e308}) {
    const std::string literal = Value::Double(v).ToSqlLiteral();
    auto stmt = ParseSelect("SELECT a FROM t WHERE b = " + literal);
    ASSERT_TRUE(stmt.ok()) << literal;
    const ParsedExpr& rhs = *(*stmt)->where->right;
    ASSERT_EQ(rhs.kind, PExprKind::kLiteral) << literal;
    EXPECT_EQ(rhs.literal.type(), TypeId::kDouble) << literal;
    EXPECT_EQ(rhs.literal.AsDouble(), v) << literal;
  }
  EXPECT_EQ(Value::Double(-2.5).ToSqlLiteral(), "-2.5");
  EXPECT_EQ(Value::Double(3.0).ToSqlLiteral(), "3.0");
}

TEST(AstTest, CloneIsDeep) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE b = 1");
  ASSERT_TRUE(stmt.ok());
  auto clone = (*stmt)->Clone();
  EXPECT_EQ(ToSql(**stmt), ToSql(*clone));
  clone->where = nullptr;
  EXPECT_NE((*stmt)->where, nullptr);
}

}  // namespace
}  // namespace sql
}  // namespace mtdb

#include <gtest/gtest.h>

#include "src/expr/expr.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::EvalRow;
using testutil::RowPredicate;

ExprPtr Col(int i, DataType t = DataType::kInt64) {
  return MakeColumnRef(i, t, "c" + std::to_string(i));
}
ExprPtr Lit(int64_t v) { return MakeLiteral(Value::Int64(v)); }

TEST(ExprTest, LiteralEval) {
  auto e = MakeLiteral(Value::String("hi"));
  auto v = EvalRow(*e, {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::String("hi"));
  EXPECT_EQ(e->result_type(), DataType::kString);
}

TEST(ExprTest, ColumnRefEval) {
  auto e = Col(1);
  Tuple row = {Value::Int64(10), Value::Int64(20)};
  auto v = EvalRow(*e, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int64(20));
}

TEST(ExprTest, ColumnRefOutOfRangeErrors) {
  auto e = Col(5);
  EXPECT_FALSE(EvalRow(*e, {Value::Int64(1)}).ok());
}

TEST(ExprTest, ComparisonOps) {
  Tuple row = {Value::Int64(3), Value::Int64(7)};
  EXPECT_TRUE(RowPredicate(*MakeComparison(CompareOp::kLt, Col(0), Col(1)),
                           row));
  EXPECT_FALSE(RowPredicate(*MakeComparison(CompareOp::kGt, Col(0), Col(1)),
                            row));
  EXPECT_TRUE(RowPredicate(*MakeComparison(CompareOp::kNe, Col(0), Col(1)),
                           row));
  EXPECT_TRUE(RowPredicate(*MakeComparison(CompareOp::kEq, Col(0), Lit(3)),
                           row));
  EXPECT_TRUE(RowPredicate(*MakeComparison(CompareOp::kLe, Col(0), Lit(3)),
                           row));
  EXPECT_TRUE(RowPredicate(*MakeComparison(CompareOp::kGe, Col(1), Lit(7)),
                           row));
}

TEST(ExprTest, ComparisonWithNullIsNull) {
  auto e = MakeComparison(CompareOp::kEq, Col(0), Lit(1));
  auto v = EvalRow(*e, {Value::Null()});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  EXPECT_FALSE(RowPredicate(*e, {Value::Null()}));
}

TEST(ExprTest, ArithmeticIntExact) {
  Tuple row = {Value::Int64(6), Value::Int64(4)};
  auto v = EvalRow(*MakeArithmetic(ArithOp::kAdd, Col(0), Col(1)), row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int64(10));
  v = EvalRow(*MakeArithmetic(ArithOp::kMul, Col(0), Col(1)), row);
  EXPECT_EQ(*v, Value::Int64(24));
  v = EvalRow(*MakeArithmetic(ArithOp::kSub, Col(0), Col(1)), row);
  EXPECT_EQ(*v, Value::Int64(2));
}

TEST(ExprTest, DivisionAlwaysDouble) {
  Tuple row = {Value::Int64(7), Value::Int64(2)};
  auto v = EvalRow(*MakeArithmetic(ArithOp::kDiv, Col(0), Col(1)), row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v->AsDouble(), 3.5);
}

TEST(ExprTest, DivisionByZeroErrors) {
  auto e = MakeArithmetic(ArithOp::kDiv, Lit(1), Lit(0));
  EXPECT_FALSE(EvalRow(*e, {}).ok());
}

TEST(ExprTest, ArithmeticNullPropagates) {
  auto e = MakeArithmetic(ArithOp::kAdd, Col(0), Lit(1));
  auto v = EvalRow(*e, {Value::Null()});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(ExprTest, ArithmeticOverStringErrors) {
  auto e = MakeArithmetic(ArithOp::kAdd,
                          MakeLiteral(Value::String("a")), Lit(1));
  EXPECT_FALSE(EvalRow(*e, {}).ok());
}

TEST(ExprTest, KleeneAnd) {
  auto t = MakeLiteral(Value::Bool(true));
  auto f = MakeLiteral(Value::Bool(false));
  auto n = MakeLiteral(Value::Null());
  // false AND unknown = false
  auto v = EvalRow(*MakeAnd(f, n), {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Bool(false));
  // true AND unknown = unknown
  v = EvalRow(*MakeAnd(t, n), {});
  EXPECT_TRUE(v->is_null());
  // true AND true = true
  v = EvalRow(*MakeAnd(t, t), {});
  EXPECT_EQ(*v, Value::Bool(true));
}

TEST(ExprTest, KleeneOr) {
  auto t = MakeLiteral(Value::Bool(true));
  auto f = MakeLiteral(Value::Bool(false));
  auto n = MakeLiteral(Value::Null());
  // true OR unknown = true
  auto v = EvalRow(*MakeOr(t, n), {});
  EXPECT_EQ(*v, Value::Bool(true));
  // false OR unknown = unknown
  v = EvalRow(*MakeOr(f, n), {});
  EXPECT_TRUE(v->is_null());
  v = EvalRow(*MakeOr(f, f), {});
  EXPECT_EQ(*v, Value::Bool(false));
}

TEST(ExprTest, NotSemantics) {
  auto v = EvalRow(*MakeNot(MakeLiteral(Value::Bool(true))), {});
  EXPECT_EQ(*v, Value::Bool(false));
  v = EvalRow(*MakeNot(MakeLiteral(Value::Null())), {});
  EXPECT_TRUE(v->is_null());
}

TEST(ExprTest, CollectColumnRefsDedups) {
  auto e = MakeAnd(MakeComparison(CompareOp::kEq, Col(2), Col(0)),
                   MakeComparison(CompareOp::kLt, Col(0), Lit(5)));
  std::vector<int> refs;
  e->CollectColumnRefs(&refs);
  EXPECT_EQ(refs, (std::vector<int>{0, 2}));
}

TEST(ExprTest, RemapColumns) {
  auto e = MakeComparison(CompareOp::kEq, Col(0), Col(2));
  std::vector<int> mapping = {5, -1, 7};
  auto r = e->RemapColumns(mapping);
  std::vector<int> refs;
  r->CollectColumnRefs(&refs);
  EXPECT_EQ(refs, (std::vector<int>{5, 7}));
  // Semantics preserved under the wider layout.
  Tuple row(8, Value::Null());
  row[5] = Value::Int64(3);
  row[7] = Value::Int64(3);
  EXPECT_TRUE(RowPredicate(*r, row));
}

TEST(ExprTest, ConjoinAndSplitRoundTrip) {
  std::vector<ExprPtr> cs = {
      MakeComparison(CompareOp::kEq, Col(0), Lit(1)),
      MakeComparison(CompareOp::kLt, Col(1), Lit(2)),
      MakeComparison(CompareOp::kGt, Col(2), Lit(3))};
  ExprPtr all = ConjoinAll(cs);
  std::vector<ExprPtr> back;
  SplitConjuncts(all, &back);
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ(ConjoinAll({}), nullptr);
}

TEST(ExprTest, SplitDoesNotCrossOr) {
  ExprPtr e = MakeOr(MakeComparison(CompareOp::kEq, Col(0), Lit(1)),
                     MakeComparison(CompareOp::kEq, Col(0), Lit(2)));
  std::vector<ExprPtr> parts;
  SplitConjuncts(e, &parts);
  EXPECT_EQ(parts.size(), 1u);
}

TEST(ExprTest, MakeColumnRefFromSchema) {
  Schema s({{"E", "did", DataType::kInt64}, {"E", "sal", DataType::kDouble}});
  auto e = MakeColumnRef(s, "E.sal");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->result_type(), DataType::kDouble);
  EXPECT_FALSE(MakeColumnRef(s, "E.missing").ok());
}

TEST(ExprTest, ToStringReadable) {
  auto e = MakeComparison(CompareOp::kGt, Col(0), Lit(30));
  EXPECT_EQ(e->ToString(), "(c0 > 30)");
}

}  // namespace
}  // namespace magicdb

// Unit tests for src/expr: AST construction/printing, binding, scalar
// evaluation, and vectorized evaluation — EvalBool's prepass and both forms
// of the tile program — checked against the scalar oracle.

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "expr/expr.h"
#include "expr/scalar_eval.h"
#include "expr/tile_program.h"
#include "expr/vector_eval.h"
#include "storage/table.h"

namespace swole {
namespace {

// A small table with assorted column types for expression tests.
class ExprTestFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>("t");
    Rng rng(17);

    auto x = std::make_unique<Column>("x", ColumnType::Int(PhysicalType::kInt8));
    auto y = std::make_unique<Column>("y", ColumnType::Int(PhysicalType::kInt16));
    auto a = std::make_unique<Column>("a", ColumnType::Int(PhysicalType::kInt32));
    auto b = std::make_unique<Column>("b", ColumnType::Int(PhysicalType::kInt64));
    auto d = std::make_unique<Column>("d", ColumnType::Date());

    dict_ = std::make_shared<Dictionary>(Dictionary::FromValues(
        {"PROMO ANODIZED", "PROMO PLATED", "STANDARD BRUSHED", "ECONOMY"}));
    auto s = std::make_unique<Column>("s", ColumnType::String());
    s->set_dictionary(dict_);

    for (int64_t i = 0; i < kRows; ++i) {
      x->Append(rng.UniformInt(0, 99));
      y->Append(rng.UniformInt(-300, 300));
      a->Append(rng.UniformInt(0, 100000));
      b->Append(rng.UniformInt(1, 50));  // nonzero: used as divisor
      d->Append(rng.UniformInt(8000, 10000));
      s->Append(rng.UniformInt(0, dict_->size() - 1));
    }
    ASSERT_TRUE(table_->AddColumn(std::move(x)).ok());
    ASSERT_TRUE(table_->AddColumn(std::move(y)).ok());
    ASSERT_TRUE(table_->AddColumn(std::move(a)).ok());
    ASSERT_TRUE(table_->AddColumn(std::move(b)).ok());
    ASSERT_TRUE(table_->AddColumn(std::move(d)).ok());
    ASSERT_TRUE(table_->AddColumn(std::move(s)).ok());
  }

  // Asserts vectorized evaluation matches the scalar oracle on all rows at
  // tile sizes 1, 7 and 256: EvalBool for a boolean expression, and the
  // tile program in its all-lanes form and its selection form over a
  // sparse selection vector and an empty one.
  void CheckAgainstOracle(const Expr& expr) { CheckOutputs({&expr}); }

  // The same for several expressions compiled into one program, so that
  // the subtrees they share are computed once.
  void CheckOutputs(const std::vector<const Expr*>& exprs) {
    ScalarEvaluator oracle(*table_);
    std::vector<std::vector<int64_t>> expected(exprs.size());
    for (size_t i = 0; i < exprs.size(); ++i) {
      ASSERT_TRUE(BindExpr(*exprs[i], *table_).ok());
      for (int64_t row = 0; row < kRows; ++row) {
        expected[i].push_back(oracle.Eval(*exprs[i], row));
      }
    }
    TileProgram program(*table_, exprs);
    for (int64_t tile : {1, 7, 256}) {
      VectorEvaluator vec(*table_, tile);
      TileProgram::Registers regs = program.NewRegisters(tile);
      std::vector<uint8_t> cmp(tile);
      std::vector<int32_t> sel(tile);
      for (int64_t start = 0; start < kRows; start += tile) {
        const int64_t len = std::min<int64_t>(tile, kRows - start);
        for (size_t i = 0; i < exprs.size(); ++i) {
          if (!exprs[i]->IsBoolean()) continue;
          vec.EvalBool(*exprs[i], start, len, cmp.data());
          for (int64_t j = 0; j < len; ++j) {
            ASSERT_EQ(static_cast<int64_t>(cmp[j]), expected[i][start + j])
                << "EvalBool, tile " << tile << " row " << start + j
                << " expr " << exprs[i]->ToString();
          }
        }
        program.EvalAll(start, len, /*keep=*/nullptr, &regs);
        for (size_t i = 0; i < exprs.size(); ++i) {
          const int64_t* out = program.Output(regs, static_cast<int>(i));
          for (int64_t j = 0; j < len; ++j) {
            ASSERT_EQ(out[j], expected[i][start + j])
                << "all lanes, tile " << tile << " row " << start + j
                << " expr " << exprs[i]->ToString();
          }
        }
        // Every third lane, from a tile-dependent offset.
        int32_t n = 0;
        for (int64_t j = start % 3; j < len; j += 3) {
          sel[n++] = static_cast<int32_t>(j);
        }
        program.EvalSel(start, sel.data(), n, /*lanes_kept=*/true, &regs);
        for (size_t i = 0; i < exprs.size(); ++i) {
          const int64_t* out = program.Output(regs, static_cast<int>(i));
          for (int32_t k = 0; k < n; ++k) {
            ASSERT_EQ(out[k], expected[i][start + sel[k]])
                << "selection, tile " << tile << " row " << start + sel[k]
                << " expr " << exprs[i]->ToString();
          }
        }
        program.EvalSel(start, sel.data(), 0, /*lanes_kept=*/true, &regs);
      }
    }
  }

  static constexpr int64_t kRows = 1000;  // not a multiple of the tile size
  std::unique_ptr<Table> table_;
  std::shared_ptr<Dictionary> dict_;
};

TEST_F(ExprTestFixture, ToStringRoundTripsShape) {
  ExprPtr e = And(Lt(Col("x"), Lit(13)), Eq(Col("y"), Lit(1)));
  EXPECT_EQ(e->ToString(), "((x < 13) and (y = 1))");
  EXPECT_TRUE(e->IsBoolean());
  ExprPtr m = Mul(Col("a"), Col("b"));
  EXPECT_FALSE(m->IsBoolean());
}

TEST_F(ExprTestFixture, CloneIsDeep) {
  ExprPtr e = And(Lt(Col("x"), Lit(13)), Like("s", "PROMO%"));
  ExprPtr c = e->Clone();
  EXPECT_EQ(e->ToString(), c->ToString());
  e->children[0]->children[1]->literal = 99;  // mutate original's literal
  EXPECT_NE(e->ToString(), c->ToString());
}

TEST_F(ExprTestFixture, CollectColumnRefsDeduplicates) {
  ExprPtr e = Mul(Add(Col("x"), Col("a")), Col("x"));
  std::vector<std::string> refs = CollectColumnRefs(*e);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0], "x");
  EXPECT_EQ(refs[1], "a");
}

TEST_F(ExprTestFixture, SplitConjunctsFlattens) {
  ExprPtr e = And(And(Lt(Col("x"), Lit(5)), Gt(Col("y"), Lit(0))),
                  Eq(Col("a"), Lit(7)));
  std::vector<const Expr*> conjuncts = SplitConjuncts(*e);
  ASSERT_EQ(conjuncts.size(), 3u);
  // An OR is a single conjunct.
  ExprPtr f = Or(Lt(Col("x"), Lit(5)), Gt(Col("y"), Lit(0)));
  EXPECT_EQ(SplitConjuncts(*f).size(), 1u);
}

TEST_F(ExprTestFixture, BindRejectsUnknownColumn) {
  ExprPtr e = Lt(Col("nope"), Lit(1));
  EXPECT_EQ(BindExpr(*e, *table_).code(), StatusCode::kNotFound);
}

TEST_F(ExprTestFixture, BindRejectsLogicalOverNumeric) {
  ExprPtr e = And(Col("x"), Lit(1));
  EXPECT_EQ(BindExpr(*e, *table_).code(), StatusCode::kTypeError);
}

TEST_F(ExprTestFixture, BindRejectsLikeOnIntColumn) {
  ExprPtr e = Like("x", "foo%");
  EXPECT_EQ(BindExpr(*e, *table_).code(), StatusCode::kTypeError);
}

TEST_F(ExprTestFixture, BindAcceptsWellFormed) {
  ExprPtr e = And(Between(Col("d"), 8100, 9000),
                  Or(Like("s", "PROMO%"), InList(Col("x"), {1, 2, 3})));
  EXPECT_TRUE(BindExpr(*e, *table_).ok());
}

TEST_F(ExprTestFixture, ComparisonColVsLit) {
  CheckAgainstOracle(*Lt(Col("x"), Lit(13)));
  CheckAgainstOracle(*Ge(Col("y"), Lit(0)));
  CheckAgainstOracle(*Ne(Col("a"), Lit(500)));
}

TEST_F(ExprTestFixture, ComparisonLitVsCol) {
  CheckAgainstOracle(*Lt(Lit(50), Col("x")));   // x > 50
  CheckAgainstOracle(*Eq(Lit(10), Col("b")));
}

TEST_F(ExprTestFixture, ComparisonLiteralOutsidePhysicalRange) {
  // x is int8 (0..99); literal 200 exceeds int8: must still be correct
  // because comparisons are performed widened.
  CheckAgainstOracle(*Lt(Col("x"), Lit(200)));   // always true
  CheckAgainstOracle(*Gt(Col("x"), Lit(-500)));  // always true
  CheckAgainstOracle(*Lt(Col("x"), Lit(-1)));    // always false
}

TEST_F(ExprTestFixture, ComparisonColVsColSameType) {
  // d vs d (same int32 physical type) via a shifted copy: compare d < a is
  // mixed-type and takes the widened path; x < b is also mixed.
  CheckAgainstOracle(*Lt(Col("d"), Col("a")));
  CheckAgainstOracle(*Lt(Col("x"), Col("b")));
}

TEST_F(ExprTestFixture, LogicalOperators) {
  CheckAgainstOracle(*And(Lt(Col("x"), Lit(50)), Gt(Col("y"), Lit(0))));
  CheckAgainstOracle(*Or(Lt(Col("x"), Lit(5)), Gt(Col("y"), Lit(295))));
  CheckAgainstOracle(*Not(Lt(Col("x"), Lit(50))));
  CheckAgainstOracle(
      *And(And(Lt(Col("x"), Lit(80)), Gt(Col("x"), Lit(10))),
           Or(Eq(Col("b"), Lit(3)), Eq(Col("b"), Lit(4)))));
  // A logical node under NOT under AND: every nested OR/AND must use its
  // own scratch buffer, not the one holding its ancestor's rhs.
  CheckAgainstOracle(*And(Ge(Col("y"), Lit(-107)),
                          Not(Or(Ge(Col("x"), Lit(13)),
                                 Lt(Col("y"), Lit(-36))))));
  CheckAgainstOracle(*Or(Lt(Col("x"), Lit(3)),
                         Not(And(InList(Col("b"), {1, 2, 3}),
                                 Or(Gt(Col("y"), Lit(0)),
                                    Lt(Col("a"), Lit(500)))))));
}

TEST_F(ExprTestFixture, BetweenIsInclusive) {
  CheckAgainstOracle(*Between(Col("x"), 10, 20));
}

TEST_F(ExprTestFixture, LikeOnDictionaryColumn) {
  CheckAgainstOracle(*Like("s", "PROMO%"));
  CheckAgainstOracle(*NotLike("s", "%BRUSHED"));
  CheckAgainstOracle(*Like("s", "%AN%"));
}

TEST_F(ExprTestFixture, InList) {
  CheckAgainstOracle(*InList(Col("x"), {1, 7, 42}));
  CheckAgainstOracle(*InList(Col("b"), {3}));
}

TEST_F(ExprTestFixture, Arithmetic) {
  CheckAgainstOracle(*Mul(Col("a"), Col("b")));
  CheckAgainstOracle(*Add(Col("x"), Mul(Col("y"), Lit(3))));
  CheckAgainstOracle(*Sub(Lit(100), Col("x")));
  CheckAgainstOracle(*Div(Col("a"), Col("b")));  // b >= 1
}

TEST_F(ExprTestFixture, BooleanAsNumericMask) {
  // (a*b) * (x < 13): the value-masking expression shape.
  CheckAgainstOracle(
      *Mul(Mul(Col("a"), Col("b")), Lt(Col("x"), Lit(13))));
}

TEST_F(ExprTestFixture, CaseFirstMatchWins) {
  // Overlapping conditions: row with x < 10 must take the first arm.
  ExprPtr c = Case(Lt(Col("x"), Lit(10)), Lit(1),
                   Case(Lt(Col("x"), Lit(50)), Lit(2), Lit(3)));
  CheckAgainstOracle(*c);
}

TEST_F(ExprTestFixture, CaseWithComputedArms) {
  // Q14-style: case when s like 'PROMO%' then a*b else 0 end
  ExprPtr c = Case(Like("s", "PROMO%"), Mul(Col("a"), Col("b")), Lit(0));
  CheckAgainstOracle(*c);
}

TEST_F(ExprTestFixture, ScalarShortCircuitGuardsDivision) {
  // b-1 can be 0; the guarded division must not be evaluated by the scalar
  // path when the guard fails.
  ScalarEvaluator oracle(*table_);
  ExprPtr e = And(Gt(Col("b"), Lit(1)),
                  Gt(Div(Col("a"), Sub(Col("b"), Lit(1))), Lit(-1)));
  ASSERT_TRUE(BindExpr(*e, *table_).ok());
  for (int64_t row = 0; row < 100; ++row) {
    int64_t v = oracle.Eval(*e, row);
    EXPECT_TRUE(v == 0 || v == 1);
  }
}

TEST_F(ExprTestFixture, GuardedDivisionNeverTraps) {
  // b - 1 is 0 on some rows. Each division sits where the oracle skips it
  // on those rows (the right side of AND, a CASE arm), so every form must
  // answer too: the prepass and the all-lanes form divide every lane.
  ExprPtr guard = And(Gt(Col("b"), Lit(1)),
                      Gt(Div(Col("a"), Sub(Col("b"), Lit(1))), Lit(-1)));
  CheckAgainstOracle(*guard);
  CheckAgainstOracle(*Case(Ne(Sub(Col("b"), Lit(1)), Lit(0)),
                           Div(Col("a"), Sub(Col("b"), Lit(1))), Lit(0)));
  CheckAgainstOracle(*Or(Le(Col("b"), Lit(1)),
                         InList(Div(Col("y"), Sub(Col("b"), Lit(1))),
                                {0, 1, 2})));
}

TEST_F(ExprTestFixture, NumericOperandsOfPredicates) {
  // EvalBool's general comparison, non-column IN and numeric-as-boolean
  // paths evaluate their operands through a tile program.
  CheckAgainstOracle(*Lt(Add(Col("x"), Col("y")), Mul(Col("b"), Lit(3))));
  CheckAgainstOracle(*Ge(Lit(40), Sub(Col("x"), Col("b"))));
  CheckAgainstOracle(*Lt(Col("x"), Col("y")));  // mixed physical widths
  CheckAgainstOracle(*InList(Add(Col("x"), Lit(1)), {5, 17, 60}));
  CheckAgainstOracle(*Not(Eq(Mul(Col("x"), Col("y")), Lit(0))));
  // A numeric expression in boolean position is a nonzero test.
  ExprPtr numeric = Case(Lt(Col("y"), Lit(0)), Sub(Col("x"), Lit(50)), Lit(0));
  ScalarEvaluator oracle(*table_);
  VectorEvaluator vec(*table_, 256);
  std::vector<uint8_t> cmp(256);
  for (int64_t start = 0; start < kRows; start += 256) {
    const int64_t len = std::min<int64_t>(256, kRows - start);
    vec.EvalBool(*numeric, start, len, cmp.data());
    for (int64_t j = 0; j < len; ++j) {
      ASSERT_EQ(cmp[j], oracle.Eval(*numeric, start + j) != 0 ? 1 : 0)
          << "row " << start + j;
    }
  }
}

TEST_F(ExprTestFixture, SharedSubtreesAcrossOutputs) {
  // Q1's shape: a key expression and two aggregates sharing the revenue
  // product, plus a bare column output, a literal output, and a boolean
  // term reused under CASE.
  ExprPtr key = Add(Mul(Col("x"), Lit(2)), Col("b"));
  ExprPtr rev = Mul(Col("a"), Sub(Lit(100), Col("x")));
  ExprPtr charge = Mul(Mul(Col("a"), Sub(Lit(100), Col("x"))),
                       Add(Lit(100), Col("y")));
  ExprPtr masked = Case(Lt(Col("x"), Lit(30)),
                        Mul(Col("a"), Sub(Lit(100), Col("x"))),
                        Mul(Lt(Col("x"), Lit(30)), Col("y")));
  ExprPtr bare = Col("a");
  ExprPtr one = Lit(1);
  ExprPtr like = Mul(Like("s", "PROMO%"), Col("b"));
  CheckOutputs({key.get(), rev.get(), charge.get(), masked.get(), bare.get(),
                one.get(), like.get()});
}

TEST_F(ExprTestFixture, ConstantSubtreesFold) {
  CheckAgainstOracle(*Add(Mul(Lit(3), Lit(4)), Col("x")));
  CheckAgainstOracle(*Case(Lt(Lit(1), Lit(2)), Col("y"), Col("x")));
  CheckAgainstOracle(*InList(Lit(3), {1, 3}));
  CheckAgainstOracle(*Mul(Not(Gt(Lit(0), Lit(1))), Col("a")));
}

}  // namespace
}  // namespace swole

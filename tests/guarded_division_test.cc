// Division over rows a plan discards. The pullup forms (prepass filters,
// value and key masking) compute every lane before the plan drops any, so
// a zero divisor on a discarded row must not kill the process; the oracle
// never divides there. Each plan runs on every strategy, under each forced
// SWOLE aggregation, at 1 and 4 threads, and must match the oracle.

#include <gtest/gtest.h>

#include <memory>

#include "engine/reference_engine.h"
#include "storage/table.h"
#include "strategies/strategy.h"

namespace swole {
namespace {

class GuardedDivisionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 4096;

  // a: values of both signs; b: 0 on every 7th row, 1..5 elsewhere, so
  // both b and b - 1 have zeros; g: a small group key.
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    auto table = std::make_shared<Table>("t");
    auto a = std::make_unique<Column>("a", ColumnType::Int(PhysicalType::kInt32));
    auto b = std::make_unique<Column>("b", ColumnType::Int(PhysicalType::kInt32));
    auto g = std::make_unique<Column>("g", ColumnType::Int(PhysicalType::kInt32));
    for (int64_t i = 0; i < kRows; ++i) {
      a->Append((i * 7919) % 2001 - 1000);
      b->Append(i % 7 == 0 ? 0 : 1 + i % 5);
      g->Append(i % 4);
    }
    table->AddColumn(std::move(a)).CheckOK();
    table->AddColumn(std::move(b)).CheckOK();
    table->AddColumn(std::move(g)).CheckOK();
    catalog_->AddTable(table).CheckOK();
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static QueryPlan Plan(ExprPtr filter, ExprPtr agg, bool grouped) {
    QueryPlan plan;
    plan.name = "guarded_div";
    plan.fact_table = "t";
    plan.fact_filter = std::move(filter);
    if (grouped) {
      plan.group_by = Col("g");
      plan.group_cardinality_hint = 4;
    }
    plan.aggs.emplace_back(AggKind::kSum, std::move(agg), "s");
    plan.aggs.emplace_back(AggKind::kCount, nullptr, "n");
    return plan;
  }

  // Runs `plan` on every strategy, forced SWOLE choice and thread count.
  static void CheckEveryEngine(const QueryPlan& plan) {
    ReferenceEngine oracle(*catalog_);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (int threads : {1, 4}) {
      StrategyOptions options;
      options.num_threads = threads;
      std::vector<std::pair<StrategyKind, StrategyOptions>> configs;
      for (StrategyKind kind :
           {StrategyKind::kDataCentric, StrategyKind::kHybrid,
            StrategyKind::kRof, StrategyKind::kSwole}) {
        configs.emplace_back(kind, options);
      }
      for (StrategyOptions::ForceAgg force :
           {StrategyOptions::ForceAgg::kValueMasking,
            StrategyOptions::ForceAgg::kKeyMasking,
            StrategyOptions::ForceAgg::kHybridFallback}) {
        options.force_agg = force;
        configs.emplace_back(StrategyKind::kSwole, options);
      }
      for (const auto& [kind, config] : configs) {
        std::unique_ptr<Strategy> engine =
            MakeStrategy(kind, *catalog_, config);
        Result<QueryResult> actual = engine->Execute(plan);
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        EXPECT_EQ(*actual, *expected)
            << engine->name() << " forced agg "
            << static_cast<int>(config.force_agg) << ", " << threads
            << " threads on\n"
            << plan.ToString();
      }
    }
  }

  static Catalog* catalog_;
};

Catalog* GuardedDivisionTest::catalog_ = nullptr;

TEST_F(GuardedDivisionTest, PrepassFilterDividesRejectedRows) {
  // The oracle's AND short-circuits; every prepass divides by b - 1 == 0.
  for (bool grouped : {false, true}) {
    CheckEveryEngine(
        Plan(And(Gt(Col("b"), Lit(1)),
                 Gt(Div(Col("a"), Sub(Col("b"), Lit(1))), Lit(-1))),
             Col("a"), grouped));
  }
}

TEST_F(GuardedDivisionTest, MaskedQuotientOfColumns) {
  // The fused quotient kernels (scalar) and the program's all-lanes form
  // (grouped) divide the rows `b <> 0` rejects.
  for (bool grouped : {false, true}) {
    CheckEveryEngine(
        Plan(Ne(Col("b"), Lit(0)), Div(Col("a"), Col("b")), grouped));
  }
}

TEST_F(GuardedDivisionTest, MaskedQuotientOfExpression) {
  for (bool grouped : {false, true}) {
    CheckEveryEngine(Plan(Ne(Col("b"), Lit(0)),
                          Div(Add(Col("a"), Lit(1)), Col("b")), grouped));
  }
}

}  // namespace
}  // namespace swole

// Cross-thread-count determinism: every engine (all four strategies, the
// reference oracle, and the JIT pipeline) must produce bit-identical
// results at 1, 2, and 8 threads, on micro and TPC-H plans. Per-worker
// aggregation states are merged in worker order, so this holds regardless
// of morsel steal order — these tests are the contract.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "codegen/jit.h"
#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "storage/table.h"
#include "strategies/strategy.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace swole {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kDataCentric, StrategyKind::kHybrid, StrategyKind::kRof,
    StrategyKind::kSwole};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 20'000;
    config.s_small_rows = 50;
    config.s_large_rows = 500;
    config.c_cardinalities = {10, 200};
    config.seed = 99;
    micro_ = MicroData::Generate(config).release();

    tpch::TpchConfig tpch_config;
    tpch_config.scale_factor = 0.002;
    tpch_config.seed = 99;
    tpch_ = tpch::TpchData::Generate(tpch_config).release();
  }
  static void TearDownTestSuite() {
    delete micro_;
    micro_ = nullptr;
    delete tpch_;
    tpch_ = nullptr;
  }

  // Runs `plan` on `kind` at every thread count and checks each result is
  // bit-identical to the single-threaded run (and, transitively, to the
  // reference oracle — the single-thread path is oracle-checked by the
  // existing strategy tests).
  static void CheckThreadCountInvariance(const Catalog& catalog,
                                         const QueryPlan& plan,
                                         StrategyKind kind,
                                         StrategyOptions options = {}) {
    options.num_threads = 1;
    QueryResult baseline =
        MakeStrategy(kind, catalog, options)->Execute(plan).value();
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      Result<QueryResult> result =
          MakeStrategy(kind, catalog, options)->Execute(plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(*result, baseline)
          << plan.name << " " << StrategyKindName(kind) << " threads="
          << threads;
    }
  }

  static MicroData* micro_;
  static tpch::TpchData* tpch_;
};

MicroData* ParallelDeterminismTest::micro_ = nullptr;
tpch::TpchData* ParallelDeterminismTest::tpch_ = nullptr;

TEST_F(ParallelDeterminismTest, MicroPlansAllStrategies) {
  std::vector<QueryPlan> plans;
  plans.push_back(MicroQ1(false, 37));
  plans.push_back(MicroQ1(true, 80));
  plans.push_back(MicroQ2(micro_->c_columns[1], micro_->c_actual[1], 45));
  plans.push_back(MicroQ3(true, 50));
  plans.push_back(MicroQ4(true, 60, 40));
  plans.push_back(MicroQ5(false, 50, 50));
  for (const QueryPlan& plan : plans) {
    for (StrategyKind kind : kAllStrategies) {
      CheckThreadCountInvariance(micro_->catalog, plan, kind);
    }
  }
}

TEST_F(ParallelDeterminismTest, MicroSelectivityBoundaries) {
  for (int64_t sel : {0, 100}) {
    for (StrategyKind kind : kAllStrategies) {
      CheckThreadCountInvariance(micro_->catalog, MicroQ1(false, sel), kind);
      CheckThreadCountInvariance(micro_->catalog, MicroQ4(false, sel, 50),
                                 kind);
    }
  }
}

TEST_F(ParallelDeterminismTest, TpchAllQueriesAllStrategies) {
  // Default morsels leave this scale's dim scans in one morsel; one-tile
  // morsels split them, and the shared inserts that fill their tables,
  // across workers, so the concurrent build paths run too.
  for (const char* morsel_tiles : {"64", "1"}) {
    setenv("SWOLE_MORSEL_TILES", morsel_tiles, /*overwrite=*/1);
    for (const QueryPlan& plan : tpch::AllQueries(tpch_->catalog)) {
      for (StrategyKind kind : kAllStrategies) {
        CheckThreadCountInvariance(tpch_->catalog, plan, kind);
      }
    }
  }
  unsetenv("SWOLE_MORSEL_TILES");
}

TEST_F(ParallelDeterminismTest, SwoleForcedAggregationTechniques) {
  QueryPlan grouped =
      MicroQ2(micro_->c_columns[0], micro_->c_actual[0], 30);
  for (StrategyOptions::ForceAgg force :
       {StrategyOptions::ForceAgg::kValueMasking,
        StrategyOptions::ForceAgg::kKeyMasking,
        StrategyOptions::ForceAgg::kHybridFallback}) {
    StrategyOptions options;
    options.force_agg = force;
    CheckThreadCountInvariance(micro_->catalog, grouped,
                               StrategyKind::kSwole, options);
  }
}

TEST_F(ParallelDeterminismTest, SwoleForcedEagerAggregation) {
  StrategyOptions options;
  options.force_eager_aggregation = true;
  CheckThreadCountInvariance(micro_->catalog, MicroQ5(false, 50, 50),
                             StrategyKind::kSwole, options);
  CheckThreadCountInvariance(micro_->catalog, MicroQ5(true, 30, 70),
                             StrategyKind::kSwole, options);
}

TEST_F(ParallelDeterminismTest, ReferenceEngineThreadCountInvariant) {
  for (const QueryPlan& plan : tpch::AllQueries(tpch_->catalog)) {
    QueryResult baseline =
        ReferenceEngine(tpch_->catalog, 1).Execute(plan).value();
    for (int threads : kThreadCounts) {
      Result<QueryResult> result =
          ReferenceEngine(tpch_->catalog, threads).Execute(plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(*result, baseline) << plan.name << " threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, JitKernelsThreadCountInvariant) {
  // One compile per (plan, strategy); Run at every thread count must agree
  // with the single-threaded run and with the reference oracle.
  ReferenceEngine oracle(micro_->catalog);
  struct Case {
    QueryPlan plan;
    StrategyKind kind;
    AggChoice choice;
  };
  std::vector<Case> cases;
  cases.push_back({MicroQ1(false, 37), StrategyKind::kDataCentric,
                   AggChoice::kValueMasking});
  cases.push_back({MicroQ4(true, 60, 40), StrategyKind::kHybrid,
                   AggChoice::kValueMasking});
  cases.push_back({MicroQ4(false, 50, 50), StrategyKind::kSwole,
                   AggChoice::kValueMasking});
  cases.push_back(
      {MicroQ2(micro_->c_columns[0], micro_->c_actual[0], 45),
       StrategyKind::kSwole, AggChoice::kKeyMasking});
  for (const Case& c : cases) {
    QueryResult expected = oracle.Execute(c.plan).value();
    codegen::GeneratorOptions options;
    options.strategy = c.kind;
    options.agg_choice = c.choice;
    Result<std::unique_ptr<codegen::CompiledKernel>> compiled =
        codegen::GenerateAndCompile(c.plan, micro_->catalog, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (int threads : kThreadCounts) {
      Result<QueryResult> result =
          (*compiled)->Run(micro_->catalog, threads);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(*result, expected)
          << c.plan.name << " " << StrategyKindName(c.kind) << " threads="
          << threads << "\nsource:\n"
          << (*compiled)->kernel().source;
    }
  }
}

}  // namespace
}  // namespace swole

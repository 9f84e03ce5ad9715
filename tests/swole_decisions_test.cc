// Tests for SWOLE's cost-model-driven technique selection (the Fig. 2
// heuristics): which technique engages on which plan shape, how the
// ablation knobs steer it, and that the decision trace is populated.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "strategies/swole.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace swole {
namespace {

class SwoleDecisionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 50'000;
    config.s_small_rows = 100;
    config.s_large_rows = 5'000;
    config.c_cardinalities = {10, 5'000};
    config.seed = 3;
    micro_ = MicroData::Generate(config).release();

    tpch::TpchConfig tpch_config;
    tpch_config.scale_factor = 0.002;
    tpch_ = tpch::TpchData::Generate(tpch_config).release();
  }
  static void TearDownTestSuite() {
    delete micro_;
    delete tpch_;
    micro_ = nullptr;
    tpch_ = nullptr;
  }

  static SwoleDecisions Decide(const Catalog& catalog, const QueryPlan& plan,
                               StrategyOptions options = {}) {
    std::unique_ptr<SwoleStrategy> engine =
        MakeSwoleStrategy(catalog, options);
    engine->Execute(plan).status().CheckOK();
    return engine->last_decisions();
  }

  static MicroData* micro_;
  static tpch::TpchData* tpch_;
};

MicroData* SwoleDecisionsTest::micro_ = nullptr;
tpch::TpchData* SwoleDecisionsTest::tpch_ = nullptr;

TEST_F(SwoleDecisionsTest, MemoryBoundScalarPicksValueMasking) {
  // Micro Q1 with multiplication: memory-bound -> VM (Fig. 8a).
  SwoleDecisions d = Decide(micro_->catalog, MicroQ1(false, 50));
  EXPECT_EQ(d.aggregation, "value-masking");
}

TEST_F(SwoleDecisionsTest, ComputeBoundScalarFallsBackToHybrid) {
  // Micro Q1 with division: compute-bound -> hybrid (Fig. 8b).
  SwoleDecisions d = Decide(micro_->catalog, MicroQ1(true, 50));
  EXPECT_EQ(d.aggregation, "hybrid");
}

TEST_F(SwoleDecisionsTest, JoinsUseBitmapsUnlessDisabled) {
  QueryPlan plan = MicroQ4(true, 50, 50);
  EXPECT_TRUE(Decide(micro_->catalog, plan).used_positional_bitmaps);
  StrategyOptions no_bitmaps;
  no_bitmaps.enable_positional_bitmaps = false;
  QueryPlan plan2 = MicroQ4(true, 50, 50);
  EXPECT_FALSE(
      Decide(micro_->catalog, plan2, no_bitmaps).used_positional_bitmaps);
}

TEST_F(SwoleDecisionsTest, AccessMergingEngagesOnSharedAttribute) {
  // Micro Q3 reuses the predicate attribute in the aggregate.
  StrategyOptions vm;
  vm.force_agg = StrategyOptions::ForceAgg::kValueMasking;
  EXPECT_TRUE(Decide(micro_->catalog, MicroQ3(false, 50), vm)
                  .used_access_merging);
  // Micro Q1's aggregate shares nothing with the predicate.
  EXPECT_FALSE(
      Decide(micro_->catalog, MicroQ1(false, 50), vm).used_access_merging);
}

TEST_F(SwoleDecisionsTest, RationaleIsPopulated) {
  SwoleDecisions d = Decide(micro_->catalog, MicroQ1(false, 50));
  EXPECT_NE(d.rationale.find("sigma="), std::string::npos);
  EXPECT_NE(d.rationale.find("comp="), std::string::npos);
}

TEST_F(SwoleDecisionsTest, EagerAggregationConsideredOnlyForGroupjoins) {
  // Micro Q5's shape is EA-eligible: the rationale records the comparison.
  SwoleDecisions d = Decide(
      micro_->catalog, MicroQ5(false, 50, micro_->config.s_small_rows));
  EXPECT_NE(d.rationale.find("EA="), std::string::npos);
  // A scalar query never mentions EA.
  SwoleDecisions d2 = Decide(micro_->catalog, MicroQ1(false, 50));
  EXPECT_EQ(d2.rationale.find("EA="), std::string::npos);
}

TEST_F(SwoleDecisionsTest, TpchQ1PicksKeyMasking) {
  // §IV-A Q1: "SWOLE uses key masking ... masking many individual
  // aggregate values is significantly more expensive than masking the
  // single group-by key."
  SwoleDecisions d =
      Decide(tpch_->catalog, tpch::Q1(tpch_->catalog));
  EXPECT_EQ(d.aggregation, "key-masking");
}

TEST_F(SwoleDecisionsTest, TpchQ3RejectsEagerAggregation) {
  // §IV-A Q3: "our cost model determines that too many keys are filtered
  // by the join for this rewrite to be beneficial."
  SwoleDecisions d =
      Decide(tpch_->catalog, tpch::Q3(tpch_->catalog));
  EXPECT_FALSE(d.used_eager_aggregation);
}

TEST_F(SwoleDecisionsTest, TpchJoinQueriesUseBitmaps) {
  for (auto make : {tpch::Q3, tpch::Q4, tpch::Q5, tpch::Q19}) {
    SwoleDecisions d = Decide(tpch_->catalog, make(tpch_->catalog));
    EXPECT_TRUE(d.used_positional_bitmaps);
  }
}

TEST_F(SwoleDecisionsTest, ForcedChoicesOverrideTheModel) {
  StrategyOptions km;
  km.force_agg = StrategyOptions::ForceAgg::kKeyMasking;
  SwoleDecisions d = Decide(
      micro_->catalog,
      MicroQ2(micro_->c_columns[0], micro_->c_actual[0], 50), km);
  EXPECT_EQ(d.aggregation, "key-masking");
}

TEST_F(SwoleDecisionsTest, DecisionsAreStableAcrossRepeatedExecutions) {
  std::unique_ptr<SwoleStrategy> engine = MakeSwoleStrategy(micro_->catalog);
  QueryPlan plan = MicroQ1(false, 50);
  engine->Execute(plan).status().CheckOK();
  SwoleDecisions first = engine->last_decisions();
  engine->Execute(plan).status().CheckOK();
  EXPECT_EQ(engine->last_decisions().aggregation, first.aggregation);
  EXPECT_EQ(engine->last_decisions().rationale, first.rationale);
}

TEST_F(SwoleDecisionsTest, ReusedPlanAddressNeverServesAStaleAnalysis) {
  // Two structurally different plans with the same name, built one after
  // the other in the same storage: the second must be analyzed afresh.
  // Forced value masking makes access merging fold each plan's own
  // `r_x < sel` literal into the analysis, so a stale entry would
  // aggregate under the first plan's predicate.
  StrategyOptions vm;
  vm.force_agg = StrategyOptions::ForceAgg::kValueMasking;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(micro_->catalog, vm);
  ReferenceEngine oracle(micro_->catalog);
  std::optional<QueryPlan> plan;
  const QueryPlan* address = nullptr;
  for (int64_t sel : {50, 20}) {
    plan.reset();
    plan.emplace(MicroQ3(/*reuse_both=*/false, sel));
    plan->name = "reused_address";
    if (address != nullptr) ASSERT_EQ(&*plan, address);
    address = &*plan;
    Result<QueryResult> expected = oracle.Execute(*plan);
    ASSERT_TRUE(expected.ok());
    Result<QueryResult> actual = engine->Execute(*plan);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(engine->last_decisions().used_access_merging);
    EXPECT_EQ(*actual, *expected) << "sel=" << sel;
  }
}

}  // namespace
}  // namespace swole

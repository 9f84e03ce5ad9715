// Cross-thread-count determinism: every engine (all four strategies, the
// reference oracle, and the JIT pipeline) must produce bit-identical
// results at 1, 2, and 8 threads, on micro and TPC-H plans. Per-worker
// aggregation states are merged in worker order, so this holds regardless
// of morsel steal order — these tests are the contract.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

#include "codegen/jit.h"
#include "engine/reference_engine.h"
#include "exec/hash_table.h"
#include "exec/scheduler.h"
#include "micro/micro.h"
#include "storage/table.h"
#include "strategies/common.h"
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

// The join-mode merge adds worker tables into the primary slot by slot, in
// parallel slot ranges. The TPC-H groupjoin tables above fit in one range
// at the test scale, so this builds a table that spans many ranges and
// checks the parallel merge against the serial ordered merge.
TEST(JoinModeMergeTest, SlotMergeMatchesSerialMerge) {
  using pipeline::GroupTable;
  QueryPlan plan;
  plan.group_by = Col("k");
  plan.aggs.emplace_back(AggKind::kSum, Col("v"), "sum_v");
  plan.aggs.emplace_back(AggKind::kCount, nullptr, "cnt");
  constexpr int64_t kTile = 64;
  constexpr int64_t kKeys = 15'000;
  constexpr int kWorkerTables = 4;  // the primary plus 3 clones
  const int64_t morsel = exec::DefaultMorselSize(kTile);

  // A build-side table holding kKeys keys, and its worker clones.
  struct JoinState {
    std::unique_ptr<GroupTable> primary;
    std::vector<std::unique_ptr<GroupTable>> clones;
    GroupTable* worker(int w) {
      return w == 0 ? primary.get() : clones[w - 1].get();
    }
  };
  auto make_state = [&] {
    JoinState state;
    state.primary = std::make_unique<GroupTable>(plan, kKeys);
    for (int64_t i = 0; i < kKeys; ++i) {
      state.primary->table().GetOrInsert(i * 7 + 3);
    }
    for (int w = 1; w < kWorkerTables; ++w) {
      state.clones.push_back(state.primary->CloneKeysOnly());
    }
    return state;
  };

  for (int threads : {4, 8}) {
    // Two identical states: `slotwise` merges in parallel, `serial`
    // through MergeFrom in worker order.
    JoinState slotwise = make_state();
    JoinState serial = make_state();
    ASSERT_GT(slotwise.primary->table().capacity(), 4 * morsel);

    // Join-mode updates on every table: probe keys that hit and miss,
    // selection-vector and masked forms, and key-masked lanes that land
    // on the throwaway entry.
    std::mt19937_64 rng(1234 + threads);
    std::vector<int64_t> keys(kTile);
    std::vector<int64_t> sums(kTile);
    std::vector<int64_t> ones(kTile, 1);
    std::vector<int64_t*> values = {sums.data(), ones.data()};
    std::vector<uint8_t> mask(kTile);
    for (int batch = 0; batch < 2000; ++batch) {
      const int w = batch % kWorkerTables;
      for (int64_t j = 0; j < kTile; ++j) {
        const uint64_t r = rng();
        keys[j] = static_cast<int64_t>(r % (kKeys * 8));  // 1 in 8 hits
        if (r % 5 == 0) keys[j] = HashTable::kMaskKey;
        sums[j] = static_cast<int64_t>(rng() % 1000) - 300;
        mask[j] = static_cast<uint8_t>(rng() & 1);
      }
      for (JoinState* state : {&slotwise, &serial}) {
        GroupTable* table = state->worker(w);
        if (batch % 2 == 0) {
          table->UpdateJoinMasked(keys.data(), values.data(), mask.data(),
                                  kTile);
        } else {
          table->UpdateJoinSel(keys.data(), values.data(),
                               static_cast<int32_t>(kTile),
                               /*prefetch=*/batch % 4 == 1);
        }
      }
    }

    std::vector<const GroupTable*> workers;
    for (const auto& clone : slotwise.clones) workers.push_back(clone.get());
    exec::MorselStats stats =
        slotwise.primary->MergeJoinSlots(workers, threads, kTile);
    ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
    EXPECT_EQ(stats.morsels, slotwise.primary->table().capacity() / morsel);
    for (const auto& clone : serial.clones) serial.primary->MergeFrom(*clone);

    // Every slot's payload, the throwaway entry's included, and the
    // extracted results agree.
    const HashTable& expected_table = serial.primary->table();
    const int width = expected_table.payload_width();
    int64_t compared = 0;
    expected_table.ForEach([&](int64_t key, const int64_t* expected) {
      const int64_t* got = slotwise.primary->table().Find(key);
      ASSERT_NE(got, nullptr) << key;
      for (int c = 0; c < width; ++c) {
        ASSERT_EQ(got[c], expected[c]) << "key " << key << " word " << c
                                       << " threads " << threads;
      }
      ++compared;
    });
    EXPECT_EQ(compared, kKeys + 1);
    EXPECT_GT(expected_table.Find(HashTable::kMaskKey)[0], 0);
    for (bool keep_untouched : {false, true}) {
      EXPECT_EQ(slotwise.primary->Extract(plan, keep_untouched),
                serial.primary->Extract(plan, keep_untouched))
          << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace swole

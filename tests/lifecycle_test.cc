// Query-lifecycle governance tests: memory budgets, wall-clock deadlines,
// cooperative cancellation, and graceful strategy degradation. Every
// strategy engine (and the JIT kernel path) must turn a breach into a
// structured Status carrying per-operator memory attribution — never a
// crash, never std::terminate — and SWOLE's pullup plans must retry once
// under the memory-lean data-centric strategy, bit-identical to the
// oracle, when only their own structures breach.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "common/bit_util.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "engine/reference_engine.h"
#include "exec/query_context.h"
#include "exec/scheduler.h"
#include "micro/micro.h"
#include "strategies/common.h"
#include "strategies/strategy.h"
#include "strategies/swole.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace swole {
namespace {

using codegen::ExecutionReport;
using codegen::GeneratorOptions;
using codegen::JitOptions;
using codegen::KernelCache;
using exec::QueryContext;
using tpch::TpchConfig;
using tpch::TpchData;

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kDataCentric, StrategyKind::kHybrid, StrategyKind::kRof,
    StrategyKind::kSwole};

// Every tracked interpreter-side allocation site, plus the JIT kernel
// sites; sweeping them with a 1.0 fault probability exercises the refusal
// path of every structure that charges the tracker.
constexpr const char* kTrackedSites[] = {
    "dim_keyset",     "dim_bitmap",         "reverse_keyset",
    "reverse_bitmap", "disjunctive_ht",     "disjunctive_bitmap",
    "group_table",    "jit_dim_keyset",     "jit_dim_bitmap",
    "jit_groups"};

// Sets an environment variable for the lifetime of the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

class LifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 20'001;
    config.s_small_rows = 100;
    config.s_large_rows = 2'000;
    config.c_cardinalities = {10, 1'000};
    config.seed = 11;
    micro_ = MicroData::Generate(config).release();

    TpchConfig tpch_config;
    tpch_config.scale_factor = 0.002;
    tpch_config.seed = 31;
    tpch_ = TpchData::Generate(tpch_config).release();
  }
  static void TearDownTestSuite() {
    delete tpch_;
    tpch_ = nullptr;
    delete micro_;
    micro_ = nullptr;
  }

  void SetUp() override { FaultInjector::Global().ClearAll(); }
  void TearDown() override { FaultInjector::Global().ClearAll(); }

  static QueryPlan GroupedPlan() {
    return MicroQ2(micro_->c_columns[1], micro_->c_actual[1], /*sel=*/50);
  }
  static QueryPlan JoinPlan() {
    return MicroQ4(/*large_s=*/false, /*sel1=*/50, /*sel2=*/50);
  }

  static MicroData* micro_;
  static TpchData* tpch_;
};

MicroData* LifecycleTest::micro_ = nullptr;
TpchData* LifecycleTest::tpch_ = nullptr;

// ---- Memory budgets ----

TEST(QueryContextTest, BreachStatusCarriesPerOperatorPeakAttribution) {
  QueryContext::Limits limits;
  limits.mem_limit_bytes = 1'000;
  QueryContext ctx(limits);
  EXPECT_EQ(ctx.TryCharge(600, "dim_bitmap"), AbortReason::kNone);
  EXPECT_EQ(ctx.TryCharge(100, "group_table"), AbortReason::kNone);
  EXPECT_EQ(ctx.TryCharge(-100, "group_table"), AbortReason::kNone);
  AbortReason refused = ctx.TryCharge(900, "group_table");
  EXPECT_EQ(refused, AbortReason::kBudget);
  Status status = ctx.MakeStatus(refused, "group_table", 900);
  EXPECT_EQ(status.code(), StatusCode::kBudgetExceeded);
  const std::string text = status.ToString();
  EXPECT_NE(text.find("per-operator peaks"), std::string::npos) << text;
  EXPECT_NE(text.find("dim_bitmap=600B"), std::string::npos) << text;
  EXPECT_NE(text.find("group_table=100B"), std::string::npos) << text;
  EXPECT_EQ(ctx.peak_bytes(), 700);
  EXPECT_EQ(ctx.consumed_bytes(), 600);
}

TEST_F(LifecycleTest, BudgetBreachReturnsStructuredStatusPerStrategy) {
  const QueryPlan plan = GroupedPlan();
  for (StrategyKind kind : kAllStrategies) {
    StrategyOptions options;
    options.mem_limit_bytes = 64;  // refuses the very first group table
    std::unique_ptr<Strategy> engine =
        MakeStrategy(kind, micro_->catalog, options);
    Result<QueryResult> result = engine->Execute(plan);
    ASSERT_FALSE(result.ok()) << engine->name();
    EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded)
        << engine->name() << ": " << result.status().ToString();
    // The status names the refusing site and the limit (the per-operator
    // peaks section appears once at least one charge succeeded).
    EXPECT_NE(result.status().ToString().find("at site"), std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("limit 64B"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(LifecycleTest, BudgetStatusNamesTheBreachingSite) {
  StrategyOptions options;
  options.mem_limit_bytes = 64;
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kDataCentric, micro_->catalog, options);
  Result<QueryResult> result = engine->Execute(GroupedPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("group_table"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(LifecycleTest, BudgetViaEnvironmentVariable) {
  ScopedEnv limit("SWOLE_MEM_LIMIT", "64");
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kHybrid, micro_->catalog, {});
  Result<QueryResult> result = engine->Execute(GroupedPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded);
}

TEST_F(LifecycleTest, MalformedEnvLimitIsIgnored) {
  ScopedEnv limit("SWOLE_MEM_LIMIT", "banana");
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kDataCentric, micro_->catalog, {});
  Result<QueryResult> result = engine->Execute(GroupedPlan());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(LifecycleTest, GenerousBudgetIsBitIdenticalToUngoverned) {
  const QueryPlan plan = GroupedPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());
  for (StrategyKind kind : kAllStrategies) {
    StrategyOptions options;
    options.mem_limit_bytes = int64_t{1} << 40;  // governed, non-binding
    std::unique_ptr<Strategy> engine =
        MakeStrategy(kind, micro_->catalog, options);
    Result<QueryResult> actual = engine->Execute(plan);
    ASSERT_TRUE(actual.ok())
        << engine->name() << ": " << actual.status().ToString();
    EXPECT_EQ(*actual, *expected) << engine->name();
  }
}

TEST_F(LifecycleTest, MemoryAttributionTracksPerOperatorPeaks) {
  {
    QueryContext ctx;
    StrategyOptions options;
    options.query_ctx = &ctx;
    std::unique_ptr<Strategy> engine =
        MakeStrategy(StrategyKind::kDataCentric, micro_->catalog, options);
    ASSERT_TRUE(engine->Execute(GroupedPlan()).ok());
    EXPECT_GT(ctx.site_peak_bytes("group_table"), 0);
    EXPECT_GT(ctx.peak_bytes(), 0);
    EXPECT_NE(ctx.MemoryReport().find("group_table"), std::string::npos);
  }
  {
    QueryContext ctx;
    StrategyOptions options;
    options.query_ctx = &ctx;
    std::unique_ptr<Strategy> engine =
        MakeStrategy(StrategyKind::kSwole, micro_->catalog, options);
    ASSERT_TRUE(engine->Execute(JoinPlan()).ok());
    EXPECT_GT(ctx.site_peak_bytes("dim_bitmap"), 0) << ctx.MemoryReport();
  }
}

// ---- Deadlines ----

TEST_F(LifecycleTest, ExpiredDeadlineFiresAtFirstCheckpoint) {
  const QueryPlan plan = MicroQ1(/*division=*/false, /*sel=*/50);
  for (StrategyKind kind : kAllStrategies) {
    QueryContext::Limits limits;
    limits.deadline_ms = 1;
    QueryContext ctx(limits);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    StrategyOptions options;
    options.query_ctx = &ctx;
    std::unique_ptr<Strategy> engine =
        MakeStrategy(kind, micro_->catalog, options);
    Result<QueryResult> result = engine->Execute(plan);
    ASSERT_FALSE(result.ok()) << engine->name();
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << engine->name() << ": " << result.status().ToString();
  }
}

TEST_F(LifecycleTest, InjectedDeadlineFireIsDeterministic) {
  // SWOLE_FAULT's deadline_fire site makes CheckLive report an expired
  // deadline without any wall-clock dependence.
  const QueryPlan plan = GroupedPlan();
  for (StrategyKind kind : kAllStrategies) {
    FaultInjector::Global().SetFault("deadline_fire", 1.0);
    QueryContext ctx;
    StrategyOptions options;
    options.query_ctx = &ctx;
    std::unique_ptr<Strategy> engine =
        MakeStrategy(kind, micro_->catalog, options);
    Result<QueryResult> result = engine->Execute(plan);
    ASSERT_FALSE(result.ok()) << engine->name();
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << engine->name() << ": " << result.status().ToString();
    FaultInjector::Global().ClearAll();
  }
}

TEST_F(LifecycleTest, SwoleDoesNotDegradeOnDeadline) {
  FaultInjector::Global().SetFault("deadline_fire", 1.0);
  QueryContext ctx;
  StrategyOptions options;
  options.query_ctx = &ctx;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(micro_->catalog, options);
  Result<QueryResult> result = engine->Execute(GroupedPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(engine->last_decisions().degraded_to_data_centric);
  EXPECT_EQ(ctx.degradations(), 0);
}

// ---- Cancellation ----

TEST_F(LifecycleTest, PreCancelledContextReturnsCancelled) {
  QueryContext ctx;
  ctx.RequestCancel();
  const QueryPlan plan = GroupedPlan();
  for (StrategyKind kind : kAllStrategies) {
    StrategyOptions options;
    options.query_ctx = &ctx;
    std::unique_ptr<Strategy> engine =
        MakeStrategy(kind, micro_->catalog, options);
    Result<QueryResult> result = engine->Execute(plan);
    ASSERT_FALSE(result.ok()) << engine->name();
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << engine->name() << ": " << result.status().ToString();
  }
  ReferenceEngine reference(micro_->catalog);
  reference.set_query_context(&ctx);
  Result<QueryResult> oracle = reference.Execute(plan);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kCancelled);
}

TEST_F(LifecycleTest, CancellationFromAnotherThreadStopsTheQuery) {
  QueryContext ctx;
  StrategyOptions options;
  options.query_ctx = &ctx;
  options.num_threads = 2;
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kSwole, micro_->catalog, options);
  const QueryPlan plan = GroupedPlan();

  std::thread canceller([&ctx]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ctx.RequestCancel();
  });
  // Keep executing until the cancellation lands; it is sticky, so the loop
  // terminates deterministically once RequestCancel has run.
  Result<QueryResult> result = engine->Execute(plan);
  while (result.ok()) {
    result = engine->Execute(plan);
  }
  canceller.join();
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
}

// ---- Graceful degradation ----

TEST_F(LifecycleTest, SwoleDegradesToDataCentricBitIdentical) {
  // Refuse every positional-bitmap charge: only SWOLE's pullup structures
  // breach, so the data-centric retry (value-keyed hash joins) succeeds
  // and must match the oracle bit-exactly.
  const QueryPlan plan = JoinPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());

  FaultInjector::Global().SetFault("dim_bitmap", 1.0);
  QueryContext ctx;
  StrategyOptions options;
  options.query_ctx = &ctx;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(micro_->catalog, options);
  Result<QueryResult> result = engine->Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *expected);
  EXPECT_TRUE(engine->last_decisions().degraded_to_data_centric);
  EXPECT_EQ(ctx.degradations(), 1);
  EXPECT_NE(engine->last_decisions().rationale.find("degraded"),
            std::string::npos);
}

TEST_F(LifecycleTest, DegradationRetryThatAlsoBreachesReportsBudget) {
  // A hard limit breaches both the pullup plan and the data-centric
  // retry; the caller still gets a structured budget status.
  QueryContext::Limits limits;
  limits.mem_limit_bytes = 64;
  QueryContext ctx(limits);
  StrategyOptions options;
  options.query_ctx = &ctx;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(micro_->catalog, options);
  Result<QueryResult> result = engine->Execute(GroupedPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(ctx.degradations(), 1);
}

// ---- Injected allocation-failure sweep ----

TEST_F(LifecycleTest, AllocationFaultSweepNeverCrashes) {
  // Arm every tracked site in turn and run plans covering all structure
  // kinds (group tables, dim keysets/bitmaps, reverse dims, disjunctive
  // joins, groupjoins) through every strategy at 1/2/8 threads. Every
  // execution must either succeed (site unused, or SWOLE degraded around
  // it) or return a governance status — never crash or abort.
  std::vector<QueryPlan> plans;
  plans.push_back(GroupedPlan());
  plans.push_back(JoinPlan());
  plans.push_back(MicroQ5(/*large_s=*/false, /*sel=*/50,
                          micro_->config.s_small_rows));

  for (const char* site : kTrackedSites) {
    for (const QueryPlan& plan : plans) {
      for (int threads : {1, 2, 8}) {
        for (StrategyKind kind : kAllStrategies) {
          FaultInjector::Global().ClearAll();
          FaultInjector::Global().SetFault(site, 1.0);
          QueryContext ctx;
          StrategyOptions options;
          options.query_ctx = &ctx;
          options.num_threads = threads;
          std::unique_ptr<Strategy> engine =
              MakeStrategy(kind, micro_->catalog, options);
          Result<QueryResult> result = engine->Execute(plan);
          EXPECT_TRUE(result.ok() || result.status().IsGovernance())
              << engine->name() << " site=" << site << " threads=" << threads
              << " plan=" << plan.name << ": " << result.status().ToString();
        }
      }
    }
  }
  FaultInjector::Global().ClearAll();
}

TEST_F(LifecycleTest, AllocationFaultSweepCoversReverseAndDisjunctive) {
  // TPC-H Q4 carries a reverse (EXISTS) dim, Q19 a disjunctive join, Q3 a
  // snowflake groupjoin and Q13 a seeded groupjoin — the sites and build
  // shapes the micro plans cannot reach.
  const QueryPlan q4 = tpch::Q4(tpch_->catalog);
  const QueryPlan q19 = tpch::Q19(tpch_->catalog);
  const QueryPlan q3 = tpch::Q3(tpch_->catalog);
  const QueryPlan q13 = tpch::Q13(tpch_->catalog);
  for (const char* site :
       {"reverse_keyset", "reverse_bitmap", "disjunctive_ht",
        "disjunctive_bitmap", "dim_keyset", "dim_bitmap", "group_table"}) {
    for (const QueryPlan* plan : {&q4, &q19, &q3, &q13}) {
      for (int threads : {1, 2, 8}) {
        for (StrategyKind kind : kAllStrategies) {
          FaultInjector::Global().ClearAll();
          FaultInjector::Global().SetFault(site, 1.0);
          QueryContext ctx;
          StrategyOptions options;
          options.query_ctx = &ctx;
          options.num_threads = threads;
          std::unique_ptr<Strategy> engine =
              MakeStrategy(kind, tpch_->catalog, options);
          Result<QueryResult> result = engine->Execute(*plan);
          EXPECT_TRUE(result.ok() || result.status().IsGovernance())
              << engine->name() << " site=" << site << " threads=" << threads
              << " plan=" << plan->name << ": "
              << result.status().ToString();
        }
      }
    }
  }
  FaultInjector::Global().ClearAll();
}

// ---- Build sizing ----

// Bytes of a HashTable sized for `keys` entries with `width` payload words
// (load factor below 0.7, power-of-two slots).
int64_t TableBytes(int64_t keys, int64_t width) {
  const int64_t slots = static_cast<int64_t>(bit_util::NextPowerOfTwo(
      static_cast<uint64_t>(std::max<int64_t>(16, keys * 10 / 7 + 1))));
  return slots * 8 * (1 + width);
}

TEST_F(LifecycleTest, BuildTablesAreSizedByQualifyingKeys) {
  // Q4's EXISTS set keeps the orders that have a late lineitem, and SWOLE
  // Q3's groupjoin table the qualifying orders; both builds scan many more
  // rows than they keep. Their charged peaks must follow the kept keys
  // (counted here through the positional builders): for Q4 runs plus one
  // table, for Q3 one table per worker (join-mode probes clone the key
  // set), each with room for a few times the kept keys.
  const Catalog& catalog = tpch_->catalog;
  const QueryPlan q4 = tpch::Q4(catalog);
  const QueryPlan q3 = tpch::Q3(catalog);
  const int64_t q4_keys =
      pipeline::BuildReverseBitmap(catalog, q4.reverse_dims[0],
                                   catalog.TableRef("orders").num_rows(),
                                   /*tile_size=*/1024)
          .CountSetBits();
  const int64_t q3_keys =
      pipeline::BuildDimBitmap(catalog, q3.dims[0], /*tile_size=*/1024)
          .CountSetBits();
  ASSERT_GT(q4_keys, 0);
  ASSERT_GT(q3_keys, 0);
  const int64_t q3_width = 1 + static_cast<int64_t>(q3.aggs.size());

  for (int threads : {1, 2, 8}) {
    for (StrategyKind kind : {StrategyKind::kDataCentric,
                              StrategyKind::kHybrid, StrategyKind::kRof}) {
      QueryContext ctx;
      StrategyOptions options;
      options.query_ctx = &ctx;
      options.num_threads = threads;
      std::unique_ptr<Strategy> engine = MakeStrategy(kind, catalog, options);
      ASSERT_TRUE(engine->Execute(q4).ok()) << engine->name();
      EXPECT_GT(ctx.site_peak_bytes("reverse_keyset"), 0);
      EXPECT_LE(ctx.site_peak_bytes("reverse_keyset"),
                TableBytes(4 * q4_keys, 0))
          << engine->name() << " threads=" << threads << " keys=" << q4_keys
          << ": " << ctx.MemoryReport();
    }
    QueryContext ctx;
    StrategyOptions options;
    options.query_ctx = &ctx;
    options.num_threads = threads;
    std::unique_ptr<Strategy> swole =
        MakeStrategy(StrategyKind::kSwole, catalog, options);
    ASSERT_TRUE(swole->Execute(q3).ok());
    EXPECT_LE(ctx.site_peak_bytes("group_table"),
              (threads + 1) * TableBytes(2 * q3_keys, q3_width))
        << "threads=" << threads << " keys=" << q3_keys << ": "
        << ctx.MemoryReport();
  }
}

// ---- Ungoverned bit-identity across thread counts ----

TEST_F(LifecycleTest, UngovernedResultsBitIdenticalAcrossThreadCounts) {
  const QueryPlan plan = GroupedPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());
  for (StrategyKind kind : kAllStrategies) {
    for (int threads : {1, 2, 8}) {
      StrategyOptions options;
      options.num_threads = threads;
      std::unique_ptr<Strategy> engine =
          MakeStrategy(kind, micro_->catalog, options);
      Result<QueryResult> actual = engine->Execute(plan);
      ASSERT_TRUE(actual.ok()) << engine->name();
      EXPECT_EQ(*actual, *expected)
          << engine->name() << " diverges at " << threads << " threads";
    }
  }
}

// ---- Scheduler exception safety ----

TEST_F(LifecycleTest, WorkerExceptionBecomesStatusNotTerminate) {
  for (int threads : {1, 2, 8}) {
    exec::MorselStats stats = exec::ParallelMorsels(
        threads, /*total_rows=*/100'000, /*morsel_size=*/128,
        [](int, int64_t begin, int64_t) {
          if (begin >= 50'000) throw std::runtime_error("morsel boom");
        });
    ASSERT_FALSE(stats.status.ok()) << "threads=" << threads;
    EXPECT_EQ(stats.status.code(), StatusCode::kInternal);
    EXPECT_NE(stats.status.ToString().find("morsel boom"),
              std::string::npos);
  }
}

TEST_F(LifecycleTest, CancelledContextSkipsMorselBodies) {
  QueryContext ctx;
  ctx.RequestCancel();
  std::atomic<int64_t> bodies{0};
  for (int threads : {1, 2, 8}) {
    exec::MorselStats stats = exec::ParallelMorsels(
        &ctx, threads, /*total_rows=*/100'000, /*morsel_size=*/128,
        [&bodies](int, int64_t, int64_t) { bodies.fetch_add(1); });
    ASSERT_FALSE(stats.status.ok());
    EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(bodies.load(), 0);
}

// ---- JIT kernels under governance ----

TEST_F(LifecycleTest, JitKernelBudgetBreachReturnsStructuredStatus) {
  KernelCache::Global().Clear();
  GeneratorOptions gen;
  gen.strategy = StrategyKind::kSwole;
  auto compiled =
      codegen::GenerateAndCompile(GroupedPlan(), micro_->catalog, gen, {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  QueryContext::Limits limits;
  limits.mem_limit_bytes = 64;
  QueryContext ctx(limits);
  Result<QueryResult> result =
      (*compiled)->Run(micro_->catalog, /*num_threads=*/1, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_NE(result.status().ToString().find("jit_"), std::string::npos)
      << result.status().ToString();
}

TEST_F(LifecycleTest, JitKernelHonorsCancellation) {
  KernelCache::Global().Clear();
  GeneratorOptions gen;
  gen.strategy = StrategyKind::kSwole;
  auto compiled =
      codegen::GenerateAndCompile(GroupedPlan(), micro_->catalog, gen, {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  QueryContext ctx;
  ctx.RequestCancel();
  Result<QueryResult> result =
      (*compiled)->Run(micro_->catalog, /*num_threads=*/2, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
}

TEST_F(LifecycleTest, JitKernelGovernedRunMatchesUngoverned) {
  KernelCache::Global().Clear();
  GeneratorOptions gen;
  gen.strategy = StrategyKind::kSwole;
  auto compiled =
      codegen::GenerateAndCompile(GroupedPlan(), micro_->catalog, gen, {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Result<QueryResult> ungoverned = (*compiled)->Run(micro_->catalog, 2);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.status().ToString();

  QueryContext ctx;  // governed, no limits — hooks active, nothing binds
  Result<QueryResult> governed = (*compiled)->Run(micro_->catalog, 2, &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(*governed, *ungoverned);
  EXPECT_GT(ctx.site_peak_bytes("jit_groups"), 0) << ctx.MemoryReport();
}

TEST_F(LifecycleTest, JitBudgetBreachDegradesToInterpretedDataCentric) {
  KernelCache::Global().Clear();
  // A huge (non-binding) env limit arms governance; the fault site refuses
  // only the generated kernel's group table, so the interpreted
  // data-centric retry under the same context succeeds.
  ScopedEnv limit("SWOLE_MEM_LIMIT", "1099511627776");
  FaultInjector::Global().SetFault("jit_groups", 1.0);

  const QueryPlan plan = GroupedPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());

  GeneratorOptions gen;
  gen.strategy = StrategyKind::kSwole;
  ExecutionReport report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      plan, micro_->catalog, gen, {}, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *expected);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_FALSE(report.fallback_engine.empty());
  EXPECT_NE(report.fallback_reason.find("BudgetExceeded"),
            std::string::npos)
      << report.fallback_reason;
}

TEST_F(LifecycleTest, JitCancellationDoesNotFallBackToInterpreter) {
  KernelCache::Global().Clear();
  ScopedEnv limit("SWOLE_MEM_LIMIT", "1099511627776");
  FaultInjector::Global().SetFault("deadline_fire", 1.0);

  GeneratorOptions gen;
  gen.strategy = StrategyKind::kSwole;
  ExecutionReport report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      GroupedPlan(), micro_->catalog, gen, {}, &report);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_FALSE(report.used_fallback);
}

}  // namespace
}  // namespace swole

// Observability subsystem tests (label: obs): span-tree shape determinism
// across thread counts for every strategy and the JIT, zero-allocation
// disabled-trace hot path, clean perf-counter fallback, registry handle
// semantics and thread safety (the TSan preset runs this binary), the
// JitStats-on-registry migration, and SWOLE_LOG_LEVEL parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/status.h"
#include "engine/reference_engine.h"
#include "exec/query_context.h"
#include "micro/micro.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "strategies/strategy.h"

// Counting global allocator: the disabled-trace hot path must allocate
// nothing, and only an operator-new override can prove that. Counting is
// off except inside the scoped window the test opens.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountingAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountingAlloc(size); }
void* operator new[](std::size_t size) { return CountingAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace swole {
namespace {

using codegen::ExecutionReport;
using codegen::GeneratorOptions;
using codegen::JitOptions;
using exec::QueryContext;

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kDataCentric, StrategyKind::kHybrid, StrategyKind::kRof,
    StrategyKind::kSwole};

constexpr int kThreadCounts[] = {1, 2, 8};

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

class ObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 50'001;
    config.s_small_rows = 200;
    config.s_large_rows = 4'000;
    config.c_cardinalities = {10, 1'000};
    config.seed = 17;
    micro_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete micro_;
    micro_ = nullptr;
  }

  void SetUp() override { FaultInjector::Global().ClearAll(); }
  void TearDown() override { FaultInjector::Global().ClearAll(); }

  static QueryPlan ScalarPlan() { return MicroQ1(/*division=*/false, 50); }
  static QueryPlan GroupedPlan() {
    return MicroQ2(micro_->c_columns[1], micro_->c_actual[1], /*sel=*/50);
  }
  static QueryPlan JoinPlan() {
    return MicroQ4(/*large_s=*/false, /*sel1=*/50, /*sel2=*/50);
  }
  static QueryPlan GroupjoinPlan() {
    return MicroQ5(/*large_s=*/false, /*sel=*/50,
                   micro_->config.s_small_rows);
  }

  static MicroData* micro_;
};

MicroData* ObsTest::micro_ = nullptr;

// ---- Span-tree shape determinism ----

// Spans are opened only by the driving thread, so the tree SHAPE must be
// identical at every thread count, for every strategy and plan family;
// timings and morsel/steal attribute values legitimately differ.
TEST_F(ObsTest, SpanTreeShapeDeterministicAcrossThreadCounts) {
  const QueryPlan plans[] = {ScalarPlan(), GroupedPlan(), JoinPlan(),
                             GroupjoinPlan()};
  for (StrategyKind kind : kAllStrategies) {
    for (const QueryPlan& plan : plans) {
      std::string baseline;
      for (int threads : kThreadCounts) {
        obs::QueryTrace trace;
        StrategyOptions options;
        options.num_threads = threads;
        options.trace = &trace;
        std::unique_ptr<Strategy> engine =
            MakeStrategy(kind, micro_->catalog, options);
        Result<QueryResult> result = engine->Execute(plan);
        ASSERT_TRUE(result.ok())
            << engine->name() << "/" << plan.name << ": "
            << result.status().ToString();
        std::string shape = trace.ShapeString();
        EXPECT_NE(shape.find("query("), std::string::npos) << shape;
        if (baseline.empty()) {
          baseline = shape;
        } else {
          EXPECT_EQ(shape, baseline)
              << engine->name() << "/" << plan.name << " at " << threads
              << " threads";
        }
      }
    }
  }
}

TEST_F(ObsTest, JitSpanTreeShapeDeterministicAcrossThreadCounts) {
  const QueryPlan plan = ScalarPlan();
  std::string baseline;
  for (int threads : kThreadCounts) {
    obs::QueryTrace trace;
    GeneratorOptions gen_options;
    gen_options.strategy = StrategyKind::kSwole;
    gen_options.num_threads = threads;
    gen_options.trace = &trace;
    ExecutionReport report;
    Result<QueryResult> result = codegen::ExecuteWithFallback(
        plan, micro_->catalog, gen_options, JitOptions{}, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string shape = trace.ShapeString();
    if (baseline.empty()) {
      baseline = shape;
    } else {
      EXPECT_EQ(shape, baseline) << "at " << threads << " threads";
    }
    if (report.used_jit) {
      EXPECT_NE(shape.find("jit_kernel(build,scan,merge,finish)"),
                std::string::npos)
          << shape;
    }
  }
}

// ---- Trace content ----

TEST_F(ObsTest, TraceCarriesMorselRollupsAndMemoryPeaks) {
  QueryContext ctx;
  obs::QueryTrace trace;
  StrategyOptions options;
  options.num_threads = 2;
  options.query_ctx = &ctx;
  options.trace = &trace;
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kSwole, micro_->catalog, options);
  ASSERT_TRUE(engine->Execute(GroupedPlan()).ok());

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"morsels\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"workers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"steals\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mem.peak_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mem.site.group_table\""), std::string::npos) << json;

  const std::string text = trace.ToText();
  EXPECT_NE(text.find("query"), std::string::npos) << text;
  EXPECT_NE(text.find("swole"), std::string::npos) << text;
  EXPECT_NE(text.find("actual="), std::string::npos) << text;
}

TEST_F(ObsTest, TraceRecordsCostModelDecisionInputs) {
  obs::QueryTrace trace;
  StrategyOptions options;
  options.trace = &trace;
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kSwole, micro_->catalog, options);
  ASSERT_TRUE(engine->Execute(GroupedPlan()).ok());
  const std::string json = trace.ToJson();
  // The swole span carries the chosen technique and the candidate costs it
  // was chosen on (DescribeAggDecision's sigma/cols/ht inputs).
  EXPECT_NE(json.find("\"agg\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cost.agg\""), std::string::npos) << json;
  EXPECT_NE(json.find("sigma="), std::string::npos) << json;
}

TEST(QueryTraceTest, RendersTextJsonAndShape) {
  obs::QueryTrace trace;
  {
    obs::SpanScope outer(&trace, "swole");
    outer.Attr("threads", int64_t{2});
    { obs::SpanScope inner(&trace, "build"); }
    { obs::SpanScope inner(&trace, "probe"); }
  }
  EXPECT_EQ(trace.ShapeString(), "query(swole(build,probe))");
  const std::string text = trace.ToText();
  EXPECT_NE(text.find("threads=2"), std::string::npos) << text;
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"build\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"attrs\":{\"threads\":\"2\"}"), std::string::npos)
      << json;
}

TEST(QueryTraceTest, EndClosesDanglingChildren) {
  obs::QueryTrace trace;
  obs::QueryTrace::Span* outer = trace.Begin("outer");
  trace.Begin("inner");  // left open, as after an exception unwind
  trace.End(outer);
  EXPECT_EQ(trace.current(), trace.root());
  EXPECT_GE(outer->duration_ns, 0);
  EXPECT_GE(outer->children[0]->duration_ns, 0);
}

// ---- Disabled-trace hot path ----

TEST(QueryTraceTest, NullTraceSpanScopeDoesZeroAllocations) {
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  {
    obs::SpanScope engine(nullptr, "swole");
    engine.Attr("threads", int64_t{8});
    {
      obs::SpanScope phase(nullptr, "probe");
      phase.Attr("morsels", int64_t{1024});
      phase.Attr("steals", int64_t{3});
    }
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
}

// ---- Metrics registry ----

TEST(MetricsRegistryTest, HandlesAreStableAndCount) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& a = reg.GetCounter("obs_test.stable");
  obs::Counter& b = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.Reset();
  a.Add();
  a.Add(41);
  EXPECT_EQ(b.value(), 42);

  obs::Gauge& gauge = reg.GetGauge("obs_test.gauge");
  gauge.Set(7);
  EXPECT_EQ(gauge.value(), 7);

  obs::Histogram& hist = reg.GetHistogram("obs_test.hist");
  hist.Reset();
  hist.Record(0);
  hist.Record(100);
  hist.Record(5000);
  EXPECT_EQ(hist.count(), 3);
  EXPECT_EQ(hist.sum(), 5100);
  EXPECT_EQ(hist.max(), 5000);

  const std::string dump = reg.DumpText();
  EXPECT_NE(dump.find("counter obs_test.stable 42"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("gauge obs_test.gauge 7"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram obs_test.hist"), std::string::npos) << dump;

  const std::string compact = reg.DumpCompactNonZero();
  EXPECT_NE(compact.find("obs_test.stable=42"), std::string::npos) << compact;
}

// The TSan preset runs this: registration races, hot-path increments from
// many threads, and concurrent dumps must all be clean.
TEST(MetricsRegistryTest, ConcurrentRegistrationAndCountingIsSafe) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test.shared").Reset();
  reg.GetHistogram("obs_test.shared_hist").Reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      obs::Counter& shared = reg.GetCounter("obs_test.shared");
      obs::Histogram& hist = reg.GetHistogram("obs_test.shared_hist");
      for (int i = 0; i < kIters; ++i) {
        shared.Add(1);
        hist.Record(i);
        if (i % 4096 == 0) {
          reg.GetCounter("obs_test.per_thread." + std::to_string(t)).Add(1);
          std::string dump = reg.DumpCompactNonZero();
          EXPECT_FALSE(dump.empty());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("obs_test.shared").value(),
            int64_t{kThreads} * kIters);
  EXPECT_EQ(reg.GetHistogram("obs_test.shared_hist").count(),
            int64_t{kThreads} * kIters);
}

TEST_F(ObsTest, ConcurrentTracedQueriesAreSafe) {
  const QueryPlan plan = GroupedPlan();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      obs::QueryTrace trace;
      StrategyOptions options;
      options.num_threads = 2;
      options.trace = &trace;
      std::unique_ptr<Strategy> engine =
          MakeStrategy(StrategyKind::kSwole, micro_->catalog, options);
      Result<QueryResult> result = engine->Execute(plan);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_NE(trace.ShapeString().find("swole"), std::string::npos);
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST_F(ObsTest, EngineExecutionBumpsStrategyCounters) {
  // Every entry point counts each admitted call once in queries.<engine>
  // and once in query.latency_us.<engine>: on success, on a structured
  // failure, and across SWOLE's budget degradation (one sample that covers
  // the retry). A shed call is counted in neither.
  struct EntryPoint {
    std::string engine;
    // Runs `plan` under `ctx` (null = ungoverned).
    std::function<Result<QueryResult>(const QueryPlan&, QueryContext*)> run;
  };
  std::vector<EntryPoint> entries;
  for (StrategyKind kind : kAllStrategies) {
    entries.push_back(
        {StrategyKindName(kind),
         [kind](const QueryPlan& plan, QueryContext* ctx) {
           StrategyOptions options;
           options.query_ctx = ctx;
           return MakeStrategy(kind, micro_->catalog, options)->Execute(plan);
         }});
  }
  entries.push_back({"reference",
                     [](const QueryPlan& plan, QueryContext* ctx) {
                       ReferenceEngine reference(micro_->catalog);
                       reference.set_query_context(ctx);
                       return reference.Execute(plan);
                     }});
  // ExecuteWithFallback takes no context; a trace makes it own one. The
  // armed compile fault sends it to the interpreted engine uncompiled.
  entries.push_back({"jit", [](const QueryPlan& plan, QueryContext* ctx) {
                       FaultInjector::Global().SetFault("jit_compile", 1.0);
                       obs::QueryTrace trace;
                       GeneratorOptions gen_options;
                       gen_options.strategy = StrategyKind::kSwole;
                       if (ctx != nullptr) gen_options.trace = &trace;
                       JitOptions jit;
                       jit.use_cache = false;
                       ExecutionReport report;
                       Result<QueryResult> result =
                           codegen::ExecuteWithFallback(
                               plan, micro_->catalog, gen_options, jit,
                               &report);
                       EXPECT_FALSE(report.used_jit);
                       return result;
                     }});

  struct Case {
    const char* name;
    const char* fault;  // armed for the call; null = none
    bool governed;
    bool counted;
    StatusCode code;
  };
  const Case kCases[] = {
      {"success", nullptr, false, true, StatusCode::kOk},
      {"deadline", "deadline_fire", true, true,
       StatusCode::kDeadlineExceeded},
      {"shed", "admission_reject", false, false,
       StatusCode::kAdmissionRejected},
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const EntryPoint& entry : entries) {
    obs::Counter& queries = registry.GetCounter("queries." + entry.engine);
    obs::Histogram& latency =
        registry.GetHistogram("query.latency_us." + entry.engine);
    for (const Case& c : kCases) {
      SCOPED_TRACE(entry.engine + " " + c.name);
      FaultInjector::Global().ClearAll();
      if (c.fault != nullptr) FaultInjector::Global().SetFault(c.fault, 1.0);
      const int64_t queries_before = queries.value();
      const int64_t latency_before = latency.count();
      QueryContext ctx;
      Result<QueryResult> result =
          entry.run(ScalarPlan(), c.governed ? &ctx : nullptr);
      FaultInjector::Global().ClearAll();
      EXPECT_EQ(result.status().code(), c.code) << result.status().ToString();
      const int64_t expected = c.counted ? 1 : 0;
      EXPECT_EQ(queries.value(), queries_before + expected);
      EXPECT_EQ(latency.count(), latency_before + expected);
    }
  }

  // SWOLE's budget degradation: the refused bitmap breaches the pullup
  // plan, the data-centric retry serves it, and SWOLE's one sample spans
  // both attempts while the retry counts as one data-centric query.
  obs::Counter& swole_queries = registry.GetCounter("queries.swole");
  obs::Histogram& swole_latency =
      registry.GetHistogram("query.latency_us.swole");
  obs::Counter& lean_queries = registry.GetCounter("queries.data-centric");
  const int64_t swole_before = swole_queries.value();
  const int64_t swole_latency_before = swole_latency.count();
  const int64_t lean_before = lean_queries.value();
  FaultInjector::Global().SetFault("dim_bitmap", 1.0);
  QueryContext ctx;
  StrategyOptions options;
  options.query_ctx = &ctx;
  Result<QueryResult> degraded =
      MakeStrategy(StrategyKind::kSwole, micro_->catalog, options)
          ->Execute(JoinPlan());
  FaultInjector::Global().ClearAll();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(ctx.degradations(), 1);
  EXPECT_EQ(swole_queries.value(), swole_before + 1);
  EXPECT_EQ(swole_latency.count(), swole_latency_before + 1);
  EXPECT_EQ(lean_queries.value(), lean_before + 1);

  obs::Counter& runs = registry.GetCounter("scheduler.runs");
  EXPECT_GT(runs.value(), 0);
}

// ---- JitStats migration ----

TEST(JitStatsTest, BackedByRegistryCounters) {
  codegen::JitStats& stats = codegen::GlobalJitStats();
  obs::Counter& compiles =
      obs::MetricsRegistry::Global().GetCounter("jit.compiles");
  EXPECT_EQ(&stats.compiles, &compiles);
  const int64_t before = stats.snapshot().compiles;
  compiles.Add(3);
  EXPECT_EQ(stats.snapshot().compiles, before + 3);
  compiles.Add(-3);  // restore: other tests assert on deltas
  EXPECT_EQ(stats.snapshot().compiles, before);
  // Snapshot's rendering is unchanged by the migration.
  EXPECT_NE(stats.snapshot().ToString().find("compiles="),
            std::string::npos);
}

// ---- Hardware counters ----

TEST(PerfCountersTest, InjectedFailureFallsBackCleanly) {
  FaultInjector::Global().SetFault("perf_open", 1.0);
  obs::Counter& failures =
      obs::MetricsRegistry::Global().GetCounter("perf.open_failures");
  const int64_t before = failures.value();
  std::string error;
  std::unique_ptr<obs::PerfCounterSet> set =
      obs::PerfCounterSet::TryCreate(&error);
  EXPECT_EQ(set, nullptr);
  EXPECT_NE(error.find("perf_event_open"), std::string::npos) << error;
  EXPECT_EQ(failures.value(), before + 1);
  FaultInjector::Global().ClearAll();
}

TEST(PerfCountersTest, UnavailableCountersReportNotCrash) {
  // In containers/CI, perf_event_open commonly fails with EACCES or ENOSYS;
  // either way the wrapper must return a reason, never crash, and the
  // invalid reading must render as "unavailable".
  std::string error;
  std::unique_ptr<obs::PerfCounterSet> set =
      obs::PerfCounterSet::TryCreate(&error);
  if (set == nullptr) {
    EXPECT_FALSE(error.empty());
    obs::HwCounts counts;
    EXPECT_EQ(counts.ToString(), "unavailable");
  } else {
    set->Start();
    volatile int64_t sink = 0;
    for (int i = 0; i < 1'000'000; ++i) sink += i;
    (void)sink;
    set->Stop();
    obs::HwCounts counts = set->Read();
    if (counts.valid) {
      EXPECT_GT(counts.instructions, 0);
      EXPECT_NE(counts.ToString().find("instructions="), std::string::npos);
    } else {
      EXPECT_EQ(counts.ToString(), "unavailable");
    }
  }
}

// ---- SWOLE_LOG_LEVEL ----

TEST(LogLevelTest, ParsesNamesAndDigits) {
  LogLevel out;
  EXPECT_TRUE(ParseLogLevel("debug", &out));
  EXPECT_EQ(out, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("Info", &out));
  EXPECT_EQ(out, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("WARN", &out));
  EXPECT_EQ(out, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warning", &out));
  EXPECT_EQ(out, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &out));
  EXPECT_EQ(out, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("0", &out));
  EXPECT_EQ(out, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("3", &out));
  EXPECT_EQ(out, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("", &out));
  EXPECT_FALSE(ParseLogLevel("banana", &out));
  EXPECT_FALSE(ParseLogLevel("4", &out));
  EXPECT_FALSE(ParseLogLevel("11", &out));
}

TEST(LogLevelTest, EnvAppliesAndMalformedIsIgnored) {
  const LogLevel saved = GetLogLevel();
  {
    ScopedEnv env("SWOLE_LOG_LEVEL", "error");
    InitLogLevelFromEnv();
    EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  }
  {
    SetLogLevel(saved);
    ScopedEnv env("SWOLE_LOG_LEVEL", "banana");
    InitLogLevelFromEnv();  // warns, keeps the current level
    EXPECT_EQ(GetLogLevel(), saved);
  }
  SetLogLevel(saved);
}

}  // namespace
}  // namespace swole

// Spill-to-disk robustness tests (DESIGN.md §14): a group-by whose hash
// table needs ~8x the memory budget must complete by spilling, bit-identical
// to the unconstrained run, across every strategy engine, the reference
// oracle, and the JIT host path, at every thread count. Every spill I/O
// fault site must surface as a structured Status — never a crash — and no
// run may strand spill files on disk, fault-injected or not. The
// SpillManager unit tests at the end pin the staged appends: stage and
// block boundaries, concurrent spillers, and a write fault mid-batch.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "engine/reference_engine.h"
#include "exec/hash_table.h"
#include "exec/query_context.h"
#include "exec/spill.h"
#include "micro/micro.h"
#include "strategies/strategy.h"

namespace swole {
namespace {

namespace fs = std::filesystem;

using codegen::ExecutionReport;
using codegen::GeneratorOptions;
using codegen::KernelCache;
using exec::QueryContext;
using exec::SpillConfig;
using exec::SpillManager;

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kDataCentric, StrategyKind::kHybrid, StrategyKind::kRof,
    StrategyKind::kSwole};

// The seven deterministic fault sites on the spill I/O path (exec/spill.cc).
constexpr const char* kSpillFaultSites[] = {
    "spill_create", "spill_write",  "spill_flush",    "spill_read",
    "spill_unlink", "spill_enospc", "spill_checksum"};

// The grouped micro plan below builds a ~3MB group table (100K keys,
// 131072 slots x 24B); this budget makes the table need 8x the limit.
constexpr int64_t kTightBudget = 393'216;

// Small tiles bound the per-batch distinct-key count, so a worker's
// freshly-reset table after a spill stays far below the budget even when
// several workers charge the same context.
constexpr int64_t kSpillTile = 512;

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

int64_t CountFilesUnder(const std::string& dir) {
  int64_t files = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory(ec)) ++files;
  }
  return files;
}

class SpillTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 400'001;  // caps the group-key cardinality at 100K
    config.s_small_rows = 100;
    config.s_large_rows = 1'000;
    config.c_cardinalities = {100'000};
    config.seed = 17;
    micro_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete micro_;
    micro_ = nullptr;
  }

  void SetUp() override {
    FaultInjector::Global().ClearAll();
    char tmpl[] = "/tmp/swole_spill_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    spill_base_ = tmpl;
    spill_dir_env_ = std::make_unique<ScopedEnv>("SWOLE_SPILL_DIR",
                                                 spill_base_);
  }
  void TearDown() override {
    FaultInjector::Global().ClearAll();
    spill_dir_env_.reset();
    std::error_code ec;
    fs::remove_all(spill_base_, ec);
  }

  // select sum(r_a * r_b) from R where r_x < 100 group by r_c_100000:
  // every row survives the filter, so the group table holds all 100K keys.
  static QueryPlan SpillingPlan() {
    return MicroQ2(micro_->c_columns[0], micro_->c_actual[0], /*sel=*/100);
  }

  void ExpectNoStrandedSpillFiles() {
    EXPECT_EQ(CountFilesUnder(spill_base_), 0)
        << "spill scratch files leaked under " << spill_base_;
  }

  static MicroData* micro_;
  std::string spill_base_;
  std::unique_ptr<ScopedEnv> spill_dir_env_;
};

MicroData* SpillTest::micro_ = nullptr;

// ---- Bit-identity under an 8x-too-small budget ----

TEST_F(SpillTest, SpillingGroupByBitIdenticalAcrossStrategiesAndThreads) {
  const QueryPlan plan = SpillingPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  // Uniform draws miss ~e^-4 of the key space; the table still holds
  // ~98K groups (131072 slots x 24B ~= 3MB, 8x the budget).
  ASSERT_GT(expected->NumGroups(), micro_->c_actual[0] * 9 / 10);

  for (StrategyKind kind : kAllStrategies) {
    for (int threads : {1, 2, 8}) {
      QueryContext::Limits limits;
      limits.mem_limit_bytes = kTightBudget;
      QueryContext ctx(limits);
      StrategyOptions options;
      options.query_ctx = &ctx;
      options.num_threads = threads;
      options.tile_size = kSpillTile;
      options.spill = 1;
      std::unique_ptr<Strategy> engine =
          MakeStrategy(kind, micro_->catalog, options);
      Result<QueryResult> actual = engine->Execute(plan);
      ASSERT_TRUE(actual.ok())
          << engine->name() << " threads=" << threads << ": "
          << actual.status().ToString();
      EXPECT_EQ(*actual, *expected)
          << engine->name() << " diverges at " << threads << " threads";
      EXPECT_GT(ctx.spills(), 0)
          << engine->name() << " threads=" << threads
          << ": budget never bound, the spill path was not exercised";
      ExpectNoStrandedSpillFiles();
    }
  }
}

TEST_F(SpillTest, ReferenceEngineSpillsBitIdentical) {
  const QueryPlan plan = SpillingPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());

  QueryContext::Limits limits;
  limits.mem_limit_bytes = kTightBudget;
  QueryContext ctx(limits);
  ctx.set_spill_enabled(true);
  ReferenceEngine governed(micro_->catalog);
  governed.set_query_context(&ctx);
  Result<QueryResult> actual = governed.Execute(plan);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(*actual, *expected);
  EXPECT_GT(ctx.spills(), 0);
  ExpectNoStrandedSpillFiles();
}

TEST_F(SpillTest, JitBudgetBreachFallsBackToSpillingInterpreter) {
  KernelCache::Global().Clear();
  // The generated kernel keeps its in-memory group table (stable cache
  // keys); its budget breach retries the same strategy interpreted, under
  // the same context, where the group table spills.
  ScopedEnv limit("SWOLE_MEM_LIMIT", std::to_string(kTightBudget));
  ScopedEnv spill("SWOLE_SPILL", "auto");

  const QueryPlan plan = SpillingPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());

  GeneratorOptions gen;
  gen.strategy = StrategyKind::kSwole;
  ExecutionReport report;
  Result<QueryResult> result =
      codegen::ExecuteWithFallback(plan, micro_->catalog, gen, {}, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *expected);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_NE(report.fallback_reason.find("BudgetExceeded"), std::string::npos)
      << report.fallback_reason;
  ExpectNoStrandedSpillFiles();
}

// ---- Degradation ladder endpoints ----

TEST_F(SpillTest, SpillOffKeepsBudgetAbortBehavior) {
  QueryContext::Limits limits;
  limits.mem_limit_bytes = kTightBudget;
  QueryContext ctx(limits);
  StrategyOptions options;
  options.query_ctx = &ctx;
  options.tile_size = kSpillTile;
  options.spill = 0;  // forced off: the breach must abort, not spill
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kDataCentric, micro_->catalog, options);
  Result<QueryResult> result = engine->Execute(SpillingPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded)
      << result.status().ToString();
  EXPECT_EQ(ctx.spills(), 0);
  ExpectNoStrandedSpillFiles();
}

TEST_F(SpillTest, RepartitionDepthExhaustionReturnsSpillFailed) {
  // Two-way fan-out and one repartition level: a 100K-group partition can
  // never fit a 64KB budget, so the ladder must end in a structured
  // kSpillFailed — not a crash, not an infinite repartition loop.
  ScopedEnv partitions("SWOLE_SPILL_PARTITIONS", "2");
  ScopedEnv depth("SWOLE_SPILL_DEPTH", "1");
  QueryContext::Limits limits;
  limits.mem_limit_bytes = 64 * 1024;
  QueryContext ctx(limits);
  StrategyOptions options;
  options.query_ctx = &ctx;
  options.tile_size = kSpillTile;
  options.spill = 1;
  std::unique_ptr<Strategy> engine =
      MakeStrategy(StrategyKind::kDataCentric, micro_->catalog, options);
  Result<QueryResult> result = engine->Execute(SpillingPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSpillFailed)
      << result.status().ToString();
  EXPECT_TRUE(result.status().IsGovernance());
  ExpectNoStrandedSpillFiles();
}

// ---- Fault sweep over every spill I/O site ----

TEST_F(SpillTest, SpillFaultSweepStructuredStatusNeverLeaks) {
  const QueryPlan plan = SpillingPlan();
  ReferenceEngine oracle(micro_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok());

  for (const char* site : kSpillFaultSites) {
    for (int threads : {1, 2, 8}) {
      FaultInjector::Global().ClearAll();
      FaultInjector::Global().SetFault(site, 1.0);
      QueryContext::Limits limits;
      limits.mem_limit_bytes = kTightBudget;
      QueryContext ctx(limits);
      StrategyOptions options;
      options.query_ctx = &ctx;
      options.num_threads = threads;
      options.tile_size = kSpillTile;
      options.spill = 1;
      std::unique_ptr<Strategy> engine =
          MakeStrategy(StrategyKind::kDataCentric, micro_->catalog, options);
      Result<QueryResult> result = engine->Execute(plan);
      // Some sites fire only on paths a given run skips (e.g. the
      // checksum verify of a partition that never spilled); success then
      // still has to be the right answer. A failure must be a structured
      // Status naming the injected site — except spill_checksum, which
      // corrupts the computed digest and so surfaces as the same checksum
      // mismatch a real bit flip would.
      if (result.ok()) {
        EXPECT_EQ(*result, *expected) << "site=" << site;
      } else {
        EXPECT_FALSE(result.status().message().empty())
            << "site=" << site << " threads=" << threads;
        const std::string text = result.status().ToString();
        const bool structured =
            text.find("injected fault") != std::string::npos ||
            (std::string(site) == "spill_checksum" &&
             text.find("checksum mismatch") != std::string::npos);
        EXPECT_TRUE(structured)
            << "site=" << site << " threads=" << threads << ": " << text;
      }
      ExpectNoStrandedSpillFiles();
    }
  }
  FaultInjector::Global().ClearAll();
}

TEST_F(SpillTest, AllSpillFaultSitesAreRegistered) {
  // SWOLE_FAULT=list prints this registry at startup; the sweep above is
  // only exhaustive if every site the spill path uses is registered.
  auto sites = FaultInjector::RegisteredSites();
  for (const char* site : kSpillFaultSites) {
    bool found = false;
    for (const auto& [name, desc] : sites) {
      if (name == site) {
        found = true;
        EXPECT_FALSE(desc.empty()) << site;
      }
    }
    EXPECT_TRUE(found) << site << " is not a registered fault site";
  }
}

// ---- SpillManager unit: on-disk roundtrip and checksum verification ----

TEST_F(SpillTest, SpillManagerRoundtripMergesFragments) {
  SpillConfig config = SpillConfig::FromEnv();
  config.enabled = true;
  config.num_partitions = 4;
  SpillManager spill(config, /*payload_width=*/2, /*ctx=*/nullptr);

  // Two fragments per key, spilled in interleaved order: the merged value
  // must be the fragment sum regardless of arrival order.
  constexpr int64_t kKeys = 1'000;
  for (int64_t pass = 0; pass < 2; ++pass) {
    SpillManager::Batch batch(spill);
    for (int64_t k = 0; k < kKeys; ++k) {
      int64_t payload[2] = {k + pass, 10 * k};
      ASSERT_TRUE(batch.Add(k, payload).ok());
    }
    ASSERT_TRUE(batch.Finish().ok());
  }
  ASSERT_TRUE(spill.Flush().ok());
  EXPECT_TRUE(spill.spilled());
  EXPECT_EQ(spill.spill_events(), 2);
  EXPECT_EQ(spill.rows_spilled(), 2 * kKeys);
  EXPECT_GT(spill.bytes_written(), 2 * kKeys * 3 * 8);

  auto merge_fn = [](int64_t* dst, const int64_t* src) {
    dst[0] += src[0];
    dst[1] += src[1];
  };
  std::vector<int64_t> rows;
  for (int p = 0; p < config.num_partitions; ++p) {
    ASSERT_TRUE(spill.MergePartition(p, merge_fn, &rows).ok()) << p;
  }
  ASSERT_EQ(rows.size(), static_cast<size_t>(kKeys * 3));
  std::vector<bool> seen(kKeys, false);
  for (size_t i = 0; i < rows.size(); i += 3) {
    int64_t k = rows[i];
    ASSERT_GE(k, 0);
    ASSERT_LT(k, kKeys);
    EXPECT_FALSE(seen[k]) << "key " << k << " merged twice";
    seen[k] = true;
    EXPECT_EQ(rows[i + 1], 2 * k + 1) << k;
    EXPECT_EQ(rows[i + 2], 20 * k) << k;
  }
}

TEST_F(SpillTest, CorruptedSpillBlockFailsChecksumNotCrash) {
  SpillConfig config = SpillConfig::FromEnv();
  config.enabled = true;
  config.num_partitions = 2;
  SpillManager spill(config, /*payload_width=*/1, /*ctx=*/nullptr);
  SpillManager::Batch batch(spill);
  for (int64_t k = 0; k < 2'000; ++k) {
    int64_t payload[1] = {k};
    ASSERT_TRUE(batch.Add(k, payload).ok());
  }
  ASSERT_TRUE(batch.Finish().ok());
  ASSERT_TRUE(spill.Flush().ok());

  // Flip one payload byte in every run file on disk, past the 16-byte file
  // header and the 16-byte block header.
  int64_t corrupted = 0;
  for (fs::recursive_directory_iterator it(spill_base_), end; it != end;
       ++it) {
    if (it->is_directory()) continue;
    std::fstream f(it->path(), std::ios::in | std::ios::out |
                                   std::ios::binary);
    ASSERT_TRUE(f.is_open()) << it->path();
    f.seekp(16 + 16 + 3);
    char byte = 0;
    f.seekg(16 + 16 + 3);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(16 + 16 + 3);
    f.write(&byte, 1);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0) << "no spill run files found to corrupt";

  auto merge_fn = [](int64_t* dst, const int64_t* src) { dst[0] += src[0]; };
  for (int p = 0; p < config.num_partitions; ++p) {
    std::vector<int64_t> rows;
    Status status = spill.MergePartition(p, merge_fn, &rows);
    ASSERT_FALSE(status.ok()) << "partition " << p
                              << " accepted corrupted rows";
    EXPECT_NE(status.ToString().find("checksum"), std::string::npos)
        << status.ToString();
  }
}

// ---- SpillManager::Batch: staged appends ----

// Keys 0, 1, 2, ... whose depth-0 radix digit — the top log2(partitions)
// bits of HashTable::Hash (exec/spill.h) — is `partition`.
std::vector<int64_t> KeysOfPartition(int partition, int num_partitions,
                                     int64_t count) {
  const int bits = __builtin_ctz(static_cast<unsigned>(num_partitions));
  std::vector<int64_t> keys;
  for (int64_t k = 0; static_cast<int64_t>(keys.size()) < count; ++k) {
    if (static_cast<int>(HashTable::Hash(k) >> (64 - bits)) == partition) {
      keys.push_back(k);
    }
  }
  return keys;
}

// Bytes one partition's run takes on disk: the file header plus one
// 16-byte block header per kBlockRows (4096) rows.
int64_t RunBytes(int64_t rows, int row_width) {
  if (rows == 0) return 0;
  const int64_t blocks = (rows + 4095) / 4096;
  return 16 + 16 * blocks + rows * row_width * 8;
}

// Merges every partition of `spill` with element-wise addition into a
// key-ordered map.
std::map<int64_t, std::vector<int64_t>> MergeAll(SpillManager& spill) {
  const int width = spill.payload_width();
  auto merge_fn = [width](int64_t* dst, const int64_t* src) {
    for (int w = 0; w < width; ++w) dst[w] += src[w];
  };
  std::map<int64_t, std::vector<int64_t>> merged;
  for (int p = 0; p < spill.num_partitions(); ++p) {
    std::vector<int64_t> rows;
    Status status = spill.MergePartition(p, merge_fn, &rows);
    EXPECT_TRUE(status.ok()) << p << ": " << status.ToString();
    for (size_t i = 0; i < rows.size(); i += 1 + width) {
      const auto payload = rows.begin() + i + 1;
      std::vector<int64_t> value(payload, payload + width);
      bool inserted = merged.emplace(rows[i], std::move(value)).second;
      EXPECT_TRUE(inserted) << "key " << rows[i] << " merged twice";
    }
  }
  return merged;
}

TEST_F(SpillTest, StagedAppendsKeepBlockBoundaries) {
  // Stage-sized counts (kStageRows = 256) and block-sized counts (4096):
  // every row arrives once and blocks stay 4096 rows, so the bytes on disk
  // are exactly the header, one block header per 4096 rows, and the rows.
  for (int64_t rows : {255, 256, 257, 4095, 4096, 4097, 8193}) {
    SpillConfig config = SpillConfig::FromEnv();
    config.enabled = true;
    config.num_partitions = 2;
    SpillManager spill(config, /*payload_width=*/2, /*ctx=*/nullptr);
    const std::vector<int64_t> keys0 = KeysOfPartition(0, 2, rows);
    const std::vector<int64_t> keys1 = KeysOfPartition(1, 2, rows / 2 + 1);
    SpillManager::Batch batch(spill);
    for (const auto& keys : {keys0, keys1}) {
      for (int64_t k : keys) {
        int64_t payload[2] = {k, 1};
        ASSERT_TRUE(batch.Add(k, payload).ok()) << rows;
      }
    }
    ASSERT_TRUE(batch.Finish().ok());
    ASSERT_TRUE(spill.Flush().ok());
    const int64_t total = rows + rows / 2 + 1;
    EXPECT_EQ(spill.rows_spilled(), total) << rows;
    EXPECT_EQ(spill.bytes_written(),
              RunBytes(rows, 3) + RunBytes(rows / 2 + 1, 3))
        << rows;
    EXPECT_EQ(spill.spill_events(), 1);
    std::map<int64_t, std::vector<int64_t>> merged = MergeAll(spill);
    ASSERT_EQ(static_cast<int64_t>(merged.size()), total) << rows;
    for (const auto& [key, payload] : merged) {
      EXPECT_EQ(payload, (std::vector<int64_t>{key, 1})) << key;
    }
  }
  ExpectNoStrandedSpillFiles();
}

TEST_F(SpillTest, PartialStagesOfManyBatchesFillWholeBlocks) {
  // 17 batches of 257 rows into one partition: each Finish appends a
  // partial stage, and the writer still cuts 4096-row blocks across them.
  SpillConfig config = SpillConfig::FromEnv();
  config.enabled = true;
  config.num_partitions = 4;
  SpillManager spill(config, /*payload_width=*/1, /*ctx=*/nullptr);
  constexpr int kBatches = 17;
  constexpr int64_t kRowsPerBatch = 257;
  const std::vector<int64_t> keys = KeysOfPartition(3, 4, kRowsPerBatch);
  for (int b = 0; b < kBatches; ++b) {
    SpillManager::Batch batch(spill);
    for (int64_t k : keys) {
      int64_t payload[1] = {b + 1};
      ASSERT_TRUE(batch.Add(k, payload).ok());
    }
    ASSERT_TRUE(batch.Finish().ok());
  }
  ASSERT_TRUE(spill.Flush().ok());
  EXPECT_EQ(spill.spill_events(), kBatches);
  EXPECT_EQ(spill.rows_spilled(), kBatches * kRowsPerBatch);
  EXPECT_EQ(spill.bytes_written(), RunBytes(kBatches * kRowsPerBatch, 2));
  std::map<int64_t, std::vector<int64_t>> merged = MergeAll(spill);
  ASSERT_EQ(static_cast<int64_t>(merged.size()), kRowsPerBatch);
  for (const auto& [key, payload] : merged) {
    EXPECT_EQ(payload[0], kBatches * (kBatches + 1) / 2) << key;
  }
  ExpectNoStrandedSpillFiles();
}

TEST_F(SpillTest, ConcurrentStagedSpillsMergeToSerialSums) {
  // Eight workers spill overlapping key ranges into one manager, twice
  // each, at once: the merged rows must equal the serially computed sums
  // of every fragment.
  SpillConfig config = SpillConfig::FromEnv();
  config.enabled = true;
  SpillManager spill(config, /*payload_width=*/2, /*ctx=*/nullptr);
  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  constexpr int64_t kKeysPerTable = 20'000;
  constexpr int64_t kStride = 2'500;
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        HashTable table(/*payload_width=*/2, 16);
        for (int64_t i = 0; i < kKeysPerTable; ++i) {
          const int64_t key = t * kStride + i;
          int64_t* payload = table.GetOrInsert(key);
          payload[0] = key * (round + 1) + t;
          payload[1] = 1;
        }
        Status st = spill.SpillTable(table, HashTable::kMaskKey);
        if (!st.ok() && statuses[t].ok()) statuses[t] = st;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << t << ": " << statuses[t].ToString();
  }
  ASSERT_TRUE(spill.Flush().ok());
  EXPECT_EQ(spill.spill_events(), kThreads * kRounds);
  EXPECT_EQ(spill.rows_spilled(), kThreads * kRounds * kKeysPerTable);

  std::map<int64_t, std::vector<int64_t>> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      for (int64_t i = 0; i < kKeysPerTable; ++i) {
        const int64_t key = t * kStride + i;
        std::vector<int64_t>& sums = expected[key];
        sums.resize(2, 0);
        sums[0] += key * (round + 1) + t;
        sums[1] += 1;
      }
    }
  }
  EXPECT_EQ(MergeAll(spill), expected);
  ExpectNoStrandedSpillFiles();
}

TEST_F(SpillTest, WriteFaultMidBatchFailsPartitionFirstErrorWins) {
  {
    SpillConfig config = SpillConfig::FromEnv();
    config.enabled = true;
    config.num_partitions = 2;
    SpillManager spill(config, /*payload_width=*/1, /*ctx=*/nullptr);
    const std::vector<int64_t> keys = KeysOfPartition(0, 2, 3 * 4096 + 100);
    FaultInjector::Global().SetFault("spill_write", 1.0);
    // The first block write happens when the 16th 256-row stage reaches
    // the writer, at row 4095 — in the middle of the call.
    SpillManager::Batch batch(spill);
    Status failure;
    int64_t failed_at = -1;
    for (int64_t i = 0; i < static_cast<int64_t>(keys.size()); ++i) {
      int64_t payload[1] = {1};
      failure = batch.Add(keys[i], payload);
      if (!failure.ok()) {
        failed_at = i;
        break;
      }
    }
    EXPECT_EQ(failed_at, 4095);
    EXPECT_EQ(failure.code(), StatusCode::kIOError) << failure.ToString();
    EXPECT_NE(failure.ToString().find("injected fault: spill_write"),
              std::string::npos)
        << failure.ToString();

    // The partition keeps its first error: later appends, from this or
    // another batch, and the final flush all report it.
    FaultInjector::Global().ClearAll();
    SpillManager::Batch later(spill);
    Status again;
    for (int64_t i = 0; i < 256 && again.ok(); ++i) {
      int64_t payload[1] = {1};
      again = later.Add(keys[i], payload);
    }
    EXPECT_EQ(again.code(), StatusCode::kIOError);
    EXPECT_NE(again.ToString().find("already failed"), std::string::npos)
        << again.ToString();
    EXPECT_NE(again.ToString().find("spill_write"), std::string::npos)
        << again.ToString();
    Status flushed = spill.Flush();
    EXPECT_FALSE(flushed.ok());
    EXPECT_NE(flushed.ToString().find("already failed"), std::string::npos)
        << flushed.ToString();
  }
  // The failed run file was created before the write failed; the
  // manager's scratch dir removes it.
  ExpectNoStrandedSpillFiles();
}

}  // namespace
}  // namespace swole

#include "cost/calibration.h"

#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "exec/hash_table.h"

namespace swole {

namespace {
// Repeats a probe a few times and takes the fastest run (steady-state,
// caches warm, no interference).
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    double t = fn();
    if (i == 0 || t < best) best = t;
  }
  return best;
}
}  // namespace

double MeasureReadSeqNs(const CalibrationOptions& options) {
  int64_t n = options.probe_bytes / sizeof(int32_t);
  std::vector<int32_t> data(n);
  Rng rng(options.seed);
  for (auto& v : data) v = static_cast<int32_t>(rng.Next());

  return BestOf(3, [&] {
    Timer timer;
    int64_t sum = 0;
    for (int64_t i = 0; i < n; ++i) sum += data[i];
    DoNotOptimize(sum);
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(n);
  });
}

double MeasureReadCondNs(const CalibrationOptions& options) {
  // Conditional reads in the engines are selection-vector gathers: an
  // ascending but sparse index walk. Probe with ~10% density so most
  // cache lines are skipped (dense selections degenerate to sequential).
  int64_t n = options.probe_bytes / sizeof(int32_t);
  std::vector<int32_t> data(n);
  Rng rng(options.seed + 1);
  for (auto& v : data) v = static_cast<int32_t>(rng.Next());
  std::vector<int32_t> sel;
  sel.reserve(n / 8);
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) sel.push_back(static_cast<int32_t>(i));
  }
  if (sel.empty()) sel.push_back(0);

  return BestOf(3, [&] {
    Timer timer;
    int64_t sum = 0;
    for (int32_t index : sel) sum += data[index];
    DoNotOptimize(sum);
    return timer.ElapsedSeconds() * 1e9 /
           static_cast<double>(sel.size());
  });
}

double MeasureHtLookupNs(int64_t keys, const CalibrationOptions& options) {
  HashTable table(/*payload_width=*/1, keys);
  for (int64_t k = 0; k < keys; ++k) *table.GetOrInsert(k) = k;

  int64_t probes = options.ht_probes;
  std::vector<int64_t> probe_keys(probes);
  Rng rng(options.seed + 2);
  for (auto& k : probe_keys) {
    k = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(keys)));
  }

  return BestOf(3, [&] {
    Timer timer;
    int64_t sum = 0;
    for (int64_t i = 0; i < probes; ++i) {
      const int64_t* payload = table.Find(probe_keys[i]);
      sum += *payload;
    }
    DoNotOptimize(sum);
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(probes);
  });
}

double MeasureHtNullNs(const CalibrationOptions& options) {
  HashTable table(/*payload_width=*/1, 1 << 20);
  Rng rng(options.seed + 3);
  for (int64_t k = 0; k < (1 << 20); ++k) *table.GetOrInsert(k) = 1;
  *table.GetOrInsert(HashTable::kMaskKey) = 0;

  int64_t probes = options.ht_probes;
  return BestOf(3, [&] {
    Timer timer;
    int64_t sum = 0;
    for (int64_t i = 0; i < probes; ++i) {
      sum += *table.Find(HashTable::kMaskKey);
    }
    DoNotOptimize(sum);
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(probes);
  });
}

double MeasureNsPerCycle() {
  // A chain of dependent adds executes ~1 per cycle.
  constexpr int64_t kIters = 1 << 26;
  volatile int64_t seed = 1;
  Timer timer;
  int64_t x = seed;
  for (int64_t i = 0; i < kIters; ++i) x += i ^ x;
  DoNotOptimize(x);
  double ns = timer.ElapsedSeconds() * 1e9;
  // Two dependent ALU ops per iteration.
  return ns / (2.0 * static_cast<double>(kIters));
}

CostProfile CalibrateCostProfile(const CalibrationOptions& options) {
  CostProfile p = CostProfile::Default();
  // Option > environment > default. GetEnvInt64 warns on malformed values
  // (trailing garbage, negatives, overflow) and keeps the fallback.
  p.l1_bytes = options.l1_bytes > 0
                   ? options.l1_bytes
                   : GetEnvInt64("SWOLE_L1_BYTES", p.l1_bytes);
  p.l2_bytes = options.l2_bytes > 0
                   ? options.l2_bytes
                   : GetEnvInt64("SWOLE_L2_BYTES", p.l2_bytes);
  p.l3_bytes = options.l3_bytes > 0
                   ? options.l3_bytes
                   : GetEnvInt64("SWOLE_L3_BYTES", p.l3_bytes);

  p.read_seq = MeasureReadSeqNs(options);
  p.read_cond = MeasureReadCondNs(options);
  p.ht_null = MeasureHtNullNs(options);

  // One table size per cache level: entries are 16 bytes (key + payload),
  // target half the level's capacity.
  auto keys_for_bytes = [](int64_t bytes) {
    return std::max<int64_t>(64, bytes / 2 / 16);
  };
  p.ht_lookup_l1 = MeasureHtLookupNs(keys_for_bytes(p.l1_bytes), options);
  p.ht_lookup_l2 = MeasureHtLookupNs(keys_for_bytes(p.l2_bytes), options);
  p.ht_lookup_l3 = MeasureHtLookupNs(keys_for_bytes(p.l3_bytes), options);
  p.ht_lookup_mem = MeasureHtLookupNs(keys_for_bytes(p.l3_bytes * 8), options);
  p.ht_insert = p.ht_lookup_mem;  // inserts into large tables miss like reads
  p.ht_delete = p.ht_lookup_mem;

  SWOLE_LOG(INFO) << "calibrated cost profile: " << p.ToString();
  return p;
}

}  // namespace swole

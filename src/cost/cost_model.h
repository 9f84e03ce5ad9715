#ifndef SWOLE_COST_COST_MODEL_H_
#define SWOLE_COST_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "common/status.h"

// The paper's cost models (§III), in nanoseconds per tuple.
//
//   Hybrid  = R * (read_seq + sigma * max(comp, read_cond))            (III-A)
//   VM      = R * (read_seq + max(comp, read_seq))                     (III-A)
//   VM_gb   = R * (read_seq + max(comp, read_seq, ht_lookup))          (III-B)
//   KM      = R * (read_seq + sigma     * max(comp, read_seq, ht_lookup)
//                           + (1-sigma) * max(comp, read_seq, ht_null))(III-B)
//   Groupjoin = S * (read_seq + sigma_S * (read_cond + ht_insert))
//             + R * (read_seq + sigma_R * (read_cond + ht_lookup)
//                             + match * max(comp, read_cond))          (III-E)
//   EA      = R * (read_seq + sigma_R * min(Hybrid, VM, KM))
//           + S * (read_seq + (1-sigma_S) * (read_cond + ht_delete))   (III-E)
//
// ht_lookup depends on hash-table size through the cache hierarchy;
// `comp` is estimated by introspection of the aggregate expression [4].

namespace swole {

struct Expr;

/// Calibrated (or default) per-operation costs. All times ns/tuple.
struct CostProfile {
  double read_seq = 0.5;     // sequential column access
  double read_cond = 3.0;    // conditional access (branch + sparse touch)
  double ht_insert = 12.0;   // hash-table insert (memory-resident table)
  double ht_null = 1.5;      // throwaway-entry access (always cached)
  double ht_delete = 12.0;   // tombstone delete
  // String-kernel cost per byte streamed through a match (arena bytes are
  // read sequentially inside one row).
  double str_seq_byte = 0.03;

  // Cache capacities (bytes) and per-level lookup costs.
  int64_t l1_bytes = 32 << 10;
  int64_t l2_bytes = 1 << 20;
  int64_t l3_bytes = 24 << 20;
  double ht_lookup_l1 = 2.0;
  double ht_lookup_l2 = 4.0;
  double ht_lookup_l3 = 10.0;
  double ht_lookup_mem = 40.0;

  /// Lookup cost for a hash table of `table_bytes` total size.
  double HtLookup(int64_t table_bytes) const {
    if (table_bytes <= l1_bytes) return ht_lookup_l1;
    if (table_bytes <= l2_bytes) return ht_lookup_l2;
    if (table_bytes <= l3_bytes) return ht_lookup_l3;
    return ht_lookup_mem;
  }

  /// Deterministic defaults (plausible for a ~2GHz server core). Tests use
  /// this; benchmarks may calibrate (cost/calibration.h).
  static CostProfile Default() { return CostProfile(); }

  std::string ToString() const;
};

// ---- Formula evaluators (exposed for tests and the model-vs-measured
// benchmark). All return total ns for the stated workload. ----

struct AggWorkload {
  double rows = 0;          // |R|
  double selectivity = 0;   // sigma in [0,1]
  double comp_ns = 0;       // per-tuple aggregate compute cost
  int64_t group_ht_bytes = 0;  // 0 => scalar aggregation (no hash table)
  // Distinct columns the aggregation phase reads (group key + aggregate
  // inputs). The per-tuple read terms scale with it: a 7-column TPC-H Q1
  // aggregation pays 7 conditional reads under the hybrid plan but 7
  // sequential ones under masking — which is what tips Q1 to key masking.
  int num_read_columns = 1;
  // Average physical width (bytes) of the columns read, 8 = legacy int64.
  // Sequential reads are bandwidth-bound, so their cost scales with bytes
  // actually moved now that kernels execute at native width; conditional
  // reads stay width-independent (a random touch costs a cache line
  // either way). Narrow columns therefore bias the model toward the
  // masking (sequential) plans.
  double avg_read_width = 8.0;
};

double HybridCost(const CostProfile& p, const AggWorkload& w);
double ValueMaskingCost(const CostProfile& p, const AggWorkload& w);
double KeyMaskingCost(const CostProfile& p, const AggWorkload& w);

struct GroupjoinWorkload {
  double r_rows = 0;        // probe side |R|
  double s_rows = 0;        // build side |S|
  double sigma_r = 1.0;     // probe-side predicate selectivity
  double sigma_s = 1.0;     // build-side predicate selectivity
  double match_prob = 1.0;  // P(join match) for a probing tuple
  double comp_ns = 0;       // final aggregation compute cost
  // The groupjoin's table holds only qualifying build keys; the eager
  // rewrite's table holds (almost) every key, so it is larger — sizing
  // them separately is what makes the model reject EA when the join
  // filters many keys (the paper's Q3 discussion).
  int64_t ht_bytes = 0;     // groupjoin hash-table size
  int64_t ea_ht_bytes = 0;  // eager-aggregation hash-table size
  int num_read_columns = 1;  // aggregation inputs (see AggWorkload)
  double avg_read_width = 8.0;  // bytes per value read (see AggWorkload)
};

double GroupjoinCost(const CostProfile& p, const GroupjoinWorkload& w);
double EagerAggregationCost(const CostProfile& p, const GroupjoinWorkload& w);

// ---- String predicate placement (access-aware pullup for raw text) ----
//
// A string predicate on the fact table can run in two places:
//
//   Pushed (into the scan): every fact row pays a kernel match — the arena
//     streams sequentially at full bandwidth, nothing is skipped.
//       rows * (read_seq + avg_len * str_seq_byte)
//   Pulled (above the joins / other conjuncts): only rows that survive
//     everything else pay the match, but each surviving row is a random
//     arena touch (read_cond) before its bytes stream.
//       rows * sigma_other * (read_cond + avg_len * str_seq_byte)
//
// The flip point is sigma_other = (read_seq + avg_len * str_seq_byte) /
// (read_cond + avg_len * str_seq_byte): selective join trees favor pulling
// the expensive match up, unselective ones favor the sequential scan.
// AND is commutative, so placement changes performance only — results are
// bit-identical either way (the differential tests pin this).

struct StringPredWorkload {
  double rows = 0;          // fact rows scanned
  double sigma_other = 1;   // selectivity of all non-string quals combined
  double avg_len = 0;       // average string length in bytes
};

double StringPushedCost(const CostProfile& p, const StringPredWorkload& w);
double StringPulledCost(const CostProfile& p, const StringPredWorkload& w);

/// "Introspection" estimate of the per-tuple compute cost of an expression
/// (cycle counts per operator at a fixed ~2.2 GHz clock).
double EstimateComputeNs(const CostProfile& p, const Expr& expr);

// ---- Decisions ----

enum class AggChoice : uint8_t { kHybridFallback, kValueMasking, kKeyMasking };
const char* AggChoiceName(AggChoice choice);

enum class StringPlacement : uint8_t { kPushdown, kPullup };
const char* StringPlacementName(StringPlacement placement);

/// Picks where a fact-side string predicate runs (cheaper of the two
/// formulas above).
StringPlacement ChooseStringPlacement(const CostProfile& p,
                                      const StringPredWorkload& w);

/// Picks the cheapest aggregation technique. Scalar aggregations
/// (group_ht_bytes == 0) never pick key masking — there is no key.
AggChoice ChooseAggregation(const CostProfile& p, const AggWorkload& w);

/// True if the eager-aggregation rewrite beats the traditional groupjoin.
bool ChooseEagerAggregation(const CostProfile& p,
                            const GroupjoinWorkload& w);

// ---- Decision logging (obs/trace.h) ----
// One-line renderings of a decision's model inputs and candidate costs, so
// traces record not just what was chosen but the numbers it was chosen on.

/// "hybrid=12.3ms vm=10.1ms km=11.8ms sigma=0.200 cols=7 ht=16384B".
std::string DescribeAggDecision(const CostProfile& p, const AggWorkload& w);

/// "groupjoin=8.1ms ea=6.9ms sigma_s=0.500 match=0.100 ht=4096B/65536B".
std::string DescribeEagerDecision(const CostProfile& p,
                                  const GroupjoinWorkload& w);

/// "pushed=2.1ms pulled=4.0ms sigma_other=0.800 avg_len=48.2B".
std::string DescribeStringDecision(const CostProfile& p,
                                   const StringPredWorkload& w);

}  // namespace swole

#endif  // SWOLE_COST_COST_MODEL_H_

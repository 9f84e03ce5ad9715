#include "cost/cost_model.h"

#include <algorithm>

#include "common/string_util.h"
#include "expr/expr.h"

namespace swole {

std::string CostProfile::ToString() const {
  return StringFormat(
      "read_seq=%.2f read_cond=%.2f ht_insert=%.2f ht_null=%.2f "
      "ht_delete=%.2f ht_lookup={l1=%.2f l2=%.2f l3=%.2f mem=%.2f} "
      "str_seq_byte=%.3f",
      read_seq, read_cond, ht_insert, ht_null, ht_delete, ht_lookup_l1,
      ht_lookup_l2, ht_lookup_l3, ht_lookup_mem, str_seq_byte);
}

namespace {

// Clock that converts EstimateComputeNs's cycle counts to ns.
constexpr double kNsPerCycle = 0.45;

// Sequential reads are bandwidth-bound: kernels now execute at the
// column's physical width, so the per-tuple cost of a streaming read
// scales with bytes moved (8 bytes = the calibrated read_seq). The
// conditional read_cond terms deliberately do NOT scale — a random touch
// pays its cache line regardless of element width.
double SeqRead(const CostProfile& p, double avg_read_width) {
  return p.read_seq * (avg_read_width / 8.0);
}

}  // namespace

double HybridCost(const CostProfile& p, const AggWorkload& w) {
  // Selection: one sequential read. Aggregation: for selected tuples only,
  // the max of compute and the conditional reads of every aggregation
  // input (plus the group lookup).
  double reads = p.read_cond * w.num_read_columns;
  double agg = std::max(w.comp_ns, reads);
  if (w.group_ht_bytes > 0) {
    agg = std::max(agg, p.HtLookup(w.group_ht_bytes));
  }
  return w.rows * (SeqRead(p, w.avg_read_width) + w.selectivity * agg);
}

double ValueMaskingCost(const CostProfile& p, const AggWorkload& w) {
  // Every tuple is aggregated; the conditional reads become sequential.
  double reads = SeqRead(p, w.avg_read_width) * w.num_read_columns;
  double agg = std::max(w.comp_ns, reads);
  if (w.group_ht_bytes > 0) {
    // Unconditional lookup for every tuple (the VM_gb extension, §III-B).
    agg = std::max(agg, p.HtLookup(w.group_ht_bytes));
  }
  return w.rows * (SeqRead(p, w.avg_read_width) + agg);
}

double KeyMaskingCost(const CostProfile& p, const AggWorkload& w) {
  // Valid aggregations do a real lookup; masked ones hit the cached
  // throwaway entry.
  double reads = SeqRead(p, w.avg_read_width) * w.num_read_columns;
  double valid = std::max({w.comp_ns, reads,
                           p.HtLookup(w.group_ht_bytes)});
  double masked = std::max({w.comp_ns, reads, p.ht_null});
  return w.rows * (SeqRead(p, w.avg_read_width) + w.selectivity * valid +
                   (1.0 - w.selectivity) * masked);
}

double GroupjoinCost(const CostProfile& p, const GroupjoinWorkload& w) {
  double build =
      w.s_rows * (SeqRead(p, w.avg_read_width) +
                  w.sigma_s * (p.read_cond + p.ht_insert));
  double probe =
      w.r_rows * (SeqRead(p, w.avg_read_width) +
                  w.sigma_r * (p.read_cond + p.HtLookup(w.ht_bytes)) +
                  w.match_prob * std::max(w.comp_ns, p.read_cond));
  return build + probe;
}

double EagerAggregationCost(const CostProfile& p,
                            const GroupjoinWorkload& w) {
  // Unconditional aggregation of R by the join key, using the best of the
  // three aggregation techniques; then deletion of non-qualifying keys.
  AggWorkload agg;
  agg.rows = 1.0;  // per-tuple cost; scaled below
  agg.selectivity = w.sigma_r;
  agg.comp_ns = w.comp_ns;
  agg.group_ht_bytes = w.ea_ht_bytes > 0 ? w.ea_ht_bytes : w.ht_bytes;
  agg.num_read_columns = w.num_read_columns;
  agg.avg_read_width = w.avg_read_width;
  double per_tuple = std::min({HybridCost(p, agg), ValueMaskingCost(p, agg),
                               KeyMaskingCost(p, agg)});
  double build =
      w.r_rows * (SeqRead(p, w.avg_read_width) + w.sigma_r * per_tuple);
  double del =
      w.s_rows * (SeqRead(p, w.avg_read_width) +
                  (1.0 - w.sigma_s) * (p.read_cond + p.ht_delete));
  return build + del;
}

double StringPushedCost(const CostProfile& p, const StringPredWorkload& w) {
  return w.rows * (p.read_seq + w.avg_len * p.str_seq_byte);
}

double StringPulledCost(const CostProfile& p, const StringPredWorkload& w) {
  return w.rows * w.sigma_other * (p.read_cond + w.avg_len * p.str_seq_byte);
}

double EstimateComputeNs(const CostProfile& p, const Expr& expr) {
  double cycles = 0;
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      cycles = 1;  // load
      break;
    case ExprKind::kLiteral:
      cycles = 0;
      break;
    case ExprKind::kBinary:
      switch (expr.op) {
        case BinaryOp::kDiv:
          cycles = 25;  // integer division latency
          break;
        case BinaryOp::kMul:
          cycles = 3;
          break;
        default:
          cycles = 1;
          break;
      }
      break;
    case ExprKind::kNot:
      cycles = 1;
      break;
    case ExprKind::kLike:
      cycles = 2;  // dictionary mask lookup
      break;
    case ExprKind::kInList:
      cycles = static_cast<double>(expr.in_list.size());
      break;
    case ExprKind::kCase:
      cycles = 2;  // selection overhead; arms accounted below
      break;
  }
  double total = cycles * kNsPerCycle;
  for (const ExprPtr& child : expr.children) {
    total += EstimateComputeNs(p, *child);
  }
  return total;
}

const char* AggChoiceName(AggChoice choice) {
  switch (choice) {
    case AggChoice::kHybridFallback:
      return "hybrid";
    case AggChoice::kValueMasking:
      return "value-masking";
    case AggChoice::kKeyMasking:
      return "key-masking";
  }
  return "?";
}

AggChoice ChooseAggregation(const CostProfile& p, const AggWorkload& w) {
  double hybrid = HybridCost(p, w);
  double vm = ValueMaskingCost(p, w);
  if (w.group_ht_bytes == 0) {
    return vm < hybrid ? AggChoice::kValueMasking
                       : AggChoice::kHybridFallback;
  }
  double km = KeyMaskingCost(p, w);
  if (km <= vm && km <= hybrid) return AggChoice::kKeyMasking;
  if (vm <= hybrid) return AggChoice::kValueMasking;
  return AggChoice::kHybridFallback;
}

bool ChooseEagerAggregation(const CostProfile& p,
                            const GroupjoinWorkload& w) {
  return EagerAggregationCost(p, w) < GroupjoinCost(p, w);
}

const char* StringPlacementName(StringPlacement placement) {
  switch (placement) {
    case StringPlacement::kPushdown:
      return "pushdown";
    case StringPlacement::kPullup:
      return "pullup";
  }
  return "?";
}

StringPlacement ChooseStringPlacement(const CostProfile& p,
                                      const StringPredWorkload& w) {
  return StringPulledCost(p, w) < StringPushedCost(p, w)
             ? StringPlacement::kPullup
             : StringPlacement::kPushdown;
}

std::string DescribeAggDecision(const CostProfile& p, const AggWorkload& w) {
  std::string out = StringFormat(
      "hybrid=%.1fms vm=%.1fms", HybridCost(p, w) / 1e6,
      ValueMaskingCost(p, w) / 1e6);
  if (w.group_ht_bytes > 0) {
    out += StringFormat(" km=%.1fms", KeyMaskingCost(p, w) / 1e6);
  }
  out += StringFormat(" sigma=%.3f cols=%d width=%.1fB ht=%lldB",
                      w.selectivity, w.num_read_columns, w.avg_read_width,
                      static_cast<long long>(w.group_ht_bytes));
  return out;
}

std::string DescribeEagerDecision(const CostProfile& p,
                                  const GroupjoinWorkload& w) {
  return StringFormat(
      "groupjoin=%.1fms ea=%.1fms sigma_s=%.3f match=%.3f width=%.1fB "
      "ht=%lldB/%lldB",
      GroupjoinCost(p, w) / 1e6, EagerAggregationCost(p, w) / 1e6, w.sigma_s,
      w.match_prob, w.avg_read_width, static_cast<long long>(w.ht_bytes),
      static_cast<long long>(w.ea_ht_bytes));
}

std::string DescribeStringDecision(const CostProfile& p,
                                   const StringPredWorkload& w) {
  return StringFormat(
      "pushed=%.1fms pulled=%.1fms sigma_other=%.3f avg_len=%.1fB",
      StringPushedCost(p, w) / 1e6, StringPulledCost(p, w) / 1e6,
      w.sigma_other, w.avg_len);
}

}  // namespace swole

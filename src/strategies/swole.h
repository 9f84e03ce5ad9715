#ifndef SWOLE_STRATEGIES_SWOLE_H_
#define SWOLE_STRATEGIES_SWOLE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cost/string_placement.h"
#include "strategies/common.h"
#include "strategies/strategy.h"

// The access-aware strategy (§III). SWOLE rewrites the plan's execution
// around predicate pullups:
//
//   * dimensions qualify through positional bitmaps probed via the fk
//     offset indexes (§III-D) instead of value-keyed hash tables;
//   * the aggregation runs under value masking, key masking, or the hybrid
//     fallback, chosen by the cost models of §III-A/B;
//   * repeated attribute references are fused by access merging (§III-C);
//   * groupjoins are rewritten to eager aggregation when the §III-E model
//     says the unconditional aggregate is cheaper.

namespace swole {

class SwoleStrategy : public Strategy {
 public:
  SwoleStrategy(const Catalog& catalog, StrategyOptions options);
  ~SwoleStrategy() override;

  StrategyKind kind() const override { return StrategyKind::kSwole; }

  Result<QueryResult> Execute(const QueryPlan& plan) override;

  /// What the cost model decided during the last Execute call. Not
  /// synchronized with in-flight Execute calls — read it after Execute
  /// returns on the calling thread (concurrent drivers should use one
  /// engine instance per thread; the worker pool and admission control are
  /// process-wide either way).
  const SwoleDecisions& last_decisions() const { return decisions_; }

 private:
  struct PlanAnalysis;
  struct CachedAnalysis;

  /// Runs the cost-model analysis for `plan`, memoized per plan structure
  /// and string-placement mode (the paper's timings cover query
  /// processing, not planning — repeated executions of the same plan reuse
  /// the decisions). Entries are keyed by QueryPlan::ToString plus the
  /// SWOLE_STR_PLACEMENT mode and analyze their own clone of the plan, so a
  /// different plan at a reused address never hits a stale entry, and a
  /// mode flip gets its own entry. Thread-safe: the cache is mutex-guarded
  /// and entries are never replaced, so references stay valid.
  const CachedAnalysis& Analyze(const QueryPlan& plan);

  Result<QueryResult> ExecuteEagerAggregation(const QueryPlan& plan,
                                              const PlanAnalysis& analysis,
                                              exec::QueryContext* qctx);
  Result<QueryResult> ExecuteGroupjoin(const QueryPlan& plan,
                                       const PlanAnalysis& analysis,
                                       exec::QueryContext* qctx);
  Result<QueryResult> ExecuteGeneral(const QueryPlan& plan,
                                     const PlanAnalysis& analysis,
                                     exec::QueryContext* qctx);

  const Catalog& catalog_;
  StrategyOptions options_;
  CostProfile profile_;
  SwoleDecisions decisions_;
  // Guards analysis_cache_ and writes to decisions_ (Analyze runs from
  // concurrent driver threads when an instance is shared).
  mutable std::mutex analysis_mu_;
  std::map<std::pair<std::string, StringPlacementMode>,
           std::unique_ptr<CachedAnalysis>>
      analysis_cache_;
};

}  // namespace swole

#endif  // SWOLE_STRATEGIES_SWOLE_H_

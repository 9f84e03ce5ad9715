#ifndef SWOLE_STRATEGIES_STRATEGY_H_
#define SWOLE_STRATEGIES_STRATEGY_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "cost/cost_model.h"
#include "exec/kernels.h"
#include "plan/plan.h"
#include "plan/result.h"

// The four code-generation strategies as execution engines over the plan
// algebra. All engines share the primitive kernels (exec/kernels.h) and the
// hash table (exec/hash_table.h) — the paper's "same library code" setup —
// so a runtime difference between two engines on the same plan reflects the
// strategy (its data access patterns), not incidental implementation
// differences.

namespace swole {

namespace exec {
class QueryContext;
}  // namespace exec

namespace obs {
class QueryTrace;
}  // namespace obs

enum class StrategyKind : uint8_t {
  kDataCentric,  // HyPer-style tuple-at-a-time with branching [3]
  kHybrid,       // Tupleware-style prepass + partial selection vectors [4]
  kRof,          // Peloton's relaxed operator fusion: full selection
                 // vectors, LUT selection, software prefetching [5]
  kSwole,        // access-aware: predicate pullups, masking, positional
                 // bitmaps, eager aggregation (this paper)
};

const char* StrategyKindName(StrategyKind kind);

struct StrategyOptions {
  int64_t tile_size = kernels::kDefaultTileSize;

  // Morsel-driven parallelism (exec/scheduler.h): number of worker threads
  // for the build and probe phases. 0 defers to the SWOLE_THREADS
  // environment variable (default 1). Results are bit-exact at every
  // thread count: per-worker states are merged in worker order.
  int num_threads = 0;

  // Cost-model inputs for SWOLE's technique decisions (null = default
  // deterministic profile).
  const CostProfile* cost_profile = nullptr;

  // Ablation switches (SWOLE only): force-disable individual techniques so
  // benchmarks can measure each one's contribution.
  bool enable_value_masking = true;
  bool enable_key_masking = true;
  bool enable_access_merging = true;
  bool enable_positional_bitmaps = true;
  bool enable_eager_aggregation = true;

  // Overrides the cost model (for microbenchmarks that pin a technique):
  // when set, SWOLE uses exactly this aggregation technique.
  enum class ForceAgg { kAuto, kValueMasking, kKeyMasking, kHybridFallback };
  ForceAgg force_agg = ForceAgg::kAuto;

  // Forces the eager-aggregation rewrite whenever the plan shape is
  // eligible, regardless of the cost model (Fig. 12's EA series).
  bool force_eager_aggregation = false;

  // Probes dimension qualification through block-compressed bitmaps
  // instead of plain ones (§III-D: "we can always compress the bitmap ...
  // but the benefits in size reduction would need to be weighed against
  // the increased access overhead"). Exposed for the bitmap benchmark.
  bool use_compressed_bitmaps = false;

  // ---- Query-lifecycle governance (exec/query_context.h) ----

  // Externally owned context carrying the memory budget, deadline, and
  // cancellation token for this execution. When set it wins over the limit
  // fields below and over the environment. The caller retains ownership
  // and may RequestCancel() from another thread.
  exec::QueryContext* query_ctx = nullptr;

  // Hard memory budget in bytes for tracked build-side structures
  // (hash tables, group tables, positional bitmaps). -1 defers to
  // SWOLE_MEM_LIMIT (absent = unlimited); 0 explicitly unlimited.
  int64_t mem_limit_bytes = -1;

  // Wall-clock deadline for the whole execution. -1 defers to
  // SWOLE_DEADLINE_MS (absent = none); 0 explicitly none.
  int64_t deadline_ms = -1;

  // Spill-to-disk for group tables that breach the memory budget
  // (exec/spill.h, DESIGN.md §14): -1 defers to SWOLE_SPILL (default off),
  // 0 forces off, 1 forces on. Only insert-mode group tables spill;
  // join-mode and group-seeded plans keep their budget-abort behavior.
  int spill = -1;

  // ---- Concurrent serving (exec/admission.h, exec/scheduler.h) ----

  // Scheduler priority of this query's morsel work in the shared worker
  // pool: higher runs first, equal priorities share round-robin. Only
  // meaningful when concurrent queries compete for the pool.
  int priority = 0;

  // Tenant identity for per-tenant admission caps (SWOLE_TENANT_MAX_QUERIES).
  // Empty = the default tenant (never capped per-tenant).
  std::string tenant;

  // ---- Observability (obs/trace.h) ----

  // Per-query trace to record spans into (strategy choice, operator
  // phases, morsel rollups, governance events). Null (the default)
  // disables recording at zero cost; SWOLE_TRACE=1 enables an internally
  // owned trace instead, rendered at DEBUG log level. When query_ctx is
  // also set, the trace attaches to it for the duration of the call unless
  // the context already carries one.
  obs::QueryTrace* trace = nullptr;
};

/// Explanation of what SWOLE decided for a plan (for tests, examples, and
/// EXPERIMENTS.md narration).
struct SwoleDecisions {
  std::string aggregation;       // "value-masking" / "key-masking" / "hybrid"
  bool used_access_merging = false;
  bool used_positional_bitmaps = false;
  bool used_eager_aggregation = false;
  // A raw-string fact predicate was pulled above the joins and the other
  // conjuncts (string placement, cost/string_placement.h). False when the
  // plan had no raw-string conjunct or the cost model chose pushdown.
  bool used_string_pullup = false;
  // The pullup plan breached its memory budget and the execution was
  // retried (successfully or not) under the memory-lean data-centric
  // strategy (graceful degradation).
  bool degraded_to_data_centric = false;
  std::string rationale;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual StrategyKind kind() const = 0;
  const char* name() const { return StrategyKindName(kind()); }

  /// Executes `plan` against the engine's catalog. Results are normalized
  /// (groups sorted by key) and bit-exact across engines.
  virtual Result<QueryResult> Execute(const QueryPlan& plan) = 0;
};

/// Creates an engine. `catalog` must outlive it.
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind,
                                       const Catalog& catalog,
                                       StrategyOptions options = {});

/// SWOLE-specific factory giving access to the decision trace.
class SwoleStrategy;
std::unique_ptr<SwoleStrategy> MakeSwoleStrategy(const Catalog& catalog,
                                                 StrategyOptions options = {});

/// An engine's share of one query: its work under the resolved context
/// (null when the query is ungoverned and untraced).
using QueryBody = std::function<Result<QueryResult>(exec::QueryContext*)>;

/// The per-query entry sequence every engine's Execute runs through (the
/// strategy engines, ReferenceEngine, and codegen::ExecuteWithFallback):
///
///   1. AdmissionScope(options.tenant). A shed query returns here,
///      uncounted. Nested calls ride the outer call's slot.
///   2. queries.<engine_name> and the latency timer.
///   3. GovernanceScope(query_ctx, mem_limit_bytes, deadline_ms, trace),
///      then options.priority and options.spill on the resolved context.
///   4. body(ctx). Any exception becomes a Status
///      (exec::StatusFromCurrentException).
///   5. On kBudgetExceeded, when there is a context and a hook:
///      CountDegradation(), then on_budget_breach(ctx), at most once, under
///      the same context.
///   6. query.latency_us.<engine_name>, recorded on every exit after
///      admission, so it covers the retry.
///
/// `engine_name` is a StrategyKindName, "reference" or "jit"; its metric
/// handles are bound once per process.
Result<QueryResult> RunQuery(const char* engine_name,
                             const StrategyOptions& options,
                             const QueryBody& body,
                             const QueryBody& on_budget_breach = {});

}  // namespace swole

#endif  // SWOLE_STRATEGIES_STRATEGY_H_

#ifndef SWOLE_EXEC_QUERY_CONTEXT_H_
#define SWOLE_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/query_abort.h"
#include "common/status.h"

namespace swole::obs {
class PerfCounterSet;
class QueryTrace;
}  // namespace swole::obs

// Query-lifecycle governance: one QueryContext per query execution carries
//
//   * a MemoryTracker — hierarchical query -> operator-site accounting with
//     a hard budget (SWOLE_MEM_LIMIT / StrategyOptions::mem_limit_bytes).
//     HashTable / PositionalBitmap growth charges the tracker *before*
//     allocating (exec/hash_table.h SetMemHook), so a breach refuses the
//     growth instead of discovering it after the fact;
//   * a wall-clock deadline (SWOLE_DEADLINE_MS / deadline_ms);
//   * a cooperative cancellation token, checked at every morsel claim in
//     the scheduler and at every tracked allocation.
//
// A breach never takes the process down: the refusing site throws
// QueryAbort (common/query_abort.h), the engine or scheduler converts it to
// a structured Status (kBudgetExceeded / kDeadlineExceeded / kCancelled)
// carrying the per-operator peak-memory attribution, and SWOLE's pullup
// plans get one retry under the memory-lean data-centric strategy.
//
// Fault injection (common/fault_injection.h): every tracked allocation site
// is an injection point (SWOLE_FAULT=group_table:1.0 refuses every
// GroupTable growth as a budget breach), and the synthetic site
// `deadline_fire` makes CheckLive report an expired deadline on demand —
// so every degradation path is deterministically testable.

namespace swole::exec {

class GlobalMemoryPool;

class QueryContext {
 public:
  struct Limits {
    int64_t mem_limit_bytes = 0;  // 0 = unlimited
    int64_t deadline_ms = 0;      // 0 = no deadline
  };

  QueryContext();
  explicit QueryContext(Limits limits);
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // ---- Cancellation / deadline ----

  /// Requests cooperative cancellation (thread-safe; callable from any
  /// thread while the query runs). Workers observe it at the next morsel
  /// claim or tracked allocation.
  void RequestCancel();
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Why the query must stop now, or kNone. Order: cancellation, then the
  /// deadline (sticky once fired), then the `deadline_fire` fault site.
  AbortReason CheckLiveReason();

  /// CheckLiveReason as a structured Status (OK when live).
  Status CheckLive();

  // ---- Memory accounting ----

  /// Asks permission to grow `site` by `delta` bytes (delta < 0 releases
  /// unconditionally). Refuses — recording the pending abort — when the
  /// budget would be breached, when cancellation/deadline fired, or when
  /// the site's allocation fault is armed. Returns kNone on success.
  AbortReason TryCharge(int64_t delta, const char* site);

  int64_t limit_bytes() const { return limits_.mem_limit_bytes; }
  int64_t deadline_ms() const { return limits_.deadline_ms; }
  int64_t consumed_bytes() const {
    return consumed_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Attaches the process-wide memory pool (exec/admission.h) this query's
  /// charges draw down from: every accepted TryCharge delta is mirrored
  /// into the pool, so concurrent queries compete for one global budget.
  /// A pool refusal is a kBudget abort attributed to the refusing site.
  /// Detaching (or destroying the context) refunds any residual charge, so
  /// an aborted query can never strand pool capacity.
  void AttachGlobalPool(GlobalMemoryPool* pool);
  void DetachGlobalPool();
  GlobalMemoryPool* global_pool() const {
    return pool_.load(std::memory_order_acquire);
  }

  // ---- Scheduling ----

  /// Scheduler priority of this query's morsel jobs (exec/scheduler.h):
  /// higher is served first by the shared pool; equal priorities share
  /// round-robin. Default 0. Set before execution starts.
  int priority() const { return priority_; }
  void set_priority(int priority) { priority_ = priority; }

  /// Peak bytes attributed to one operator site (0 if never charged).
  int64_t site_peak_bytes(const std::string& site) const;

  /// Every charged site with its peak bytes, sorted by site name.
  std::vector<std::pair<std::string, int64_t>> SitePeaks() const;

  /// Per-operator peak attribution, e.g.
  /// "peak 18432B (limit 16384B): group_table=12288B peak, dim_bitmap=..."
  std::string MemoryReport() const;

  // ---- Status construction / cross-.so abort classification ----

  /// Structured Status for `reason`, message carrying the memory report
  /// (and `site` when the abort names one).
  Status MakeStatus(AbortReason reason, const char* site = nullptr,
                    int64_t requested = 0) const;

  /// Records why a hook is about to refuse. Written before the refusing
  /// return so that a QueryAbort thrown inside a JIT kernel .so — whose
  /// RTTI may not unify with the host's — can still be classified from a
  /// plain catch(...).
  void RecordPendingAbort(AbortReason reason, const char* site,
                          int64_t requested);

  /// Takes (and clears) the pending abort; kNone if none was recorded.
  AbortReason TakePendingAbort(std::string* site_out, int64_t* requested_out);

  /// Drops a pending kBudget record after a spill path recovered from the
  /// refusal, so StatusFromCurrentException cannot misclassify a later
  /// unrelated exception with the stale record. Non-budget records
  /// (deadline, cancellation) are never recovered from and are preserved.
  void ClearRecoveredBudgetAbort();

  // ---- Hook thunks ----

  /// MemHookFn-shaped thunk (`ctx` is the QueryContext*): also the
  /// KernelIO::mem_charge callback of the JIT ABI.
  static int MemHookThunk(void* ctx, int64_t delta, const char* site);

  /// KernelIO::cancel_check callback: nonzero (an AbortReason) when the
  /// kernel must stop.
  static int CancelCheckThunk(void* ctx);

  /// How many times a SWOLE execution under this context degraded to the
  /// data-centric strategy after a budget breach.
  int64_t degradations() const {
    return degradations_.load(std::memory_order_relaxed);
  }
  void CountDegradation();

  // ---- Spill (exec/spill.h) ----

  /// When enabled, a budget refusal at a spill-capable group-table site
  /// triggers partitioned spill-to-disk instead of aborting the query: the
  /// site catches the refusal, spills its accumulated state through the
  /// attached SpillManager, and retries under a near-empty table — the
  /// first rung of the spill degradation ladder (DESIGN.md §14). Resolved
  /// by GovernanceScope from SWOLE_SPILL (or forced per-query via
  /// StrategyOptions::spill); join-mode and seeded tables stay non-spill
  /// regardless (spilling would drop their seeded keys).
  bool spill_enabled() const {
    return spill_enabled_.load(std::memory_order_acquire);
  }
  void set_spill_enabled(bool enabled) {
    spill_enabled_.store(enabled, std::memory_order_release);
  }

  /// How many spill events this query's sites performed.
  int64_t spills() const { return spills_.load(std::memory_order_relaxed); }
  void CountSpill() { spills_.fetch_add(1, std::memory_order_relaxed); }

  // ---- Tracing (obs/trace.h) ----

  /// Non-owning trace attachment; null (the default) disables span
  /// recording — engines pay one pointer test per phase. Set by the owner
  /// of the trace (GovernanceScope or the caller) before execution starts.
  obs::QueryTrace* trace() const { return trace_; }
  void set_trace(obs::QueryTrace* trace) { trace_ = trace; }

  /// Writes the governance outcome onto the trace root as attributes —
  /// mem.peak_bytes, mem.site.<name> peaks, degradations, deadline/cancel
  /// flags. No-op without an attached trace. GovernanceScope calls this
  /// when it attached the trace; callers managing their own attachment can
  /// invoke it directly.
  void AttachStatsToTrace();

 private:
  struct SiteStats {
    int64_t current = 0;
    int64_t peak = 0;
  };

  Limits limits_;
  std::chrono::steady_clock::time_point deadline_tp_{};
  bool has_deadline_ = false;

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> deadline_fired_{false};

  std::atomic<int64_t> consumed_{0};
  std::atomic<int64_t> peak_{0};
  mutable std::mutex site_mu_;
  std::map<std::string, SiteStats> sites_;

  std::atomic<int> pending_reason_{0};
  mutable std::mutex pending_mu_;
  std::string pending_site_;
  int64_t pending_requested_ = 0;

  std::atomic<int64_t> degradations_{0};
  std::atomic<bool> spill_enabled_{false};
  std::atomic<int64_t> spills_{0};

  // Shared-pool accounting: the pool this context draws from (null = query
  // budget only) and how many bytes this context currently holds in it —
  // the residual refunded on detach/destruction.
  std::atomic<GlobalMemoryPool*> pool_{nullptr};
  std::atomic<int64_t> pool_charged_{0};

  int priority_ = 0;

  obs::QueryTrace* trace_ = nullptr;
};

/// Resolves the governance + observability configuration for one engine
/// execution: an externally supplied context wins; otherwise a context is
/// owned for the call when the options (or the SWOLE_MEM_LIMIT /
/// SWOLE_DEADLINE_MS environment) configure any limit, when a trace is
/// requested (explicit `trace` or SWOLE_TRACE=1), when hardware counters
/// are requested (SWOLE_PERF_COUNTERS=1), or when a global memory pool is
/// configured. ctx() is nullptr when ungoverned and untraced — the
/// zero-overhead path: no hooks attach and no checks run.
class GovernanceScope {
 public:
  /// `mem_limit_bytes` / `deadline_ms`: -1 defers to the environment
  /// variable (whose absence means "off"); 0 explicitly off; > 0 sets the
  /// limit. A non-null `trace` is attached to the resolved context for the
  /// scope's lifetime (unless the external context already carries one);
  /// with SWOLE_TRACE=1 and no explicit trace, the scope owns one and
  /// renders it at DEBUG level on exit. The scope that attached the trace
  /// stamps the governance outcome onto it (AttachStatsToTrace) and owns
  /// the per-query perf-counter set when SWOLE_PERF_COUNTERS=1.
  GovernanceScope(QueryContext* external, int64_t mem_limit_bytes,
                  int64_t deadline_ms, obs::QueryTrace* trace = nullptr);
  ~GovernanceScope();

  GovernanceScope(const GovernanceScope&) = delete;
  GovernanceScope& operator=(const GovernanceScope&) = delete;

  QueryContext* ctx() const { return ctx_; }

 private:
  QueryContext* ctx_ = nullptr;
  QueryContext* owned_ = nullptr;
  obs::QueryTrace* owned_trace_ = nullptr;
  obs::PerfCounterSet* perf_ = nullptr;
  bool attached_trace_ = false;
  bool attached_pool_ = false;
};

/// Maps the in-flight exception to a Status: QueryAbort (and the pending
/// abort recorded on `ctx`, covering kernel-.so throws whose RTTI does not
/// unify) become governance codes with attribution; bad_alloc becomes
/// kBudgetExceeded; anything else becomes kInternal. Callable only from a
/// catch block.
Status StatusFromCurrentException(QueryContext* ctx);

/// Carrier for propagating an already-structured Status through layers
/// whose signatures return values (builders). Caught by the engines'
/// execute boundary via StatusFromCurrentException.
struct ThrownStatus {
  Status status;
};

/// Throws ThrownStatus{status} if `status` is not OK.
void ThrowIfError(const Status& status);

}  // namespace swole::exec

#endif  // SWOLE_EXEC_QUERY_CONTEXT_H_

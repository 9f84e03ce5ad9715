#include "exec/query_context.h"

#include <algorithm>
#include <exception>
#include <new>
#include <vector>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "exec/admission.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace swole::exec {

// Tracked-allocation sites: TryCharge evaluates the fault injector at every
// site name below, so each is a deterministic budget-breach injection point
// (SWOLE_FAULT=group_table:1.0). The synthetic deadline_fire site lives in
// CheckLiveReason.
SWOLE_REGISTER_FAULT_SITE("group_table", "group-by hash table growth charge")
SWOLE_REGISTER_FAULT_SITE("spill_merge",
                          "spill partition rebuild table growth charge")
SWOLE_REGISTER_FAULT_SITE("reference_groups",
                          "reference-engine shard map growth charge "
                          "(spill-enabled runs only)")
SWOLE_REGISTER_FAULT_SITE("dim_keyset", "dim-side key-set build charge")
SWOLE_REGISTER_FAULT_SITE("dim_bitmap", "dim positional-bitmap build charge")
SWOLE_REGISTER_FAULT_SITE("reverse_keyset",
                          "reverse-lookup key-set build charge")
SWOLE_REGISTER_FAULT_SITE("reverse_bitmap",
                          "reverse-lookup bitmap build charge")
SWOLE_REGISTER_FAULT_SITE("disjunctive_ht",
                          "disjunctive-clause hash-table build charge")
SWOLE_REGISTER_FAULT_SITE("disjunctive_bitmap",
                          "disjunctive-clause bitmap build charge")
SWOLE_REGISTER_FAULT_SITE("jit_groups",
                          "JIT kernel group-table growth charge")
SWOLE_REGISTER_FAULT_SITE("jit_dim_keyset",
                          "JIT kernel dim key-set build charge")
SWOLE_REGISTER_FAULT_SITE("jit_dim_bitmap",
                          "JIT kernel dim bitmap build charge")
SWOLE_REGISTER_FAULT_SITE("deadline_fire",
                          "synthetic deadline expiry in CheckLive")

namespace {
// Governance events feed the process-wide registry so budget breaches and
// deadline fires are visible without per-query tracing.
obs::Counter& BudgetBreachCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("governance.budget_breaches");
  return c;
}
obs::Counter& DeadlineFireCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("governance.deadline_fires");
  return c;
}
obs::Counter& CancellationCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("governance.cancellations");
  return c;
}
obs::Counter& DegradationCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("governance.degradations");
  return c;
}

bool TraceRequestedFromEnv() {
  static const bool requested = GetEnvInt64("SWOLE_TRACE", 0) != 0;
  return requested;
}

// Not cached: the spill tests toggle SWOLE_SPILL between queries.
bool SpillRequestedFromEnv() {
  std::string mode = GetEnvString("SWOLE_SPILL", "off");
  return mode == "auto" || mode == "on" || mode == "1";
}
}  // namespace

QueryContext::QueryContext() : QueryContext(Limits()) {}

QueryContext::QueryContext(Limits limits) : limits_(limits) {
  if (limits_.deadline_ms > 0) {
    deadline_tp_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(limits_.deadline_ms);
    has_deadline_ = true;
  }
}

QueryContext::~QueryContext() { DetachGlobalPool(); }

void QueryContext::AttachGlobalPool(GlobalMemoryPool* pool) {
  pool_.store(pool, std::memory_order_release);
}

void QueryContext::DetachGlobalPool() {
  GlobalMemoryPool* pool = pool_.exchange(nullptr, std::memory_order_acq_rel);
  if (pool == nullptr) return;
  // Refund whatever this query still holds in the shared pool. Normally
  // zero — tracked structures release their charges on destruction — but
  // an abort that leaked generated-side state (see codegen/jit.cc cleanup)
  // must not strand pool capacity forever.
  int64_t residual = pool_charged_.exchange(0, std::memory_order_acq_rel);
  if (residual > 0) pool->Release(residual);
}

void QueryContext::RequestCancel() {
  if (!cancelled_.exchange(true, std::memory_order_acq_rel)) {
    CancellationCounter().Add(1);
  }
}

void QueryContext::CountDegradation() {
  degradations_.fetch_add(1, std::memory_order_relaxed);
  DegradationCounter().Add(1);
}

AbortReason QueryContext::CheckLiveReason() {
  if (SWOLE_UNLIKELY(cancelled_.load(std::memory_order_acquire))) {
    return AbortReason::kCancelled;
  }
  if (SWOLE_UNLIKELY(deadline_fired_.load(std::memory_order_acquire))) {
    return AbortReason::kDeadline;
  }
  if (has_deadline_ &&
      SWOLE_UNLIKELY(std::chrono::steady_clock::now() >= deadline_tp_)) {
    if (!deadline_fired_.exchange(true, std::memory_order_acq_rel)) {
      DeadlineFireCounter().Add(1);
    }
    return AbortReason::kDeadline;
  }
  // Deterministic deadline injection for tests (SWOLE_FAULT=deadline_fire:p).
  if (SWOLE_UNLIKELY(FaultInjector::Global().ShouldFail("deadline_fire"))) {
    if (!deadline_fired_.exchange(true, std::memory_order_acq_rel)) {
      DeadlineFireCounter().Add(1);
    }
    return AbortReason::kDeadline;
  }
  return AbortReason::kNone;
}

Status QueryContext::CheckLive() {
  AbortReason reason = CheckLiveReason();
  if (SWOLE_LIKELY(reason == AbortReason::kNone)) return Status::OK();
  return MakeStatus(reason);
}

AbortReason QueryContext::TryCharge(int64_t delta, const char* site) {
  if (delta <= 0) {
    // Release path: always accepted, keeps query-level accounting exact.
    consumed_.fetch_add(delta, std::memory_order_relaxed);
    if (GlobalMemoryPool* pool = global_pool(); pool != nullptr) {
      pool->Release(-delta);
      pool_charged_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(site_mu_);
    sites_[site].current += delta;
    return AbortReason::kNone;
  }

  // A growth point is also a cooperative cancellation/deadline checkpoint —
  // hash-table rehashes are where runaway queries spend unbounded time.
  AbortReason live = CheckLiveReason();
  if (SWOLE_UNLIKELY(live != AbortReason::kNone)) {
    RecordPendingAbort(live, site, delta);
    return live;
  }

  // Deterministic allocation-failure injection at every tracked site.
  if (SWOLE_UNLIKELY(FaultInjector::Global().ShouldFail(site))) {
    BudgetBreachCounter().Add(1);
    RecordPendingAbort(AbortReason::kBudget, site, delta);
    return AbortReason::kBudget;
  }

  int64_t now = consumed_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (SWOLE_UNLIKELY(limits_.mem_limit_bytes > 0 &&
                     now > limits_.mem_limit_bytes)) {
    consumed_.fetch_sub(delta, std::memory_order_relaxed);
    BudgetBreachCounter().Add(1);
    RecordPendingAbort(AbortReason::kBudget, site, delta);
    return AbortReason::kBudget;
  }

  // Mirror the accepted growth into the shared pool (when admitted under a
  // global memory limit): the pool refusing means some *other* queries hold
  // the capacity — this query sheds with the same structured kBudget abort
  // a private-limit breach produces, and the process never overcommits.
  if (GlobalMemoryPool* pool = global_pool(); pool != nullptr) {
    if (SWOLE_UNLIKELY(!pool->TryReserve(delta))) {
      consumed_.fetch_sub(delta, std::memory_order_relaxed);
      BudgetBreachCounter().Add(1);
      RecordPendingAbort(AbortReason::kBudget, site, delta);
      return AbortReason::kBudget;
    }
    pool_charged_.fetch_add(delta, std::memory_order_relaxed);
  }

  // Query-level peak (CAS loop: charges are rare growth events).
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }

  std::lock_guard<std::mutex> lock(site_mu_);
  SiteStats& stats = sites_[site];
  stats.current += delta;
  stats.peak = std::max(stats.peak, stats.current);
  return AbortReason::kNone;
}

int64_t QueryContext::site_peak_bytes(const std::string& site) const {
  std::lock_guard<std::mutex> lock(site_mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.peak;
}

std::vector<std::pair<std::string, int64_t>> QueryContext::SitePeaks() const {
  std::lock_guard<std::mutex> lock(site_mu_);
  std::vector<std::pair<std::string, int64_t>> peaks;
  peaks.reserve(sites_.size());
  for (const auto& [site, stats] : sites_) {
    peaks.emplace_back(site, stats.peak);
  }
  return peaks;
}

void QueryContext::AttachStatsToTrace() {
  obs::QueryTrace* trace = trace_;
  if (trace == nullptr) return;
  obs::QueryTrace::Span* root = trace->root();
  trace->AddAttr(root, "mem.peak_bytes", peak_bytes());
  if (limits_.mem_limit_bytes > 0) {
    trace->AddAttr(root, "mem.limit_bytes", limits_.mem_limit_bytes);
  }
  for (const auto& [site, peak] : SitePeaks()) {
    trace->AddAttr(root, ("mem.site." + site).c_str(), peak);
  }
  if (degradations() > 0) {
    trace->AddAttr(root, "governance.degradations", degradations());
  }
  if (deadline_fired_.load(std::memory_order_acquire)) {
    trace->AddAttr(root, "governance.deadline_fired", int64_t{1});
  }
  if (cancel_requested()) {
    trace->AddAttr(root, "governance.cancelled", int64_t{1});
  }
  // Queue-wait facts from this driver thread's admission (exec/admission.h):
  // stamped here because AttachStatsToTrace runs on the same thread that
  // opened the AdmissionScope, after the query finished.
  const AdmissionWaitInfo& wait = LastAdmissionWaitOnThread();
  if (wait.queued) {
    trace->AddAttr(root, "admission.queued", int64_t{1});
    trace->AddAttr(root, "admission.wait_us", wait.wait_us);
  }
}

std::string QueryContext::MemoryReport() const {
  std::string report = StringFormat(
      "peak %lldB", static_cast<long long>(peak_bytes()));
  if (limits_.mem_limit_bytes > 0) {
    report += StringFormat(" (limit %lldB)",
                           static_cast<long long>(limits_.mem_limit_bytes));
  }
  if (GlobalMemoryPool* pool = global_pool(); pool != nullptr) {
    report += StringFormat(
        "; global pool %lldB/%lldB reserved",
        static_cast<long long>(pool->reserved_bytes()),
        static_cast<long long>(pool->limit_bytes()));
  }
  std::lock_guard<std::mutex> lock(site_mu_);
  if (sites_.empty()) return report;
  report += "; per-operator peaks:";
  for (const auto& [site, stats] : sites_) {
    report += StringFormat(" %s=%lldB", site.c_str(),
                           static_cast<long long>(stats.peak));
  }
  return report;
}

Status QueryContext::MakeStatus(AbortReason reason, const char* site,
                                int64_t requested) const {
  std::string detail;
  if (site != nullptr && site[0] != '\0') {
    detail = StringFormat(" at site %s", site);
    if (requested > 0) {
      detail += StringFormat(" (requested %lldB)",
                             static_cast<long long>(requested));
    }
  }
  std::string report = MemoryReport();
  switch (reason) {
    case AbortReason::kBudget:
      return Status::BudgetExceeded(StringFormat(
          "query memory budget exceeded%s; %s", detail.c_str(),
          report.c_str()));
    case AbortReason::kDeadline:
      return Status::DeadlineExceeded(StringFormat(
          "query deadline of %lldms exceeded%s; %s",
          static_cast<long long>(limits_.deadline_ms), detail.c_str(),
          report.c_str()));
    case AbortReason::kCancelled:
      return Status::Cancelled(StringFormat("query cancelled%s; %s",
                                            detail.c_str(), report.c_str()));
    case AbortReason::kNone:
      break;
  }
  return Status::OK();
}

void QueryContext::RecordPendingAbort(AbortReason reason, const char* site,
                                      int64_t requested) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_site_ = site != nullptr ? site : "";
    pending_requested_ = requested;
  }
  pending_reason_.store(static_cast<int>(reason), std::memory_order_release);
}

void QueryContext::ClearRecoveredBudgetAbort() {
  int expected = static_cast<int>(AbortReason::kBudget);
  pending_reason_.compare_exchange_strong(expected, 0,
                                          std::memory_order_acq_rel);
}

AbortReason QueryContext::TakePendingAbort(std::string* site_out,
                                           int64_t* requested_out) {
  int reason = pending_reason_.exchange(0, std::memory_order_acq_rel);
  if (reason == 0) return AbortReason::kNone;
  std::lock_guard<std::mutex> lock(pending_mu_);
  if (site_out != nullptr) *site_out = pending_site_;
  if (requested_out != nullptr) *requested_out = pending_requested_;
  return static_cast<AbortReason>(reason);
}

int QueryContext::MemHookThunk(void* ctx, int64_t delta, const char* site) {
  auto* context = static_cast<QueryContext*>(ctx);
  return static_cast<int>(context->TryCharge(delta, site));
}

int QueryContext::CancelCheckThunk(void* ctx) {
  auto* context = static_cast<QueryContext*>(ctx);
  AbortReason reason = context->CheckLiveReason();
  if (SWOLE_UNLIKELY(reason != AbortReason::kNone)) {
    // Record it: a kernel that early-returns on this signal surfaces the
    // reason through the host's next CheckLive, but recording here keeps
    // the first-observed site attribution.
    context->RecordPendingAbort(reason, "cancel_check", 0);
  }
  return static_cast<int>(reason);
}

GovernanceScope::GovernanceScope(QueryContext* external,
                                 int64_t mem_limit_bytes, int64_t deadline_ms,
                                 obs::QueryTrace* trace) {
  // When the process serves under a global memory limit, every governed
  // execution draws from the shared pool — including externally supplied
  // contexts that have not attached one themselves.
  GlobalMemoryPool* pool = AdmissionController::Global().memory_pool();
  if (external != nullptr) {
    ctx_ = external;
    if (pool != nullptr && external->global_pool() == nullptr) {
      external->AttachGlobalPool(pool);
      attached_pool_ = true;
    }
    if (trace != nullptr && external->trace() == nullptr) {
      external->set_trace(trace);
      attached_trace_ = true;
    }
    if (SpillRequestedFromEnv()) external->set_spill_enabled(true);
    return;
  }
  QueryContext::Limits limits;
  limits.mem_limit_bytes = mem_limit_bytes >= 0
                               ? mem_limit_bytes
                               : GetEnvInt64("SWOLE_MEM_LIMIT", 0);
  limits.deadline_ms =
      deadline_ms >= 0 ? deadline_ms : GetEnvInt64("SWOLE_DEADLINE_MS", 0);
  const bool trace_requested = trace != nullptr || TraceRequestedFromEnv();
  const bool perf_requested = obs::PerfCountersRequested();
  if (limits.mem_limit_bytes > 0 || limits.deadline_ms > 0 ||
      trace_requested || perf_requested || pool != nullptr) {
    owned_ = new QueryContext(limits);
    ctx_ = owned_;
    if (pool != nullptr) {
      ctx_->AttachGlobalPool(pool);
      attached_pool_ = true;
    }
    if (SpillRequestedFromEnv()) ctx_->set_spill_enabled(true);
  }
  if (trace_requested) {
    if (trace == nullptr) {
      // Env-requested trace with no caller-supplied sink: own one for the
      // query and render it at DEBUG level on scope exit (enable with
      // SWOLE_TRACE=1 SWOLE_LOG_LEVEL=debug).
      owned_trace_ = new obs::QueryTrace();
      trace = owned_trace_;
    }
    ctx_->set_trace(trace);
    attached_trace_ = true;
  }
  if (perf_requested) {
    std::string error;
    perf_ = obs::PerfCounterSet::TryCreate(&error).release();
    if (perf_ != nullptr) {
      perf_->Start();
    } else {
      static bool warned = [](const std::string& reason) {
        SWOLE_LOG(WARNING) << "SWOLE_PERF_COUNTERS=1 but hardware counters "
                              "are unavailable: "
                           << reason;
        return true;
      }(error);
      (void)warned;
    }
  }
}

GovernanceScope::~GovernanceScope() {
  if (perf_ != nullptr) {
    perf_->Stop();
    obs::HwCounts counts = perf_->Read();
    obs::QueryTrace* trace = ctx_ != nullptr ? ctx_->trace() : nullptr;
    if (trace != nullptr && counts.valid) {
      obs::QueryTrace::Span* root = trace->root();
      trace->AddAttr(root, "hw.cycles", counts.cycles);
      trace->AddAttr(root, "hw.instructions", counts.instructions);
      trace->AddAttr(root, "hw.llc_misses", counts.llc_misses);
      trace->AddAttr(root, "hw.branch_misses", counts.branch_misses);
    } else {
      SWOLE_LOG(DEBUG) << "hw counters: " << counts.ToString();
    }
    delete perf_;
  }
  if (attached_trace_ && ctx_ != nullptr) {
    ctx_->AttachStatsToTrace();
  }
  if (owned_trace_ != nullptr && GetLogLevel() <= LogLevel::kDebug) {
    SWOLE_LOG(DEBUG) << "query trace:\n" << owned_trace_->ToText();
  }
  if (attached_trace_ && ctx_ != nullptr) {
    ctx_->set_trace(nullptr);
  }
  if (attached_pool_ && ctx_ != nullptr) {
    ctx_->DetachGlobalPool();  // refunds any residual shared-pool charge
  }
  delete owned_trace_;
  delete owned_;
}

Status StatusFromCurrentException(QueryContext* ctx) {
  // The pending-abort record takes precedence: it is written by the
  // refusing hook *before* the throw, so it classifies correctly even when
  // the exception object itself crossed a dlopen boundary and its RTTI
  // does not unify with the host's QueryAbort.
  if (ctx != nullptr) {
    std::string site;
    int64_t requested = 0;
    AbortReason pending = ctx->TakePendingAbort(&site, &requested);
    if (pending != AbortReason::kNone) {
      return ctx->MakeStatus(pending, site.c_str(), requested);
    }
  }
  try {
    throw;
  } catch (const ThrownStatus& thrown) {
    return thrown.status;
  } catch (const QueryAbort& abort) {
    if (ctx != nullptr) {
      return ctx->MakeStatus(abort.reason, abort.site, abort.requested_bytes);
    }
    switch (abort.reason) {
      case AbortReason::kBudget:
        return Status::BudgetExceeded("query memory budget exceeded");
      case AbortReason::kDeadline:
        return Status::DeadlineExceeded("query deadline exceeded");
      case AbortReason::kCancelled:
        return Status::Cancelled("query cancelled");
      case AbortReason::kNone:
        break;
    }
    return Status::Internal("QueryAbort with no reason");
  } catch (const std::bad_alloc&) {
    return Status::BudgetExceeded(
        ctx != nullptr
            ? StringFormat("allocation failed (std::bad_alloc); %s",
                           ctx->MemoryReport().c_str())
            : std::string("allocation failed (std::bad_alloc)"));
  } catch (const std::exception& e) {
    return Status::Internal(
        StringFormat("worker exception: %s", e.what()));
  } catch (...) {
    return Status::Internal("worker exception of unknown type");
  }
}

void ThrowIfError(const Status& status) {
  if (SWOLE_UNLIKELY(!status.ok())) throw ThrownStatus{status};
}

}  // namespace swole::exec

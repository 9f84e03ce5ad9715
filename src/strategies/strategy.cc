#include "strategies/strategy.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "exec/admission.h"
#include "exec/query_context.h"
#include "obs/metrics.h"

namespace swole {

namespace {

// Bound-once metric handles per engine name: a per-call
// GetCounter/GetHistogram lookup takes the registry mutex, which
// concurrent client threads would contend on every query.
struct EntryMetrics {
  const char* engine;
  obs::Counter* queries;
  obs::Histogram* latency;
};

const EntryMetrics& MetricsFor(const char* engine) {
  static const std::vector<EntryMetrics> table = [] {
    std::vector<EntryMetrics> t;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto bind = [&](const char* name) {
      t.push_back({name, &reg.GetCounter(std::string("queries.") + name),
                   &reg.GetHistogram(std::string("query.latency_us.") + name)});
    };
    for (StrategyKind kind :
         {StrategyKind::kDataCentric, StrategyKind::kHybrid,
          StrategyKind::kRof, StrategyKind::kSwole}) {
      bind(StrategyKindName(kind));
    }
    bind("reference");
    bind("jit");
    return t;
  }();
  auto it = table.begin();
  while (it != table.end() && std::strcmp(it->engine, engine) != 0) ++it;
  SWOLE_CHECK(it != table.end()) << "RunQuery: unknown engine " << engine;
  return *it;
}

Result<QueryResult> RunGuarded(const QueryBody& body,
                               exec::QueryContext* qctx) {
  try {
    return body(qctx);
  } catch (...) {
    return exec::StatusFromCurrentException(qctx);
  }
}

}  // namespace

Result<QueryResult> RunQuery(const char* engine_name,
                             const StrategyOptions& options,
                             const QueryBody& body,
                             const QueryBody& on_budget_breach) {
  // Admission before any work: a shed query costs the server nothing but
  // the rejection Status (exec/admission.h).
  exec::AdmissionScope admission(options.tenant);
  SWOLE_RETURN_NOT_OK(admission.status());

  const EntryMetrics& metrics = MetricsFor(engine_name);
  metrics.queries->Add(1);
  Timer timer;
  exec::GovernanceScope governance(options.query_ctx, options.mem_limit_bytes,
                                   options.deadline_ms, options.trace);
  exec::QueryContext* qctx = governance.ctx();
  if (qctx != nullptr && options.priority != 0) {
    qctx->set_priority(options.priority);
  }
  if (qctx != nullptr && options.spill >= 0) {
    qctx->set_spill_enabled(options.spill == 1);
  }

  Result<QueryResult> result = RunGuarded(body, qctx);

  // Graceful degradation: one retry under the same context, so it shares
  // the budget, deadline and cancellation token. The failed attempt's
  // structures were released while unwinding. Deadline and cancellation
  // never retry: retrying cannot make the clock go backwards.
  if (!result.ok() && qctx != nullptr && on_budget_breach &&
      result.status().code() == StatusCode::kBudgetExceeded) {
    SWOLE_LOG(WARNING) << engine_name << " plan breached its memory budget ("
                       << result.status().message() << "); degrading";
    qctx->CountDegradation();
    result = RunGuarded(on_budget_breach, qctx);
  }

  // Stamped after the retry: the histogram carries what the client
  // observed for the query, not just the first attempt. Under concurrency
  // that difference is exactly the tail the p99 must show.
  metrics.latency->Record(timer.ElapsedNanos() / 1000);
  return result;
}

}  // namespace swole

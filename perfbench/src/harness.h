#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "plan/result.h"
#include "strategies/strategy.h"

// Shared machinery of the benchmark binary: checked operations against the
// reference answers, interleaved timing passes, the benchmark's own spans,
// walks over the engines' trace spans, registry-counter deltas, and the
// metric report. Everything here measures the engine from outside, through
// its public entry points.

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  // Self-check: flip one value of one reference answer before timing, so
  // every operation on that query must be counted as a mismatch.
  bool corrupt_oracle = false;
  // Self-check: fault sites to arm (SWOLE_FAULT syntax) for the measured
  // pass only, so set-up and the reference answers stay fault-free.
  std::string fault;
};

/// Arms Args::fault for its lifetime (no-op when empty).
class FaultWindow {
 public:
  explicit FaultWindow(const Args& args);
  ~FaultWindow();
  FaultWindow(const FaultWindow&) = delete;
  FaultWindow& operator=(const FaultWindow&) = delete;

 private:
  bool armed_ = false;
};

/// Independent 64-bit stream `salt` of the workload seed (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Prints `message` and exits non-zero without a result line.
[[noreturn]] void Fatal(const std::string& message);

/// One stderr line per set-up: total, generation and oracle seconds.
void LogSetup(int index, double total_s, double generate_s, double oracle_s);

/// Faults injected so far, by --fault windows and by SWOLE_FAULT.
int64_t InjectedFaults();

/// Changes one value of a reference answer (the --corrupt-oracle check).
void CorruptAnswer(swole::QueryResult* answer);

/// Steady-clock nanoseconds since the first call.
int64_t NowNs();

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty input.
double Quantile(std::vector<double> v, double q);
/// Geometric mean of positive values; 0 for an empty input.
double Geomean(const std::vector<double>& v);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMiB();

/// Host-speed probe: a fixed loop of the benchmark's own code (a 16 MiB
/// read stream plus a dependent integer chain), timed in ms and remembered.
/// The engine never runs inside it; its samples across a run show how fast
/// the shared host was while the run measured.
void ProbeHost();
std::vector<double> HostProbeSamples();

// ---- The benchmark's own spans --------------------------------------------

/// In-memory span log written out when the run ends. Each span records its
/// name, start, end, parent span and operation id. Only traced runs record;
/// with recording off a Timed scope is a bare steady-clock timer.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int64_t parent = -1;
    int64_t op = -1;
  };

  static SpanLog& Global();

  int64_t Open(const char* name, int64_t op);
  void Close(int64_t id);
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Wall-clock scope around one call into the engine; logs a span when
/// `record` is set.
class Timed {
 public:
  Timed(const char* name, bool record, int64_t op = -1);
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the scope (idempotent) and returns its duration in ms.
  double Stop();

 private:
  int64_t start_ns_;
  int64_t end_ns_ = -1;
  int64_t span_ = -1;
};

/// Fresh operation id (shared by every span of one operation).
int64_t NextOpId();

// ---- Operation accounting --------------------------------------------------

struct OpTotals {
  int64_t attempted = 0;
  int64_t failed = 0;      // non-OK status, shed, or a JIT fallback
  int64_t mismatched = 0;  // OK status but differs from the reference
};

enum class Outcome { kOk, kFailed, kMismatch };

/// Classifies and counts one operation's result against its reference.
Outcome CountOp(const swole::Result<swole::QueryResult>& result,
                const swole::QueryResult& expected);
/// Counts an operation that failed before producing a result.
void CountFailedOp();
OpTotals Totals();

// ---- Metrics registry deltas ----------------------------------------------

/// Values of the registry counters the per-layer metrics read.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  int64_t Delta(const CounterSnapshot& before, const std::string& name) const;

 private:
  std::map<std::string, int64_t> values_;
};

// ---- Engines and their traces ----------------------------------------------

/// Every StrategyOptions field set explicitly, so no SWOLE_* variable that
/// has an options field can leak into a run.
swole::StrategyOptions ExplicitOptions(int num_threads);

/// An engine plus, in traced runs, the QueryTrace it records into. Each
/// Execute appends one engine span under the trace root; `exec_cell`
/// remembers which cell each of those executions served.
struct Engine {
  std::unique_ptr<swole::obs::QueryTrace> trace;
  std::unique_ptr<swole::Strategy> strategy;
  std::vector<int> exec_cell;
  std::vector<double> exec_ms;
};

std::unique_ptr<Engine> MakeEngine(swole::StrategyKind kind,
                                   const swole::Catalog& catalog,
                                   swole::StrategyOptions options,
                                   bool traced);

/// Phase times of one engine execution, read from its trace span.
struct PhaseTimes {
  double engine_ms = 0;
  double build_ms = 0;
  double probe_ms = 0;  // probe / scan / eager-aggregation pass
  double merge_ms = 0;
  double extract_ms = 0;  // extract (+ eager-aggregation delete)
  double self_ms = 0;     // engine span minus its phases
  double spill_merge_ms = 0;
  int64_t spill_events = 0;
};

/// One entry per top-level span under the trace root, in execution order.
std::vector<PhaseTimes> WalkEngineSpans(swole::obs::QueryTrace& trace);

/// Largest integer value of root attribute `key` across executions.
int64_t MaxRootAttr(swole::obs::QueryTrace& trace, const char* key);

// ---- Cells and interleaved passes ------------------------------------------

/// One (query, engine) pair of a workload, with its samples.
struct Cell {
  std::string query;
  swole::StrategyKind kind = swole::StrategyKind::kSwole;
  const swole::QueryPlan* plan = nullptr;
  const swole::QueryResult* expected = nullptr;
  Engine* engine = nullptr;
  Engine* traced = nullptr;  // traced twin (traced runs only)
  std::vector<double> ms;         // untraced samples
  std::vector<double> traced_ms;  // traced-twin samples
};

/// Creates one engine per strategy kind with `options` (plus a traced twin
/// of each in traced runs) and appends the cells query x kind, query-major.
/// `plans` and `expected` must not move while the cells are in use.
void AddCells(const std::vector<std::string>& names,
              const std::vector<swole::QueryPlan>& plans,
              const std::vector<swole::QueryResult>& expected,
              const swole::Catalog& catalog,
              const swole::StrategyOptions& options, bool traced,
              std::vector<std::unique_ptr<Engine>>* owned,
              std::vector<Cell>* cells);

/// Executes one checked operation of `cells[index]`. Returns true when the
/// result matched; the latency is recorded only then.
bool RunCell(std::vector<Cell>& cells, int index, bool on_traced_twin,
             double* ms_out = nullptr);

/// Runs every cell once on its engine, then once on its traced twin (the
/// first execution on a fresh engine: plan analysis, first-touch
/// allocation). Appends cell i's untraced first-execution latency to
/// `(*cold)[i]` (nothing when it failed), so a workload that sets up several
/// times collects one sample per cell and set-up, and drops every warm-up
/// sample from the cells. `after_each(i)` runs after cell i's untraced
/// execution.
template <typename Fn>
void WarmUp(std::vector<Cell>& cells, std::vector<std::vector<double>>* cold,
            Fn&& after_each) {
  cold->resize(cells.size());
  for (int i = 0; i < static_cast<int>(cells.size()); ++i) {
    double ms = 0;
    if (RunCell(cells, i, false, &ms)) (*cold)[i].push_back(ms);
    after_each(i);
  }
  for (int i = 0; i < static_cast<int>(cells.size()); ++i) {
    if (cells[i].traced != nullptr) RunCell(cells, i, true);
    cells[i].ms.clear();
    cells[i].traced_ms.clear();
  }
}

struct PassStats {
  int64_t ops = 0;  // successful untraced operations
  int64_t executed = 0;  // every successful operation, traced or not
  double seconds = 0;
  std::vector<double> latencies_ms;  // untraced, successful
};

/// 0..n-1 in a fresh order drawn from `rng`.
std::vector<int> ShuffledOrder(size_t n, swole::Rng* rng);

/// One round over `cells` in a fresh seeded order, on the traced twins when
/// `traced`.
void RunRound(std::vector<Cell>& cells, swole::Rng* rng, bool traced,
              PassStats* stats);

/// Runs whole rounds over `cells`, each in a freshly shuffled order, until
/// `seconds` elapse (at least `min_rounds`, at most `max_rounds` rounds;
/// max_rounds <= 0 means unbounded). Rounds are never cut short, so every
/// cell carries the same weight in the pass's latency percentiles. With
/// `alternate_traced`, every second round runs on the traced twins instead.
PassStats RunRounds(std::vector<Cell>& cells, swole::Rng* rng, double seconds,
                    int min_rounds, int max_rounds, bool alternate_traced);

/// One stderr line per cell: median latency and sample count.
void LogCells(const char* pass, const std::vector<Cell>& cells);

/// Geometric mean over `cells` of kind `kind` of each cell's median.
double StrategyGeomean(const std::vector<Cell>& cells,
                       swole::StrategyKind kind);

/// Per-strategy phase medians summed over cells, from the traced twins.
struct StrategyPhases {
  double build = 0, probe = 0, merge = 0, extract = 0, self = 0;
};
StrategyPhases PhasesOf(const std::vector<Cell>& cells,
                        swole::StrategyKind kind);

// ---- Report ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                int64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             int64_t samples = 1);
  void Note(const std::string& key, const std::string& value);

  const std::vector<std::pair<std::string, Metric>>& end_to_end() const {
    return e2e_;
  }
  const std::vector<std::pair<std::string, Metric>>& layers() const {
    return layers_;
  }
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> e2e_;
  std::vector<std::pair<std::string, Metric>> layers_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// qps and latency_p90_ms of a workload's measured pass.
void ReportLatencyMetrics(const PassStats& pass, Report* report);
/// cold_ms: geometric mean over cells of each cell's median first-execution
/// latency (WarmUp's `cold`). Like the strategy rows, it weighs every cell
/// the same, where a median over all first executions would be the latency
/// of whichever cell sits in the middle.
void ReportColdMs(const std::vector<std::vector<double>>& cold,
                  Report* report);
/// `<strategy>_geomean_ms` for all four strategies.
void ReportStrategyGeomeans(const std::vector<Cell>& cells, Report* report);
/// strategies.<s>.{build,probe,merge,extract,self}_ms for all four.
void ReportStrategyPhases(const std::vector<Cell>& cells, Report* report);
/// The distinct traced twins of `cells`.
std::vector<Engine*> TracedTwins(const std::vector<Cell>& cells);
/// exec.entry_ms: median over the traced executions of `engines` of the
/// Execute wall time minus the engine span (admission, governance scope,
/// result normalization).
void ReportEntryMs(const std::vector<Engine*>& engines, Report* report);
/// Sum of Table::ByteSize over the catalog, in MiB.
double CatalogMiB(const swole::Catalog& catalog);
/// exec.mem.peak_mb: largest root mem.peak_bytes over the traced engines.
void ReportMemPeak(const std::vector<Engine*>& engines, Report* report);

/// cost.choice.* — how many cells SWOLE's cost model sent each way.
struct ChoiceCounts {
  int64_t value_masking = 0, key_masking = 0, hybrid = 0;
  int64_t eager_agg = 0, bitmaps = 0, string_pullup = 0;
  void Add(const swole::Strategy& swole_engine);
  void Report(perfbench::Report* report) const;
};

/// Per-query scheduler and SIMD counts over a counting pass (each cell
/// executed once, so the counts repeat exactly at fixed thread counts).
void ReportCountingPass(const CounterSnapshot& before,
                        const CounterSnapshot& after, int64_t queries,
                        Report* report);

/// exec.scheduler.steals_per_query: steals between the snapshots per
/// operation executed.
void ReportSteals(const CounterSnapshot& before, const CounterSnapshot& after,
                  int64_t ops, Report* report);

/// obs.trace_overhead_pct from cells run both untraced and traced:
/// geometric mean over cells of traced median / untraced median, minus 1.
double TraceOverheadPct(const std::vector<Cell>& cells);

inline const swole::StrategyKind kAllKinds[] = {
    swole::StrategyKind::kDataCentric, swole::StrategyKind::kHybrid,
    swole::StrategyKind::kRof, swole::StrategyKind::kSwole};

// ---- Workloads -----------------------------------------------------------------

void RunTpchSf1(const Args& args, Report* report);
void RunMicroSweep(const Args& args, Report* report);

/// Traced-run pass over TPC-H SF 0.1 for the codegen.* layer (the shapes
/// the JIT accepts, each served from an empty kernel cache, then warm) and
/// the exec entry/admission layer under closed-loop load. Args::fault is
/// armed for its JIT serves.
void ReportJitAndAdmissionLayers(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "common/fault_injection.h"
#include "exec/kernels.h"
#include "obs/metrics.h"
#include "storage/table.h"
#include "strategies/swole.h"

namespace perfbench {

using swole::QueryResult;
using swole::Result;
using swole::StrategyKind;
using swole::obs::QueryTrace;

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: FATAL: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

FaultWindow::FaultWindow(const Args& args) {
  if (args.fault.empty()) return;
  swole::Status status = swole::FaultInjector::Global().Configure(
      args.fault, DeriveSeed(args.seed, 4));
  if (!status.ok()) Fatal("--fault " + args.fault + ": " + status.ToString());
  armed_ = true;
}

namespace {
std::atomic<int64_t> g_window_injected{0};
}  // namespace

FaultWindow::~FaultWindow() {
  if (!armed_) return;
  g_window_injected.fetch_add(swole::FaultInjector::Global().TotalInjected());
  swole::FaultInjector::Global().ClearAll();
}

int64_t InjectedFaults() {
  return g_window_injected.load() +
         swole::FaultInjector::Global().TotalInjected();
}

void LogSetup(int index, double total_s, double generate_s, double oracle_s) {
  std::fprintf(stderr,
               "perfbench: set-up %d: %.3fs (generate %.3fs, oracle %.3fs, "
               "engines and warm-up %.3fs)\n",
               index, total_s, generate_s, oracle_s,
               total_s - generate_s - oracle_s);
}

void CorruptAnswer(QueryResult* answer) {
  if (answer->grouped && !answer->group_aggs.empty()) {
    answer->group_aggs[0] += 1;
  } else if (!answer->scalar.empty()) {
    answer->scalar[0] += 1;
  } else {
    answer->grouped = !answer->grouped;
  }
}

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {
std::mutex g_probe_mu;
std::vector<double> g_probe_ms;
volatile uint64_t g_probe_sink = 0;
}  // namespace

void ProbeHost() {
  static const std::vector<uint64_t> stream = [] {
    std::vector<uint64_t> v((16u << 20) / sizeof(uint64_t));
    for (size_t i = 0; i < v.size(); ++i) v[i] = i * 0x9E3779B97F4A7C15ULL;
    return v;
  }();
  const int64_t start = NowNs();
  uint64_t acc = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t x : stream) acc += x;
  }
  uint64_t z = acc | 1;
  for (int i = 0; i < 4'000'000; ++i) {
    z ^= z << 13;
    z ^= z >> 7;
    z ^= z << 17;
    z *= 0x2545F4914F6CDD1DULL;
  }
  const double ms = static_cast<double>(NowNs() - start) / 1e6;
  g_probe_sink = z;
  std::lock_guard<std::mutex> lock(g_probe_mu);
  g_probe_ms.push_back(ms);
}

std::vector<double> HostProbeSamples() {
  std::lock_guard<std::mutex> lock(g_probe_mu);
  return g_probe_ms;
}

// ---- Spans -----------------------------------------------------------------

namespace {
thread_local int64_t t_current_span = -1;
std::atomic<int64_t> g_next_op{0};
std::atomic<int64_t> g_attempted{0};
std::atomic<int64_t> g_failed{0};
std::atomic<int64_t> g_mismatched{0};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

SpanLog& SpanLog::Global() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::Open(const char* name, int64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), -1, t_current_span, op});
  t_current_span = id;
  return id;
}

void SpanLog::Close(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = NowNs();
  t_current_span = spans_[id].parent;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << JsonEscape(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Timed::Timed(const char* name, bool record, int64_t op)
    : start_ns_(NowNs()),
      span_(record ? SpanLog::Global().Open(name, op) : -1) {}

double Timed::Stop() {
  if (end_ns_ < 0) {
    end_ns_ = NowNs();
    if (span_ >= 0) SpanLog::Global().Close(span_);
  }
  return static_cast<double>(end_ns_ - start_ns_) / 1e6;
}

int64_t NextOpId() { return g_next_op.fetch_add(1); }

// ---- Operations --------------------------------------------------------------

Outcome CountOp(const Result<QueryResult>& result,
                const QueryResult& expected) {
  g_attempted.fetch_add(1);
  if (!result.ok()) {
    g_failed.fetch_add(1);
    return Outcome::kFailed;
  }
  if (!(*result == expected)) {
    g_mismatched.fetch_add(1);
    return Outcome::kMismatch;
  }
  return Outcome::kOk;
}

void CountFailedOp() {
  g_attempted.fetch_add(1);
  g_failed.fetch_add(1);
}

OpTotals Totals() {
  return OpTotals{g_attempted.load(), g_failed.load(), g_mismatched.load()};
}

// ---- Counters ----------------------------------------------------------------

CounterSnapshot CounterSnapshot::Take() {
  static const char* const kNames[] = {
      "scheduler.morsels",  "scheduler.steals",
      "simd.tiles_native",  "simd.tiles_widened",
      "cost.redecision.overturned",
      "spill.spills",       "spill.bytes_written",
      "jit.compiles",       "jit.retries",
      "jit.fallbacks",      "jit.cache_hits_memory",
      "jit.cache_hits_disk"};
  CounterSnapshot snap;
  auto& registry = swole::obs::MetricsRegistry::Global();
  for (const char* name : kNames) {
    snap.values_[name] = registry.GetCounter(name).value();
  }
  return snap;
}

int64_t CounterSnapshot::Delta(const CounterSnapshot& before,
                               const std::string& name) const {
  return values_.at(name) - before.values_.at(name);
}

// ---- Engines -----------------------------------------------------------------

swole::StrategyOptions ExplicitOptions(int num_threads) {
  swole::StrategyOptions o;
  o.tile_size = swole::kernels::kDefaultTileSize;
  o.num_threads = num_threads;
  o.cost_profile = nullptr;
  o.enable_value_masking = true;
  o.enable_key_masking = true;
  o.enable_access_merging = true;
  o.enable_positional_bitmaps = true;
  o.enable_eager_aggregation = true;
  o.force_agg = swole::StrategyOptions::ForceAgg::kAuto;
  o.force_eager_aggregation = false;
  o.use_compressed_bitmaps = false;
  o.query_ctx = nullptr;
  o.mem_limit_bytes = 0;  // explicitly unlimited (-1 would read the env)
  o.deadline_ms = 0;
  o.spill = 0;
  o.priority = 0;
  o.tenant = "";
  o.trace = nullptr;
  return o;
}

std::unique_ptr<Engine> MakeEngine(StrategyKind kind,
                                   const swole::Catalog& catalog,
                                   swole::StrategyOptions options,
                                   bool traced) {
  auto engine = std::make_unique<Engine>();
  if (traced) {
    engine->trace = std::make_unique<QueryTrace>();
    options.trace = engine->trace.get();
  }
  engine->strategy = swole::MakeStrategy(kind, catalog, options);
  return engine;
}

namespace {

int64_t AttrInt(const QueryTrace::Span& span, const char* key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return std::strtoll(v.c_str(), nullptr, 10);
  }
  return 0;
}

void CollectSpill(const QueryTrace::Span& span, PhaseTimes* p) {
  for (const auto& child : span.children) {
    if (child->name == "spill-merge") {
      p->spill_merge_ms += static_cast<double>(child->duration_ns) / 1e6;
      p->spill_events += AttrInt(*child, "spill.events");
    }
    CollectSpill(*child, p);
  }
}

}  // namespace

std::vector<PhaseTimes> WalkEngineSpans(QueryTrace& trace) {
  std::vector<PhaseTimes> out;
  for (const auto& exec : trace.root()->children) {
    PhaseTimes p;
    p.engine_ms = static_cast<double>(exec->duration_ns) / 1e6;
    for (const auto& phase : exec->children) {
      const double ms = static_cast<double>(phase->duration_ns) / 1e6;
      const std::string& n = phase->name;
      if (n == "build") {
        p.build_ms += ms;
      } else if (n == "probe" || n == "scan" || n == "aggregate") {
        p.probe_ms += ms;
      } else if (n == "merge") {
        p.merge_ms += ms;
      } else if (n == "extract" || n == "delete") {
        p.extract_ms += ms;
      }
    }
    p.self_ms = std::max(0.0, p.engine_ms - p.build_ms - p.probe_ms -
                                  p.merge_ms - p.extract_ms);
    CollectSpill(*exec, &p);
    out.push_back(p);
  }
  return out;
}

int64_t MaxRootAttr(QueryTrace& trace, const char* key) {
  int64_t best = 0;
  for (const auto& [k, v] : trace.root()->attrs) {
    if (k == key) best = std::max<int64_t>(best, std::strtoll(v.c_str(), nullptr, 10));
  }
  return best;
}

// ---- Cells -------------------------------------------------------------------

void AddCells(const std::vector<std::string>& names,
              const std::vector<swole::QueryPlan>& plans,
              const std::vector<QueryResult>& expected,
              const swole::Catalog& catalog,
              const swole::StrategyOptions& options, bool traced,
              std::vector<std::unique_ptr<Engine>>* owned,
              std::vector<Cell>* cells) {
  Engine* engines[4];
  Engine* twins[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int k = 0; k < 4; ++k) {
    owned->push_back(MakeEngine(kAllKinds[k], catalog, options, false));
    engines[k] = owned->back().get();
    if (traced) {
      owned->push_back(MakeEngine(kAllKinds[k], catalog, options, true));
      twins[k] = owned->back().get();
    }
  }
  for (size_t q = 0; q < plans.size(); ++q) {
    for (int k = 0; k < 4; ++k) {
      Cell cell;
      cell.query = names[q];
      cell.kind = kAllKinds[k];
      cell.plan = &plans[q];
      cell.expected = &expected[q];
      cell.engine = engines[k];
      cell.traced = twins[k];
      cells->push_back(std::move(cell));
    }
  }
}

bool RunCell(std::vector<Cell>& cells, int index, bool on_traced_twin,
             double* ms_out) {
  Cell& cell = cells[index];
  Engine* engine = on_traced_twin ? cell.traced : cell.engine;
  const int64_t op = NextOpId();
  Timed timed("Strategy::Execute", on_traced_twin, op);
  Result<QueryResult> result = engine->strategy->Execute(*cell.plan);
  const double ms = timed.Stop();
  if (engine->trace != nullptr) {
    engine->exec_cell.push_back(index);
    engine->exec_ms.push_back(ms);
  }
  if (CountOp(result, *cell.expected) != Outcome::kOk) return false;
  (on_traced_twin ? cell.traced_ms : cell.ms).push_back(ms);
  if (ms_out != nullptr) *ms_out = ms;
  return true;
}

std::vector<int> ShuffledOrder(size_t n, swole::Rng* rng) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  return order;
}

void RunRound(std::vector<Cell>& cells, swole::Rng* rng, bool traced,
              PassStats* stats) {
  ProbeHost();
  for (int index : ShuffledOrder(cells.size(), rng)) {
    double ms = 0;
    if (!RunCell(cells, index, traced, &ms)) continue;
    ++stats->executed;
    if (!traced) {
      stats->latencies_ms.push_back(ms);
      ++stats->ops;
    }
  }
}

PassStats RunRounds(std::vector<Cell>& cells, swole::Rng* rng, double seconds,
                    int min_rounds, int max_rounds, bool alternate_traced) {
  PassStats stats;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (int round = 0; max_rounds <= 0 || round < max_rounds; ++round) {
    if (round >= min_rounds && NowNs() >= deadline) break;
    RunRound(cells, rng, alternate_traced && round % 2 == 1, &stats);
  }
  stats.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return stats;
}

void LogCells(const char* pass, const std::vector<Cell>& cells) {
  for (const Cell& cell : cells) {
    std::fprintf(stderr, "perfbench: %s %-28s %-13s median %9.3f ms  n=%zu\n",
                 pass, cell.query.c_str(), swole::StrategyKindName(cell.kind),
                 Median(cell.ms), cell.ms.size());
  }
}

double StrategyGeomean(const std::vector<Cell>& cells, StrategyKind kind) {
  std::vector<double> medians;
  for (const Cell& cell : cells) {
    if (cell.kind == kind && !cell.ms.empty()) {
      medians.push_back(Median(cell.ms));
    }
  }
  return Geomean(medians);
}

StrategyPhases PhasesOf(const std::vector<Cell>& cells, StrategyKind kind) {
  StrategyPhases out;
  std::map<Engine*, std::vector<PhaseTimes>> walked;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (cell.kind != kind || cell.traced == nullptr) continue;
    Engine* twin = cell.traced;
    auto it = walked.find(twin);
    if (it == walked.end()) {
      it = walked.emplace(twin, WalkEngineSpans(*twin->trace)).first;
      if (it->second.size() != twin->exec_cell.size()) {
        std::fprintf(stderr,
                     "perfbench: trace of %s holds %zu engine spans for %zu "
                     "executions; phases skipped\n",
                     swole::StrategyKindName(kind), it->second.size(),
                     twin->exec_cell.size());
        it->second.clear();
      }
    }
    const std::vector<PhaseTimes>& phases = it->second;
    std::vector<double> build, probe, merge, extract, self;
    for (size_t j = 0; j < phases.size(); ++j) {
      if (twin->exec_cell[j] != static_cast<int>(i)) continue;
      build.push_back(phases[j].build_ms);
      probe.push_back(phases[j].probe_ms);
      merge.push_back(phases[j].merge_ms);
      extract.push_back(phases[j].extract_ms);
      self.push_back(phases[j].self_ms);
    }
    out.build += Median(build);
    out.probe += Median(probe);
    out.merge += Median(merge);
    out.extract += Median(extract);
    out.self += Median(self);
  }
  return out;
}

// ---- Report ------------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, int64_t samples) {
  e2e_.emplace_back(name, Metric{value, unit, samples});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, int64_t samples) {
  layers_.emplace_back(name, Metric{value, unit, samples});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void ReportLatencyMetrics(const PassStats& pass, Report* report) {
  const auto n = static_cast<int64_t>(pass.latencies_ms.size());
  report->EndToEnd("qps", pass.seconds > 0 ? pass.ops / pass.seconds : 0,
                   "1/s", n);
  // p90: a pass of a few hundred operations leaves at least ten samples
  // beyond it on every workload; p99 would rest on two or three.
  report->EndToEnd("latency_p90_ms", Quantile(pass.latencies_ms, 0.90), "ms",
                   n);
}

void ReportColdMs(const std::vector<std::vector<double>>& cold,
                  Report* report) {
  std::vector<double> medians;
  int64_t samples = 0;
  for (const std::vector<double>& cell : cold) {
    if (cell.empty()) continue;
    medians.push_back(Median(cell));
    samples += static_cast<int64_t>(cell.size());
  }
  report->EndToEnd("cold_ms", Geomean(medians), "ms", samples);
}

void ReportStrategyGeomeans(const std::vector<Cell>& cells, Report* report) {
  for (StrategyKind kind : kAllKinds) {
    int64_t samples = 0;
    for (const Cell& cell : cells) {
      if (cell.kind == kind) samples += static_cast<int64_t>(cell.ms.size());
    }
    report->EndToEnd(std::string(swole::StrategyKindName(kind)) +
                         "_geomean_ms",
                     StrategyGeomean(cells, kind), "ms", samples);
  }
}

void ReportStrategyPhases(const std::vector<Cell>& cells, Report* report) {
  for (StrategyKind kind : kAllKinds) {
    const StrategyPhases p = PhasesOf(cells, kind);
    const std::string prefix =
        std::string("strategies.") + swole::StrategyKindName(kind) + ".";
    report->Layer(prefix + "build_ms", p.build, "ms");
    report->Layer(prefix + "probe_ms", p.probe, "ms");
    report->Layer(prefix + "merge_ms", p.merge, "ms");
    report->Layer(prefix + "extract_ms", p.extract, "ms");
    report->Layer(prefix + "self_ms", p.self, "ms");
  }
}

std::vector<Engine*> TracedTwins(const std::vector<Cell>& cells) {
  std::vector<Engine*> twins;
  for (const Cell& cell : cells) {
    if (cell.traced != nullptr &&
        std::find(twins.begin(), twins.end(), cell.traced) == twins.end()) {
      twins.push_back(cell.traced);
    }
  }
  return twins;
}

void ReportEntryMs(const std::vector<Engine*>& engines, Report* report) {
  std::vector<double> entry;
  for (Engine* engine : engines) {
    const std::vector<PhaseTimes> phases = WalkEngineSpans(*engine->trace);
    if (phases.size() != engine->exec_ms.size()) continue;
    for (size_t j = 0; j < phases.size(); ++j) {
      entry.push_back(std::max(0.0, engine->exec_ms[j] - phases[j].engine_ms));
    }
  }
  report->Layer("exec.entry_ms", Median(entry), "ms",
                static_cast<int64_t>(entry.size()));
}

void ReportMemPeak(const std::vector<Engine*>& engines, Report* report) {
  int64_t peak = 0;
  for (Engine* engine : engines) {
    peak = std::max(peak, MaxRootAttr(*engine->trace, "mem.peak_bytes"));
  }
  report->Layer("exec.mem.peak_mb", static_cast<double>(peak) / 1048576.0,
                "MiB");
}

void ChoiceCounts::Add(const swole::Strategy& swole_engine) {
  const auto* swole = dynamic_cast<const swole::SwoleStrategy*>(&swole_engine);
  if (swole == nullptr) return;
  const swole::SwoleDecisions& d = swole->last_decisions();
  value_masking += d.aggregation == "value-masking";
  key_masking += d.aggregation == "key-masking";
  hybrid += d.aggregation == "hybrid";
  eager_agg += d.used_eager_aggregation;
  bitmaps += d.used_positional_bitmaps;
  string_pullup += d.used_string_pullup;
}

void ChoiceCounts::Report(perfbench::Report* report) const {
  report->Layer("cost.choice.value_masking", value_masking, "count");
  report->Layer("cost.choice.key_masking", key_masking, "count");
  report->Layer("cost.choice.hybrid", hybrid, "count");
  report->Layer("cost.choice.eager_agg", eager_agg, "count");
  report->Layer("cost.choice.bitmaps", bitmaps, "count");
  report->Layer("cost.choice.string_pullup", string_pullup, "count");
}

void ReportCountingPass(const CounterSnapshot& before,
                        const CounterSnapshot& after, int64_t queries,
                        Report* report) {
  const double q = static_cast<double>(std::max<int64_t>(queries, 1));
  report->Layer("exec.scheduler.morsels_per_query",
                after.Delta(before, "scheduler.morsels") / q, "count",
                queries);
  report->Layer("exec.simd.tiles_per_query",
                (after.Delta(before, "simd.tiles_native") +
                 after.Delta(before, "simd.tiles_widened")) /
                    q,
                "count", queries);
  report->Layer("cost.redecision.overturned",
                static_cast<double>(
                    after.Delta(before, "cost.redecision.overturned")),
                "count", queries);
}

void ReportSteals(const CounterSnapshot& before, const CounterSnapshot& after,
                  int64_t ops, Report* report) {
  report->Layer("exec.scheduler.steals_per_query",
                static_cast<double>(after.Delta(before, "scheduler.steals")) /
                    static_cast<double>(std::max<int64_t>(ops, 1)),
                "count", ops);
}

double TraceOverheadPct(const std::vector<Cell>& cells) {
  std::vector<double> ratios;
  for (const Cell& cell : cells) {
    if (!cell.ms.empty() && !cell.traced_ms.empty()) {
      ratios.push_back(Median(cell.traced_ms) / Median(cell.ms));
    }
  }
  return ratios.empty() ? 0 : (Geomean(ratios) - 1.0) * 100.0;
}

double CatalogMiB(const swole::Catalog& catalog) {
  int64_t bytes = 0;
  for (const std::string& name : catalog.TableNames()) {
    bytes += catalog.TableRef(name).ByteSize();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace perfbench

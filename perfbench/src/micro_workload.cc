// micro_sweep: the paper's micro queries Q1-Q6 at selectivities 10% and 90%,
// which straddle SWOLE's push/pull and masking flip points, four strategies at
// four threads, plus one high-cardinality Q2 cell under a memory budget
// with spill on. R's int8 columns keep the scans in L3. Q4 and Q6 join the
// 1M-row S, Q5's groupjoin the 1K-row S (over the 1M-row S one groupjoin
// execution costs as much as the rest of a round). The traced run adds
// SWOLE's forced alternatives (cost-model regret), direct kernel and
// hash-table calls on R's columns, and the JIT and admission pass over
// TPC-H SF 0.1 (ReportJitAndAdmissionLayers).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/reference_engine.h"
#include "exec/hash_table.h"
#include "exec/kernels.h"
#include "harness.h"
#include "micro/micro.h"
#include "storage/column.h"
#include "storage/table.h"

namespace perfbench {
namespace {

using swole::Catalog;
using swole::QueryPlan;
using swole::QueryResult;
using swole::Result;
using swole::Rng;
using swole::StrategyKind;
using swole::StrategyOptions;

// Set-ups per run; setup_s is their median. Two, as one set-up (generation,
// reference answers for 13 plans, warm-up) takes 6-9 s on a 4-core host.
constexpr int kSetups = 2;
constexpr int64_t kSelectivities[] = {10, 90};
// Budget of the spill cell: about a quarter of the ~30 MiB that Q2 over
// 100K groups holds in memory, so every strategy spills on every execution.
constexpr int64_t kSpillBudgetBytes = 8 << 20;

struct MicroInputs {
  std::unique_ptr<swole::MicroData> data;
  std::vector<std::string> names;
  std::vector<QueryPlan> plans;
  std::vector<QueryResult> expected;
  // The budgeted cell, kept apart so its engines get their own options.
  std::vector<std::string> spill_names;
  std::vector<QueryPlan> spill_plans;
  std::vector<QueryResult> spill_expected;
  double generate_s = 0;
  double oracle_s = 0;
};

std::unique_ptr<MicroInputs> BuildInputs(const Args& args) {
  auto in = std::make_unique<MicroInputs>();
  swole::MicroConfig config;
  config.r_rows = 4'000'000;
  config.s_small_rows = 1'000;
  config.s_large_rows = 1'000'000;
  config.c_cardinalities = {10, 1'000, 100'000, 10'000'000};
  config.seed = DeriveSeed(args.seed, 3);
  config.zipf_theta = 0.0;
  config.str_len = 48;
  {
    Timed timed("MicroData::Generate", args.trace);
    in->data = swole::MicroData::Generate(config);
    in->generate_s = timed.Stop() / 1e3;
  }
  const swole::MicroData& d = *in->data;
  for (int64_t sel : kSelectivities) {
    const std::string s = "/sel" + std::to_string(sel);
    in->names.push_back("Q1" + s);
    in->plans.push_back(swole::MicroQ1(false, sel));
    in->names.push_back("Q2" + s);
    in->plans.push_back(swole::MicroQ2(d.c_columns[1], d.c_actual[1], sel));
    in->names.push_back("Q3" + s);
    in->plans.push_back(swole::MicroQ3(false, sel));
    in->names.push_back("Q4" + s);
    in->plans.push_back(swole::MicroQ4(true, sel, 50));
    in->names.push_back("Q5" + s);
    in->plans.push_back(swole::MicroQ5(false, sel, config.s_small_rows));
    in->names.push_back("Q6" + s);
    in->plans.push_back(swole::MicroQ6(true, sel));
  }
  in->spill_names.push_back("Q2/c" + std::to_string(d.c_actual[2]) +
                            "/sel10/budget");
  in->spill_plans.push_back(
      swole::MicroQ2(d.c_columns[2], d.c_actual[2], 10));

  Timed oracle("oracle", args.trace);
  swole::ReferenceEngine reference(d.catalog, 4);
  auto answer = [&](const QueryPlan& plan) {
    Timed timed("ReferenceEngine::Execute", args.trace, NextOpId());
    Result<QueryResult> result = reference.Execute(plan);
    if (!result.ok()) {
      Fatal("reference engine failed on " + plan.name + ": " +
            result.status().ToString());
    }
    return std::move(result).value();
  };
  for (const QueryPlan& plan : in->plans) in->expected.push_back(answer(plan));
  for (const QueryPlan& plan : in->spill_plans) {
    in->spill_expected.push_back(answer(plan));
  }
  in->oracle_s = oracle.Stop() / 1e3;
  if (args.corrupt_oracle) CorruptAnswer(&in->expected[0]);
  return in;
}

// cost.regret: SWOLE-auto latency over the fastest forced alternative, per
// grid cell, geometric mean over cells. Alternatives: each force_agg
// setting; eager aggregation forced on and off (groupjoin cells); string
// predicate pushed and pulled (string cells).
double CostRegret(const MicroInputs& in, Rng* rng) {
  struct Alt {
    const char* name;
    StrategyOptions options;
    const char* placement;  // SWOLE_STR_PLACEMENT value, or null
    const char* only;       // query prefix the alternative applies to
  };
  std::vector<Alt> alts;
  auto add = [&](const char* name, const char* placement, const char* only,
                 auto&& set) {
    StrategyOptions o = ExplicitOptions(4);
    set(o);
    alts.push_back(Alt{name, o, placement, only});
  };
  using ForceAgg = StrategyOptions::ForceAgg;
  add("auto", nullptr, "", [](StrategyOptions&) {});
  add("value_masking", nullptr, "",
      [](StrategyOptions& o) { o.force_agg = ForceAgg::kValueMasking; });
  add("key_masking", nullptr, "",
      [](StrategyOptions& o) { o.force_agg = ForceAgg::kKeyMasking; });
  add("hybrid", nullptr, "",
      [](StrategyOptions& o) { o.force_agg = ForceAgg::kHybridFallback; });
  add("eager_on", nullptr, "Q5",
      [](StrategyOptions& o) { o.force_eager_aggregation = true; });
  add("eager_off", nullptr, "Q5",
      [](StrategyOptions& o) { o.enable_eager_aggregation = false; });
  add("push", "push", "Q6", [](StrategyOptions&) {});
  add("pull", "pull", "Q6", [](StrategyOptions&) {});

  const Catalog& catalog = in.data->catalog;
  std::vector<std::unique_ptr<Engine>> owned;
  // cells[a] holds alternative a's cells; cell_of[a][j] the grid index.
  std::vector<std::vector<Cell>> cells(alts.size());
  std::vector<std::vector<int>> cell_of(alts.size());
  for (size_t a = 0; a < alts.size(); ++a) {
    owned.push_back(
        MakeEngine(StrategyKind::kSwole, catalog, alts[a].options, false));
    for (size_t q = 0; q < in.plans.size(); ++q) {
      if (in.names[q].rfind(alts[a].only, 0) != 0) continue;
      Cell cell;
      cell.query = in.names[q];
      cell.plan = &in.plans[q];
      cell.expected = &in.expected[q];
      cell.engine = owned.back().get();
      cells[a].push_back(std::move(cell));
      cell_of[a].push_back(static_cast<int>(q));
    }
  }
  // Alternatives without an environment setting run interleaved in one
  // pass; the placement alternatives each run under their own setting.
  std::vector<Cell> mixed;
  std::vector<std::pair<size_t, size_t>> mixed_src;
  for (size_t a = 0; a < alts.size(); ++a) {
    if (alts[a].placement != nullptr) continue;
    for (size_t j = 0; j < cells[a].size(); ++j) {
      mixed.push_back(cells[a][j]);
      mixed_src.emplace_back(a, j);
    }
  }
  constexpr int kRounds = 3;
  RunRounds(mixed, rng, 0, kRounds, kRounds, false);
  for (size_t m = 0; m < mixed.size(); ++m) {
    cells[mixed_src[m].first][mixed_src[m].second].ms = mixed[m].ms;
  }
  const char* saved = std::getenv("SWOLE_STR_PLACEMENT");
  const std::string saved_value = saved != nullptr ? saved : "";
  for (size_t a = 0; a < alts.size(); ++a) {
    if (alts[a].placement == nullptr) continue;
    setenv("SWOLE_STR_PLACEMENT", alts[a].placement, 1);
    RunRounds(cells[a], rng, 0, kRounds, kRounds, false);
  }
  if (saved != nullptr) {
    setenv("SWOLE_STR_PLACEMENT", saved_value.c_str(), 1);
  } else {
    unsetenv("SWOLE_STR_PLACEMENT");
  }

  std::vector<double> regrets;
  for (size_t j = 0; j < cells[0].size(); ++j) {
    const int q = cell_of[0][j];
    if (cells[0][j].ms.empty()) continue;
    double best = 0;
    for (size_t a = 1; a < alts.size(); ++a) {
      for (size_t k = 0; k < cells[a].size(); ++k) {
        if (cell_of[a][k] != q || cells[a][k].ms.empty()) continue;
        const double m = Median(cells[a][k].ms);
        if (best == 0 || m < best) best = m;
      }
    }
    if (best > 0) regrets.push_back(Median(cells[0][j].ms) / best);
  }
  return Geomean(regrets);
}

volatile int64_t g_sink = 0;

// Median GB/s of `fn`, which reads `bytes` per call: at least 5 calls and
// at least 50 ms.
template <typename Fn>
double MeasureGBps(const char* name, double bytes, Fn&& fn) {
  std::vector<double> rates;
  const int64_t begin = NowNs();
  while (rates.size() < 5 ||
         (NowNs() - begin < 50'000'000 && rates.size() < 1000)) {
    Timed timed(name, true, NextOpId());
    fn();
    rates.push_back(bytes / (timed.Stop() * 1e6));
  }
  return Median(rates);
}

std::vector<int64_t> Widened(const swole::Column& column) {
  std::vector<int64_t> out(column.size());
  for (int64_t i = 0; i < column.size(); ++i) out[i] = column.ValueAt(i);
  return out;
}

// ns per key of InsertBatch into a presized set, `reps` fresh tables.
double InsertNs(const std::vector<int64_t>& keys, int reps) {
  std::vector<swole::HashTable> tables;
  tables.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    tables.emplace_back(0, static_cast<int64_t>(keys.size()));
  }
  const auto n = static_cast<int64_t>(keys.size());
  Timed timed("HashTable::InsertBatch", true, NextOpId());
  for (swole::HashTable& table : tables) {
    for (int64_t b = 0; b < n; b += 1024) {
      table.InsertBatch(keys.data() + b,
                        static_cast<int32_t>(std::min<int64_t>(1024, n - b)),
                        true);
    }
  }
  return timed.Stop() * 1e6 / static_cast<double>(n * reps);
}

// Median ns per probe of ContainsBatch over `probes` against `table`.
double ProbeNs(const swole::HashTable& table,
               const std::vector<int64_t>& probes) {
  std::vector<uint8_t> out(1024);
  const auto n = static_cast<int64_t>(probes.size());
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    Timed timed("HashTable::ContainsBatch", true, NextOpId());
    int64_t hits = 0;
    for (int64_t b = 0; b < n; b += 1024) {
      const auto len = static_cast<int32_t>(std::min<int64_t>(1024, n - b));
      table.ContainsBatch(probes.data() + b, len, out.data(), true);
      hits += swole::kernels::CountBytes(out.data(), len);
    }
    g_sink = g_sink + hits;
    ns.push_back(timed.Stop() * 1e6 / static_cast<double>(n));
  }
  return Median(ns);
}

void ReportKernelsAndHash(const MicroInputs& in, Report* report) {
  namespace k = swole::kernels;
  const swole::Table& r = in.data->catalog.TableRef("r");
  const int64_t n = r.num_rows();
  const int8_t* ra = r.ColumnRef("r_a").Data<int8_t>();
  const int8_t* rb = r.ColumnRef("r_b").Data<int8_t>();
  const int8_t* rx = r.ColumnRef("r_x").Data<int8_t>();
  std::vector<uint8_t> cmp(n), copy(n);
  std::vector<int32_t> idx(1024);
  const double bytes = static_cast<double>(n);
  report->Layer("exec.roofline_gbps", MeasureGBps("memcpy", bytes, [&] {
                  std::memcpy(copy.data(), rx, n);
                  g_sink = g_sink + copy[n / 2];
                }),
                "GB/s");
  report->Layer("exec.kernel.compare_lit_i8_gbps",
                MeasureGBps("kernels::CompareLit", bytes, [&] {
                  k::CompareLit<int8_t>(k::CmpOp::kLt, rx, 50, cmp.data(), n);
                }),
                "GB/s");
  report->Layer("exec.kernel.selvec_gbps",
                MeasureGBps("kernels::SelVecFromCmpNoBranch", bytes, [&] {
                  int64_t total = 0;
                  for (int64_t b = 0; b < n; b += 1024) {
                    total += k::SelVecFromCmpNoBranch(
                        cmp.data() + b, std::min<int64_t>(1024, n - b),
                        idx.data());
                  }
                  g_sink = g_sink + total;
                }),
                "GB/s");
  report->Layer("exec.kernel.sum_product_masked_i8_gbps",
                MeasureGBps("kernels::SumProductMasked", 3 * bytes, [&] {
                  g_sink = g_sink + k::SumProductMasked<int8_t, int8_t>(
                                        ra, rb, cmp.data(), n);
                }),
                "GB/s");
  report->Layer("exec.kernel.count_bytes_gbps",
                MeasureGBps("kernels::CountBytes", bytes, [&] {
                  g_sink = g_sink + k::CountBytes(cmp.data(), n);
                }),
                "GB/s");
  const swole::StringColumn* text = r.ColumnRef("r_s").text();
  std::vector<uint8_t> hits(n);
  report->Layer("exec.kernel.str_contains_gbps",
                MeasureGBps("kernels::StrContains",
                            static_cast<double>(text->total_bytes()), [&] {
                              k::StrContains(text->bytes(), text->offsets(), 0,
                                             n, "zebra", hits.data());
                            }),
                "GB/s");

  const Catalog& catalog = in.data->catalog;
  const std::vector<int64_t> small_keys =
      Widened(catalog.TableRef("s_small").ColumnRef("s_pk"));
  const std::vector<int64_t> large_keys =
      Widened(catalog.TableRef("s_large").ColumnRef("s_pk"));
  report->Layer("exec.hash.insert_ns_1k", InsertNs(small_keys, 200), "ns");
  report->Layer("exec.hash.insert_ns_1m", InsertNs(large_keys, 3), "ns");
  swole::HashTable small(0, static_cast<int64_t>(small_keys.size()));
  small.InsertBatch(small_keys.data(),
                    static_cast<int32_t>(small_keys.size()), false);
  swole::HashTable large(0, static_cast<int64_t>(large_keys.size()));
  for (size_t b = 0; b < large_keys.size(); b += 1024) {
    large.InsertBatch(large_keys.data() + b,
                      static_cast<int32_t>(
                          std::min<size_t>(1024, large_keys.size() - b)),
                      false);
  }
  report->Layer("exec.hash.probe_ns_1k",
                ProbeNs(small, Widened(r.ColumnRef("r_fk_small"))), "ns");
  report->Layer("exec.hash.probe_ns_1m",
                ProbeNs(large, Widened(r.ColumnRef("r_fk_large"))), "ns");
}

}  // namespace

void RunMicroSweep(const Args& args, Report* report) {
  std::unique_ptr<MicroInputs> in;
  std::vector<std::unique_ptr<Engine>> owned;
  std::vector<Cell> cells;
  std::vector<double> setup_s, generate_s, oracle_s;
  std::vector<std::vector<double>> cold_ms;  // per cell, one per set-up
  CounterSnapshot count_before, count_after;
  ChoiceCounts choices;
  int spill_cells = 0;
  for (int i = 0; i < kSetups; ++i) {
    cells.clear();
    owned.clear();
    in.reset();
    const bool last = i == kSetups - 1;
    Timed setup("setup", args.trace);
    in = BuildInputs(args);
    const Catalog& catalog = in->data->catalog;
    AddCells(in->names, in->plans, in->expected, catalog, ExplicitOptions(4),
             args.trace && last, &owned, &cells);
    StrategyOptions budgeted = ExplicitOptions(4);
    budgeted.mem_limit_bytes = kSpillBudgetBytes;
    budgeted.spill = 1;
    const size_t before = cells.size();
    AddCells(in->spill_names, in->spill_plans, in->spill_expected, catalog,
             budgeted, args.trace && last, &owned, &cells);
    spill_cells = static_cast<int>(cells.size() - before);
    count_before = CounterSnapshot::Take();
    WarmUp(cells, &cold_ms, [&](int c) {
      if (last && cells[c].kind == StrategyKind::kSwole) {
        choices.Add(*cells[c].engine->strategy);
      }
      if (c == static_cast<int>(cells.size()) - 1) {
        count_after = CounterSnapshot::Take();
      }
    });
    setup_s.push_back(setup.Stop() / 1e3);
    generate_s.push_back(in->generate_s);
    oracle_s.push_back(in->oracle_s);
    LogSetup(i, setup_s.back(), in->generate_s, in->oracle_s);
  }

  Rng rng(DeriveSeed(args.seed, 2));
  const CounterSnapshot pass_before = CounterSnapshot::Take();
  PassStats pass;
  {
    FaultWindow faults(args);
    pass = RunRounds(cells, &rng, args.seconds, args.trace ? 2 : 1, 0,
                     args.trace);
  }
  const CounterSnapshot pass_after = CounterSnapshot::Take();
  LogCells("main", cells);

  report->EndToEnd("setup_s", Median(setup_s), "s", kSetups);
  ReportLatencyMetrics(pass, report);
  ReportStrategyGeomeans(cells, report);
  ReportColdMs(cold_ms, report);
  if (!args.trace) return;

  const auto n_setups = static_cast<int64_t>(generate_s.size());
  report->Layer("micro.generate_s", Median(generate_s), "s", n_setups);
  report->Layer("storage.table_mb", CatalogMiB(in->data->catalog), "MiB");
  report->Layer("engine.oracle_s", Median(oracle_s), "s", n_setups);
  ReportStrategyPhases(cells, report);
  const std::vector<Engine*> twins = TracedTwins(cells);
  ReportCountingPass(count_before, count_after,
                     static_cast<int64_t>(cells.size()), report);
  ReportSteals(pass_before, pass_after, pass.executed, report);
  ReportMemPeak(twins, report);
  choices.Report(report);

  // exec.spill: per budgeted execution. Counts come from one 1-thread
  // execution per strategy (at 4 threads, work stealing moves rows between
  // the workers' spill quotas, so counts would not repeat exactly); merge
  // time from the traced 4-thread executions.
  {
    StrategyOptions one = ExplicitOptions(1);
    one.mem_limit_bytes = kSpillBudgetBytes;
    one.spill = 1;
    std::vector<std::unique_ptr<Engine>> owned1;
    std::vector<Cell> spill1;
    AddCells(in->spill_names, in->spill_plans, in->spill_expected,
             in->data->catalog, one, false, &owned1, &spill1);
    const CounterSnapshot before = CounterSnapshot::Take();
    for (int c = 0; c < static_cast<int>(spill1.size()); ++c) {
      RunCell(spill1, c, false);
    }
    const CounterSnapshot after = CounterSnapshot::Take();
    const double per = static_cast<double>(spill1.size());
    report->Layer("exec.spill.spills",
                  after.Delta(before, "spill.spills") / per, "count",
                  static_cast<int64_t>(spill1.size()));
    report->Layer("exec.spill.written_mb",
                  after.Delta(before, "spill.bytes_written") / per / 1048576.0,
                  "MiB", static_cast<int64_t>(spill1.size()));
  }
  std::vector<double> merge_ms;
  for (size_t c = cells.size() - spill_cells; c < cells.size(); ++c) {
    Engine* twin = cells[c].traced;
    const std::vector<PhaseTimes> phases = WalkEngineSpans(*twin->trace);
    for (const PhaseTimes& p : phases) {
      if (p.spill_events > 0) merge_ms.push_back(p.spill_merge_ms);
    }
  }
  report->Layer("exec.spill.merge_ms", Median(merge_ms), "ms",
                static_cast<int64_t>(merge_ms.size()));
  report->Layer("obs.trace_overhead_pct", TraceOverheadPct(cells), "%",
                static_cast<int64_t>(cells.size()));

  // Extra passes, kept out of the overhead figure.
  report->Layer("cost.regret", CostRegret(*in, &rng), "x",
                static_cast<int64_t>(in->plans.size()));
  ReportKernelsAndHash(*in, report);
  // exec.entry_ms comes from its admission window, where it carries weight.
  ReportJitAndAdmissionLayers(args, report);
}

}  // namespace perfbench

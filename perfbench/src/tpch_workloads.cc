// The TPC-H workload tpch_sf1 (the paper's Fig. 6, out of cache), and the
// TPC-H SF 0.1 pass of micro_sweep's traced run that measures the JIT (every
// shape the code generator accepts, compiled from an empty kernel cache,
// then served warm) and the entry sequence and admission under closed-loop
// load.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/generator.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "engine/reference_engine.h"
#include "exec/admission.h"
#include "harness.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using swole::Catalog;
using swole::QueryPlan;
using swole::QueryResult;
using swole::Result;
using swole::Rng;
using swole::StrategyKind;

// Set-ups per run; setup_s is their median. Two: one SF 1 set-up
// (generation, reference answers, warm-up) takes 12-17 s on a 4-core host,
// and a third would not fit the run's time budget.
constexpr int kSf1Setups = 2;

struct TpchInputs {
  std::unique_ptr<swole::tpch::TpchData> data;
  std::vector<std::string> names;
  std::vector<QueryPlan> plans;
  std::vector<QueryResult> expected;
  double generate_s = 0;
  double oracle_s = 0;
};

enum class Shapes { kPaperEight, kJitAccepted };

std::unique_ptr<TpchInputs> BuildInputs(const Args& args, double scale_factor,
                                        Shapes shapes) {
  auto in = std::make_unique<TpchInputs>();
  swole::tpch::TpchConfig config;
  config.scale_factor = scale_factor;
  config.seed = DeriveSeed(args.seed, 1);
  {
    Timed timed("tpch::TpchData::Generate", args.trace);
    in->data = swole::tpch::TpchData::Generate(config);
    in->generate_s = timed.Stop() / 1e3;
  }
  const Catalog& catalog = in->data->catalog;
  if (shapes == Shapes::kPaperEight) {
    in->names = {"Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19"};
    in->plans = swole::tpch::AllQueries(catalog);
  } else {
    // Every TPC-H shape codegen::GenerateKernel accepts at this commit.
    in->names = {"Q1", "Q6", "Q13String", "Q14String", "Q19String"};
    in->plans.push_back(swole::tpch::Q1(catalog));
    in->plans.push_back(swole::tpch::Q6(catalog));
    in->plans.push_back(swole::tpch::Q13String(catalog));
    in->plans.push_back(swole::tpch::Q14String(catalog));
    in->plans.push_back(swole::tpch::Q19String(catalog));
  }
  Timed oracle("oracle", args.trace);
  swole::ReferenceEngine reference(catalog, 4);
  for (const QueryPlan& plan : in->plans) {
    Timed timed("ReferenceEngine::Execute", args.trace, NextOpId());
    Result<QueryResult> answer = reference.Execute(plan);
    if (!answer.ok()) {
      Fatal("reference engine failed on " + plan.name + ": " +
            answer.status().ToString());
    }
    in->expected.push_back(std::move(answer).value());
  }
  in->oracle_s = oracle.Stop() / 1e3;
  if (args.corrupt_oracle) CorruptAnswer(&in->expected[0]);
  return in;
}

void ReportInputs(const std::vector<double>& generate_s,
                  const std::vector<double>& oracle_s, const TpchInputs& in,
                  Report* report) {
  const auto n = static_cast<int64_t>(generate_s.size());
  report->Layer("tpch.generate_s", Median(generate_s), "s", n);
  report->Layer("storage.table_mb", CatalogMiB(in.data->catalog), "MiB");
  report->Layer("engine.oracle_s", Median(oracle_s), "s", n);
}

}  // namespace

// ---- tpch_sf1 ----------------------------------------------------------------

void RunTpchSf1(const Args& args, Report* report) {
  std::unique_ptr<TpchInputs> in;
  std::vector<std::unique_ptr<Engine>> owned;
  std::vector<Cell> cells;
  std::vector<double> setup_s, generate_s, oracle_s;
  std::vector<std::vector<double>> cold_ms;  // per cell, one per set-up
  CounterSnapshot count_before, count_after;
  ChoiceCounts choices;
  for (int i = 0; i < kSf1Setups; ++i) {
    cells.clear();
    owned.clear();
    in.reset();
    const bool last = i == kSf1Setups - 1;
    Timed setup("setup", args.trace);
    in = BuildInputs(args, 1.0, Shapes::kPaperEight);
    AddCells(in->names, in->plans, in->expected, in->data->catalog,
             ExplicitOptions(4), args.trace && last, &owned, &cells);
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

  report->EndToEnd("setup_s", Median(setup_s), "s", kSf1Setups);
  ReportLatencyMetrics(pass, report);
  ReportStrategyGeomeans(cells, report);
  ReportColdMs(cold_ms, report);
  if (!args.trace) return;

  ReportInputs(generate_s, oracle_s, *in, report);
  ReportStrategyPhases(cells, report);
  const std::vector<Engine*> twins = TracedTwins(cells);
  ReportEntryMs(twins, report);
  ReportCountingPass(count_before, count_after,
                     static_cast<int64_t>(cells.size()), report);
  ReportSteals(pass_before, pass_after, pass.executed, report);
  ReportMemPeak(twins, report);
  choices.Report(report);
  report->Layer("obs.trace_overhead_pct", TraceOverheadPct(cells), "%",
                static_cast<int64_t>(cells.size()));

  // Extra pass, kept out of the overhead figure: the same cells at one
  // thread, for the scheduler's speed-up per strategy.
  std::vector<std::unique_ptr<Engine>> owned1;
  std::vector<Cell> cells1;
  AddCells(in->names, in->plans, in->expected, in->data->catalog,
           ExplicitOptions(1), false, &owned1, &cells1);
  RunRounds(cells1, &rng, 0, 2, 2, false);
  for (StrategyKind kind : kAllKinds) {
    std::vector<double> ratios;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].kind == kind && !cells[c].ms.empty() &&
          !cells1[c].ms.empty()) {
        ratios.push_back(Median(cells1[c].ms) / Median(cells[c].ms));
      }
    }
    report->Layer(std::string("exec.scheduler.speedup.") +
                      swole::StrategyKindName(kind),
                  Geomean(ratios), "x", static_cast<int64_t>(ratios.size()));
  }
}

// ---- JIT and admission layers (micro_sweep's traced run) --------------------

namespace {

swole::codegen::GeneratorOptions ExplicitGenerator(swole::obs::QueryTrace* trace) {
  swole::codegen::GeneratorOptions g;
  g.strategy = StrategyKind::kSwole;
  g.tile_size = 1024;
  g.agg_choice = swole::AggChoice::kValueMasking;
  g.group_capacity_hint = 1024;
  g.num_threads = 4;
  g.trace = trace;
  g.priority = 0;
  g.tenant = "";
  return g;
}

swole::codegen::JitOptions ExplicitJit() {
  swole::codegen::JitOptions j;
  j.compiler = "c++";
  j.extra_flags = "-O3 -march=native";
  j.degrade_flags = {"-O2", "-O0"};
  j.work_dir = "";  // a fresh directory under TMPDIR, removed after use
  j.keep_artifacts = false;
  j.compile_timeout_ms = 60'000;
  j.use_cache = true;
  j.disk_cache_dir = "";  // memory layer only: no cross-run reuse
  return j;
}

struct ShapeRuns {
  swole::obs::QueryTrace trace;
  std::vector<bool> call_cold;  // per serve, in order
};

// One traced, checked ExecuteWithFallback; a fallback to the interpreter
// counts as a failed operation.
void ServeJit(const TpchInputs& in, int shape, ShapeRuns* runs, bool cold) {
  swole::codegen::ExecutionReport how;
  Timed timed("codegen::ExecuteWithFallback", true, NextOpId());
  Result<QueryResult> result = swole::codegen::ExecuteWithFallback(
      in.plans[shape], in.data->catalog, ExplicitGenerator(&runs->trace),
      ExplicitJit(), &how);
  timed.Stop();
  runs->call_cold.push_back(cold);
  if (!how.used_jit) {
    CountFailedOp();
    return;
  }
  CountOp(result, in.expected[shape]);
}

struct ClientLog {
  std::vector<double> wait_ms;
  int64_t queued = 0;
};

// The entry sequence and admission under load: closed-loop clients, each
// with its own traced SWOLE engine (a QueryTrace is recorded by one driving
// thread at a time), draw the shapes uniformly from their own streams of the
// seed, 2 threads per query, at most 2 queries running (cap x threads =
// nproc) and the other clients queued.
void ReportAdmissionLayer(const Args& args, const TpchInputs& in,
                          Report* report) {
  constexpr int kClients = 4;
  constexpr int kQueryThreads = 2;
  constexpr int kRunningCap = 2;
  constexpr double kWindowS = 2.0;
  const int shapes = static_cast<int>(in.plans.size());
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Engine*> clients;
  for (int c = 0; c < kClients; ++c) {
    engines.push_back(MakeEngine(StrategyKind::kSwole, in.data->catalog,
                                 ExplicitOptions(kQueryThreads), true));
    clients.push_back(engines.back().get());
  }
  auto serve = [&](int c, int q, ClientLog* log) {
    Engine* engine = clients[c];
    Timed timed("Strategy::Execute", true, NextOpId());
    Result<QueryResult> result = engine->strategy->Execute(in.plans[q]);
    const double ms = timed.Stop();
    const swole::exec::AdmissionWaitInfo wait =
        swole::exec::LastAdmissionWaitOnThread();
    engine->exec_cell.push_back(q);
    engine->exec_ms.push_back(ms);
    if (CountOp(result, in.expected[q]) != Outcome::kOk || log == nullptr) {
      return;
    }
    log->wait_ms.push_back(static_cast<double>(wait.wait_us) / 1e3);
    log->queued += wait.queued ? 1 : 0;
  };
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < shapes; ++q) serve(c, q, nullptr);
  }

  swole::exec::AdmissionConfig cap;
  cap.max_concurrent_queries = kRunningCap;
  cap.max_queued_queries = kClients - kRunningCap;
  cap.admission_timeout_ms = 60'000;  // nothing sheds at this load
  cap.global_mem_limit_bytes = 0;
  cap.max_queries_per_tenant = 0;
  swole::exec::AdmissionController::ConfigureGlobal(cap);
  std::vector<ClientLog> logs(kClients);
  const int64_t deadline = NowNs() + static_cast<int64_t>(kWindowS * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(DeriveSeed(args.seed, 100 + c));
      while (NowNs() < deadline) {
        serve(c, static_cast<int>(rng.NextBounded(shapes)), &logs[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  swole::exec::AdmissionConfig off;
  off.max_concurrent_queries = 0;
  swole::exec::AdmissionController::ConfigureGlobal(off);

  std::vector<double> waits;
  int64_t queued = 0;
  for (const ClientLog& log : logs) {
    waits.insert(waits.end(), log.wait_ms.begin(), log.wait_ms.end());
    queued += log.queued;
  }
  const auto n = static_cast<int64_t>(waits.size());
  ReportEntryMs(clients, report);
  report->Layer("exec.admission.wait_p50_ms", Quantile(waits, 0.50), "ms", n);
  report->Layer("exec.admission.wait_p99_ms", Quantile(waits, 0.99), "ms", n);
  report->Layer("exec.admission.queued_frac",
                n > 0 ? static_cast<double>(queued) / static_cast<double>(n)
                      : 0.0,
                "ratio", n);
}

}  // namespace

void ReportJitAndAdmissionLayers(const Args& args, Report* report) {
  constexpr int kWarmRounds = 5;
  const std::unique_ptr<TpchInputs> in =
      BuildInputs(args, 0.1, Shapes::kJitAccepted);
  const int shapes = static_cast<int>(in->plans.size());
  std::vector<ShapeRuns> runs(shapes);
  Rng rng(DeriveSeed(args.seed, 5));
  CounterSnapshot count_before, count_after;
  {
    FaultWindow faults(args);
    count_before = CounterSnapshot::Take();
    // Cold: the kernel cache starts empty and no two shapes share a kernel,
    // so the first serve of each shape generates, compiles and runs it.
    swole::codegen::KernelCache::Global().Clear();
    for (int s : ShuffledOrder(shapes, &rng)) ServeJit(*in, s, &runs[s], true);
    for (int round = 0; round < kWarmRounds; ++round) {
      for (int s : ShuffledOrder(shapes, &rng)) {
        ServeJit(*in, s, &runs[s], false);
      }
      if (round == 0) count_after = CounterSnapshot::Take();
    }
  }
  report->Note("jit_operations", std::to_string(shapes * (1 + kWarmRounds)));

  // Generation timed on its own; compile and kernel run read from the
  // jit_compile / jit_kernel spans of the cold and warm serves.
  std::vector<double> generate, compile, run;
  double source_kb = 0;  // summed over shapes
  for (int s = 0; s < shapes; ++s) {
    ShapeRuns& r = runs[s];
    std::vector<double> gen_ms;
    for (int rep = 0; rep < 5; ++rep) {
      Timed timed("codegen::GenerateKernel", true, NextOpId());
      Result<swole::codegen::GeneratedKernel> kernel =
          swole::codegen::GenerateKernel(in->plans[s], in->data->catalog,
                                         ExplicitGenerator(nullptr));
      gen_ms.push_back(timed.Stop());
      if (!kernel.ok()) Fatal("GenerateKernel: " + kernel.status().ToString());
      if (rep == 0) source_kb += kernel->source.size() / 1024.0;
    }
    const double gen_median = Median(gen_ms);
    generate.push_back(gen_median);
    std::vector<double> compile_ms, kernel_ms;
    const int calls = static_cast<int>(r.call_cold.size());
    int call = -1;
    for (const auto& span : r.trace.root()->children) {
      const double ms = static_cast<double>(span->duration_ns) / 1e6;
      if (span->name == "jit_compile") {
        ++call;
        if (call < calls && r.call_cold[call]) {
          compile_ms.push_back(std::max(ms - gen_median, 0.0));
        }
      } else if (span->name == "jit_kernel" && call >= 0 && call < calls &&
                 !r.call_cold[call]) {
        kernel_ms.push_back(ms);
      }
    }
    if (!compile_ms.empty()) compile.push_back(Median(compile_ms));
    if (!kernel_ms.empty()) run.push_back(Median(kernel_ms));
  }
  report->Layer("codegen.generate_ms", Geomean(generate), "ms", shapes);
  report->Layer("codegen.compile_ms", Geomean(compile), "ms",
                static_cast<int64_t>(compile.size()));
  report->Layer("codegen.run_ms", Geomean(run), "ms",
                static_cast<int64_t>(run.size()));
  report->Layer("codegen.source_kb", source_kb / shapes, "KiB", shapes);
  // Counts over the cold serves and the first warm round.
  auto delta = [&](const char* name) {
    return static_cast<double>(count_after.Delta(count_before, name));
  };
  report->Layer("codegen.compiles", delta("jit.compiles"), "count");
  report->Layer("codegen.retries", delta("jit.retries"), "count");
  report->Layer("codegen.fallbacks", delta("jit.fallbacks"), "count");
  report->Layer("codegen.cache_hits",
                delta("jit.cache_hits_memory") + delta("jit.cache_hits_disk"),
                "count");

  ReportAdmissionLayer(args, *in, report);
}

}  // namespace perfbench

// Figure 6: TPC-H (paper: SF 10; default here SF 0.1, override with
// SWOLE_SF). One row per (query, strategy); the paper's reported speedups
// are the ratios data-centric/hybrid and hybrid/swole per query.
//
// Series: data-centric | hybrid | rof (extension; the paper excluded ROF
// for hardware reasons) | swole. The HyPer sanity-check series is omitted
// (proprietary binary; the paper itself treats it as a sanity check, not a
// comparison point).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace swole {
namespace {

void RegisterAll(const tpch::TpchData& data) {
  static constexpr const char* kNames[] = {"Q1",  "Q3",  "Q4",  "Q5",
                                           "Q6",  "Q13", "Q14", "Q19"};
  std::vector<QueryPlan> plans = tpch::AllQueries(data.catalog);
  for (size_t q = 0; q < plans.size(); ++q) {
    for (StrategyKind kind :
         {StrategyKind::kDataCentric, StrategyKind::kHybrid,
          StrategyKind::kRof, StrategyKind::kSwole}) {
      // Plans are move-only; rebuild one per registration.
      QueryPlan plan = std::move(tpch::AllQueries(data.catalog)[q]);
      bench::RegisterPlanBenchmark(
          StringFormat("fig6_tpch/%s/%s", kNames[q], StrategyKindName(kind)),
          data.catalog, kind, std::move(plan));
    }
  }
}

}  // namespace
}  // namespace swole

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  auto data = swole::tpch::TpchData::Generate(
      swole::tpch::TpchConfig::FromEnv());
  swole::RegisterAll(*data);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Cost-model validation (extension): calibrates the §III cost model on
// this machine, then prints predicted vs measured runtimes for the
// microbenchmark Q1/Q2 configurations. The model only needs to rank
// techniques correctly — the table also reports whether the predicted
// winner matches the measured winner at each point.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/timer.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "micro/micro.h"
#include "strategies/strategy.h"

using namespace swole;

namespace {

double MeasureMs(Strategy* engine, const QueryPlan& plan) {
  engine->Execute(plan).status().CheckOK();  // warm-up / plan analysis
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    engine->Execute(plan).status().CheckOK();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

}  // namespace

int main() {
  MicroConfig config = MicroConfig::FromEnv();
  std::printf("calibrating cost profile...\n");
  CalibrationOptions cal;
  cal.probe_bytes = 16 << 20;
  cal.ht_probes = 1 << 18;
  CostProfile profile = CalibrateCostProfile(cal);
  std::printf("%s\n\n", profile.ToString().c_str());

  std::printf("generating R (%lld rows)...\n\n",
              static_cast<long long>(config.r_rows));
  auto data = MicroData::Generate(config);

  auto hybrid = MakeStrategy(StrategyKind::kHybrid, data->catalog);
  StrategyOptions vm_opt;
  vm_opt.force_agg = StrategyOptions::ForceAgg::kValueMasking;
  vm_opt.cost_profile = &profile;
  auto vm = MakeStrategy(StrategyKind::kSwole, data->catalog, vm_opt);

  // ---- Scalar aggregation (micro Q1, multiplication) ----
  std::printf("micro Q1 (*): predicted vs measured (ms)\n");
  std::printf("%5s %12s %12s | %12s %12s | winner pred/meas\n", "SEL%",
              "hyb(pred)", "vm(pred)", "hyb(meas)", "vm(meas)");
  int agree = 0;
  int total = 0;
  for (int64_t sel : {0, 20, 40, 60, 80, 100}) {
    AggWorkload w;
    w.rows = static_cast<double>(config.r_rows);
    w.selectivity = sel / 100.0;
    QueryPlan probe_plan = MicroQ1(false, sel);
    w.comp_ns = EstimateComputeNs(profile, *probe_plan.aggs[0].expr);
    w.num_read_columns = 2;
    double hybrid_pred = HybridCost(profile, w) / 1e6;
    double vm_pred = ValueMaskingCost(profile, w) / 1e6;
    QueryPlan p1 = MicroQ1(false, sel);
    QueryPlan p2 = MicroQ1(false, sel);
    double hybrid_meas = MeasureMs(hybrid.get(), p1);
    double vm_meas = MeasureMs(vm.get(), p2);
    bool pred_vm = vm_pred < hybrid_pred;
    bool meas_vm = vm_meas < hybrid_meas;
    agree += pred_vm == meas_vm;
    ++total;
    std::printf("%5lld %12.2f %12.2f | %12.2f %12.2f | %s/%s %s\n",
                static_cast<long long>(sel), hybrid_pred, vm_pred,
                hybrid_meas, vm_meas, pred_vm ? "vm" : "hyb",
                meas_vm ? "vm" : "hyb", pred_vm == meas_vm ? "" : " <-");
  }

  // ---- Grouped aggregation (micro Q2) across cardinalities ----
  StrategyOptions km_opt;
  km_opt.force_agg = StrategyOptions::ForceAgg::kKeyMasking;
  auto km = MakeStrategy(StrategyKind::kSwole, data->catalog, km_opt);
  std::printf("\nmicro Q2: predicted vs measured winners at sel=50%%\n");
  std::printf("%10s | pred winner | meas winner\n", "keys");
  for (size_t c = 0; c < data->c_columns.size(); ++c) {
    AggWorkload w;
    w.rows = static_cast<double>(config.r_rows);
    w.selectivity = 0.5;
    w.comp_ns = 2.0;
    w.num_read_columns = 3;
    int64_t entry_bytes = 8 + 8 * 2;
    w.group_ht_bytes = data->c_actual[c] * entry_bytes * 10 / 7;
    AggChoice choice = ChooseAggregation(profile, w);

    QueryPlan ph = MicroQ2(data->c_columns[c], data->c_actual[c], 50);
    QueryPlan pv = MicroQ2(data->c_columns[c], data->c_actual[c], 50);
    QueryPlan pk = MicroQ2(data->c_columns[c], data->c_actual[c], 50);
    double ms_h = MeasureMs(hybrid.get(), ph);
    double ms_v = MeasureMs(vm.get(), pv);
    double ms_k = MeasureMs(km.get(), pk);
    const char* measured = ms_h <= ms_v && ms_h <= ms_k ? "hybrid"
                           : ms_v <= ms_k              ? "value-masking"
                                                        : "key-masking";
    bool match = std::string(AggChoiceName(choice)) == measured;
    agree += match;
    ++total;
    std::printf("%10lld | %11s | %11s %s\n",
                static_cast<long long>(data->c_actual[c]),
                AggChoiceName(choice), measured, match ? "" : " <-");
  }
  std::printf("\nmodel/measurement agreement: %d / %d points\n", agree,
              total);
  return 0;
}

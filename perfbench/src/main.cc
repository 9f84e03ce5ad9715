// The benchmark binary. One run = one workload at one seed:
//
//   swole_perfbench --workload tpch_sf1 --seed 1 --seconds 10 --trace 0
//                   --out-dir .bench_build/perfbench-out
//
// Set-up generates the inputs from the seed and computes the reference
// engine's answer for every distinct operation; the timed pass checks every
// result against it. The last line of stdout is one JSON record with the
// run context, the operation totals, and every metric with its unit and
// sample count (perfbench/run.py turns it into the benchmark's result line).
// --trace 1 additionally records the benchmark's own spans and the engines'
// phase spans, reports the per-layer metrics, and writes the spans to
// <out-dir>/spans-<workload>-<seed>.json. --fault and --corrupt-oracle are
// the failure-accounting self-checks (perfbench/selfcheck.py).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exec/admission.h"
#include "exec/simd.h"
#include "harness.h"

extern char** environ;

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  void (*run)(const Args&, Report*);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"tpch_sf1", RunTpchSf1},
    {"micro_sweep", RunMicroSweep},
};

// SWOLE_* variables the benchmark neutralizes by setting the corresponding
// config fields explicitly, or that only change log output.
constexpr const char* kInertKnobs[] = {
    "SWOLE_SF",          "SWOLE_TPCH_SEED",     "SWOLE_MICRO_R",
    "SWOLE_MICRO_S_SMALL", "SWOLE_MICRO_S_LARGE", "SWOLE_MICRO_SEED",
    "SWOLE_MICRO_ZIPF",  "SWOLE_MICRO_STRLEN",  "SWOLE_LOG_LEVEL"};

bool IsInert(const std::string& name) {
  for (const char* knob : kInertKnobs) {
    if (name == knob) return true;
  }
  return false;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %.2f %.2f", one, five, fifteen);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetrics(const std::vector<std::pair<std::string, Metric>>& metrics,
                   std::string* out) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    *out += (i == 0 ? "\"" : ",\"") + Escape(name) + "\":{\"value\":" +
            Number(m.value) + ",\"unit\":\"" + Escape(m.unit) +
            "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  *out += "}";
}

void PrintTable(const char* title,
                const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-44s %14.6g %-6s n=%lld\n", name.c_str(), m.value,
                 m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {tpch_sf1|micro_sweep} [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR] "
               "[--corrupt-oracle] [--fault SITE:P,...]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
    } else if (flag == "--fault" && has_value) {
      args.fault = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  const WorkloadEntry* workload = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(args.seconds > 0)) return Usage(argv[0]);

  // Run context: what the numbers were measured on.
  const std::string load_before = LoadAverage();
  std::vector<std::pair<std::string, std::string>> knobs;
  std::vector<std::string> warnings;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("SWOLE_", 0) != 0) continue;
    const size_t eq = entry.find('=');
    const std::string name = entry.substr(0, eq);
    knobs.emplace_back(name, eq == std::string::npos ? "" : entry.substr(eq + 1));
    if (!IsInert(name)) {
      warnings.push_back(name + " is set and can change what is measured");
    }
  }
  for (const std::string& w : warnings) {
    std::fprintf(stderr, "perfbench: WARNING: %s\n", w.c_str());
  }

  // Admission off unless a workload configures it (SWOLE_MAX_QUERIES and
  // friends must not leak in).
  swole::exec::AdmissionConfig admission;
  admission.max_concurrent_queries = 0;
  admission.max_queued_queries = -1;
  admission.admission_timeout_ms = 100;
  admission.global_mem_limit_bytes = 0;
  admission.max_queries_per_tenant = 0;
  swole::exec::AdmissionController::ConfigureGlobal(admission);

  ProbeHost();
  Report report;
  workload->run(args, &report);
  ProbeHost();
  report.EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB", 1);

  std::string spans_file;
  if (args.trace) {
    spans_file = args.out_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json";
    if (!SpanLog::Global().WriteJson(spans_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_file.c_str());
      return 1;
    }
  }
  const OpTotals totals = Totals();
  const int64_t bad = totals.failed + totals.mismatched;

  PrintTable("end-to-end metrics", report.end_to_end());
  if (args.trace) PrintTable("per-layer metrics", report.layers());
  std::fprintf(stderr,
               "operations: attempted=%lld failed=%lld mismatched=%lld "
               "error_rate=%.6g\n",
               static_cast<long long>(totals.attempted),
               static_cast<long long>(totals.failed),
               static_cast<long long>(totals.mismatched),
               totals.attempted > 0
                   ? static_cast<double>(bad) / totals.attempted
                   : 0.0);

  std::string out = "{\"workload\":\"" + args.workload +
                    "\",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"seconds\":" + Number(args.seconds) +
                    ",\"correct\":" + (totals.mismatched == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(totals.attempted) +
                    ",\"failed\":" + std::to_string(bad) +
                    ",\"mismatched\":" + std::to_string(totals.mismatched) +
                    ",\"error_rate\":" +
                    Number(totals.attempted > 0
                               ? static_cast<double>(bad) / totals.attempted
                               : 0.0) +
                    ",\"fault_injected\":" +
                    std::to_string(InjectedFaults());
  out += ",\"end_to_end\":";
  AppendMetrics(report.end_to_end(), &out);
  out += ",\"per_layer\":";
  AppendMetrics(report.layers(), &out);
  out += ",\"context\":{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"loadavg_before\":\"" + load_before + "\",\"loadavg_after\":\"" +
         LoadAverage() + "\",\"compiler\":\"" + Escape(PERFBENCH_COMPILER) +
         "\",\"build_type\":\"" + Escape(PERFBENCH_BUILD_TYPE) +
         "\",\"simd_backend\":\"" +
         swole::simd::BackendName(swole::simd::ActiveBackend()) +
         "\",\"spans_file\":\"" + Escape(spans_file) + "\",\"host_probe_ms\":[";
  const std::vector<double> probes = HostProbeSamples();
  for (size_t i = 0; i < probes.size(); ++i) {
    out += (i == 0 ? "" : ",") + Number(probes[i]);
  }
  out += "],\"swole_env\":{";
  for (size_t i = 0; i < knobs.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + Escape(knobs[i].first) + "\":\"" +
           Escape(knobs[i].second) + "\"";
  }
  out += "},\"warnings\":[";
  for (size_t i = 0; i < warnings.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + Escape(warnings[i]) + "\"";
  }
  out += "],\"notes\":{";
  for (size_t i = 0; i < report.notes().size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + Escape(report.notes()[i].first) +
           "\":\"" + Escape(report.notes()[i].second) + "\"";
  }
  out += "}}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

// String kernel throughput (scalar vs AVX2) and end-to-end
// pushed-vs-pulled placement rows.
//
// Kernel rows — `strings/<primitive>/<backend>/len:<avg>` — stream one
// tile's worth of rows per iteration with bytes_per_second set to the
// arena volume touched, so rows read directly as GB/s and dividing a
// backend row by its scalar row gives the dispatch speedup (the
// acceptance bar: AVX2 substring search at len:256 >= 2x scalar).
//
// End-to-end rows — `strings/e2e/micro_q6/<push|pull|auto>/sel:<pct>` —
// run the SWOLE engine on micro Q6 (r join s with `r_s LIKE '%zebra%'`)
// with the placement forced via SWOLE_STR_PLACEMENT, sweeping the dim
// selectivity across the cost model's flip point (~44%).
//
// Record a baseline with (one command line):
//   ./bench/string_bench --benchmark_repetitions=5
//     --benchmark_enable_random_interleaving=true
//     --benchmark_format=json > BENCH_strings.json

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/kernels.h"
#include "exec/simd.h"
#include "exec/simd_string.h"
#include "micro/micro.h"
#include "storage/string_column.h"

namespace swole {
namespace {

using simd::Backend;

constexpr int64_t kRows = 1 << 16;  // rows per registered column

// Two StringColumns per average length. Background bytes are drawn from
// a..y and the needle "zebra" is spliced into ~10% of rows, so substring
// rows do real verify work without degenerating to all-hit or all-miss;
// the dense column splices it into every row long enough to hold it.
struct StringBenchData {
  std::vector<int64_t> lens = {16, 64, 256};
  std::vector<StringColumn> columns;
  std::vector<StringColumn> dense_columns;

  StringBenchData() {
    std::mt19937_64 rng(4242);
    for (int64_t avg : lens) {
      columns.push_back(MakeColumn(avg, /*needle_pct=*/10, &rng));
    }
    for (int64_t avg : lens) {
      dense_columns.push_back(MakeColumn(avg, /*needle_pct=*/100, &rng));
    }
  }

  static StringColumn MakeColumn(int64_t avg, int needle_pct,
                                 std::mt19937_64* rng) {
    std::uniform_int_distribution<int> letter(0, 24);
    StringColumn col;
    std::string buf;
    std::uniform_int_distribution<int64_t> length(avg / 2, avg + avg / 2);
    std::uniform_int_distribution<int> pct(0, 99);
    for (int64_t i = 0; i < kRows; ++i) {
      int64_t n = length(*rng);
      buf.resize(n);
      for (int64_t j = 0; j < n; ++j) {
        buf[j] = static_cast<char>('a' + letter(*rng));
      }
      if (n >= 5 && pct(*rng) < needle_pct) {
        std::uniform_int_distribution<int64_t> pos(0, n - 5);
        buf.replace(pos(*rng), 5, "zebra");
      }
      col.Append(buf);
    }
    return col;
  }

  const StringColumn& ForLen(int64_t avg, bool dense = false) const {
    for (size_t i = 0; i < lens.size(); ++i) {
      if (lens[i] == avg) return dense ? dense_columns[i] : columns[i];
    }
    SWOLE_CHECK(false) << "unknown length " << avg;
    return columns[0];
  }
};

StringBenchData* data = nullptr;

// Registers `strings/<prim>/<backend>/len:<avg>` running `fn()` over the
// whole column with the backend pinned. `bytes` is the per-iteration
// arena volume for the GB/s counter.
template <typename Fn>
void RegisterStringRow(const std::string& prim, Backend backend, int64_t avg,
                       int64_t bytes, Fn fn) {
  std::string name =
      StringFormat("strings/%s/%s/len:%lld", prim.c_str(),
                   simd::BackendName(backend), static_cast<long long>(avg));
  benchmark::RegisterBenchmark(
      name.c_str(), [backend, bytes, fn](benchmark::State& state) {
        Backend prev = simd::ActiveBackend();
        simd::SetBackend(backend);
        for (auto _ : state) {
          benchmark::DoNotOptimize(fn());
        }
        state.SetBytesProcessed(state.iterations() * bytes);
        simd::SetBackend(prev);
      });
}

void RegisterKernelRows() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (simd::CpuHasAvx2()) backends.push_back(Backend::kAvx2);
  static std::vector<uint8_t> out(kRows);
  static std::vector<uint64_t> hashes(kRows);
  static const simd::CompiledLike contains =
      simd::CompileLike("%zebra%", false);
  // Q13's shape ("%special%requests%"): two unanchored tokens, the first
  // one as rare as the needle.
  static const simd::CompiledLike tokens =
      simd::CompileLike("%zeb%ra%", false);
  static const simd::CompiledLike general =
      simd::CompileLike("%ze_ra%", false);

  for (Backend b : backends) {
    for (int64_t avg : data->lens) {
      const StringColumn& col = data->ForLen(avg);
      const uint8_t* bytes = col.bytes();
      const uint32_t* offsets = col.offsets();
      const int64_t volume = col.total_bytes() + kRows;

      RegisterStringRow("eq_lit", b, avg, volume, [bytes, offsets]() {
        kernels::StrEqLit(bytes, offsets, 0, kRows, "zebrazebra",
                          out.data());
        return out[kRows - 1];
      });
      RegisterStringRow("cmp_lit", b, avg, volume, [bytes, offsets]() {
        kernels::StrCmpLit(kernels::CmpOp::kLt, bytes, offsets, 0, kRows,
                           "mmmmmmmm", out.data());
        return out[kRows - 1];
      });
      RegisterStringRow("prefix", b, avg, volume, [bytes, offsets]() {
        kernels::StrPrefix(bytes, offsets, 0, kRows, "ze", out.data());
        return out[kRows - 1];
      });
      RegisterStringRow("contains", b, avg, volume, [bytes, offsets]() {
        kernels::StrContains(bytes, offsets, 0, kRows, "zebra", out.data());
        return out[kRows - 1];
      });
      RegisterStringRow("like_contains", b, avg, volume,
                        [bytes, offsets]() {
                          kernels::StrLikeTile(bytes, offsets, 0, kRows,
                                               contains, out.data());
                          return out[kRows - 1];
                        });
      RegisterStringRow("like_tokens", b, avg, volume, [bytes, offsets]() {
        kernels::StrLikeTile(bytes, offsets, 0, kRows, tokens, out.data());
        return out[kRows - 1];
      });
      const StringColumn& dense = data->ForLen(avg, /*dense=*/true);
      RegisterStringRow(
          "like_contains_dense", b, avg, dense.total_bytes() + kRows,
          [bytes = dense.bytes(), offsets = dense.offsets()]() {
            kernels::StrLikeTile(bytes, offsets, 0, kRows, contains,
                                 out.data());
            return out[kRows - 1];
          });
      RegisterStringRow("like_general", b, avg, volume, [bytes, offsets]() {
        kernels::StrLikeTile(bytes, offsets, 0, kRows, general, out.data());
        return out[kRows - 1];
      });
      RegisterStringRow("hash", b, avg, volume, [bytes, offsets]() {
        kernels::StrHashTile(bytes, offsets, 0, kRows, hashes.data());
        return hashes[kRows - 1];
      });
    }
  }
}

// End-to-end placement rows. The engine re-reads SWOLE_STR_PLACEMENT on
// every Analyze, so forcing it per-row is just setenv around Execute.
void RegisterE2eRows(const MicroData& micro) {
  for (const char* placement : {"push", "pull", "auto"}) {
    for (int64_t sel : {5, 20, 44, 70, 95}) {
      std::string name = StringFormat("strings/e2e/micro_q6/%s/sel:%lld",
                                      placement,
                                      static_cast<long long>(sel));
      bench::PlanPool().push_back(
          std::make_unique<QueryPlan>(MicroQ6(false, sel)));
      bench::EnginePool().push_back(
          MakeStrategy(StrategyKind::kSwole, micro.catalog));
      const QueryPlan* plan = bench::PlanPool().back().get();
      Strategy* engine = bench::EnginePool().back().get();
      benchmark::RegisterBenchmark(
          name.c_str(),
          [plan, engine, placement](benchmark::State& state) {
            setenv("SWOLE_STR_PLACEMENT", placement, 1);
            int64_t checksum = 0;
            for (auto _ : state) {
              Result<QueryResult> result = engine->Execute(*plan);
              result.status().CheckOK();
              checksum ^= result->scalar[0];
              benchmark::DoNotOptimize(checksum);
            }
            unsetenv("SWOLE_STR_PLACEMENT");
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace swole

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  swole::StringBenchData bench_data;
  swole::data = &bench_data;
  swole::RegisterKernelRows();
  swole::MicroConfig config = swole::MicroConfig::FromEnv();
  config.r_rows = std::min<int64_t>(config.r_rows, 500'000);
  std::unique_ptr<swole::MicroData> micro =
      swole::MicroData::Generate(config);
  swole::RegisterE2eRows(*micro);
  benchmark::RunSpecifiedBenchmarks();
  swole::data = nullptr;
  return 0;
}

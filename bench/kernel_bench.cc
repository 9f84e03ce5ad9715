// Per-primitive kernel throughput, scalar vs AVX2, across mask
// selectivities. One row per (primitive, backend, selectivity) —
// `kernels/<primitive>/<backend>/sel:<pct>` — with bytes_per_second set to
// the streamed input+output volume, so rows read directly as GB/s and
// dividing a backend row by its scalar row gives the dispatch speedup.
// Backends the host cannot run (AVX2 without the ISA) are not registered.
//
// Record a baseline with (one command line):
//   ./bench/kernel_bench --benchmark_repetitions=5
//     --benchmark_enable_random_interleaving=true
//     --benchmark_format=json > BENCH_kernels.json

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/kernels.h"
#include "exec/simd.h"

namespace swole {
namespace {

using simd::Backend;
using simd::CmpOp;

constexpr int64_t kLen = 1 << 20;  // 1 Mi lanes per iteration

// One shared input set, generated once. Mask arrays are materialized per
// selectivity so every primitive sees identical bytes.
struct BenchData {
  std::vector<int64_t> a64, b64;
  std::vector<int32_t> a32, b32;
  std::vector<int16_t> a16, b16;
  std::vector<int8_t> a8, b8;
  std::vector<uint8_t> other;            // second mask for And/Or
  std::vector<std::vector<uint8_t>> cmp; // per-selectivity 0/1 masks
  std::vector<int> sels;

  explicit BenchData(std::vector<int> selectivities)
      : sels(std::move(selectivities)) {
    std::mt19937_64 rng(1234);
    std::uniform_int_distribution<int64_t> pct(0, 99);
    a64.resize(kLen);
    b64.resize(kLen);
    a32.resize(kLen);
    b32.resize(kLen);
    a16.resize(kLen);
    b16.resize(kLen);
    a8.resize(kLen);
    b8.resize(kLen);
    other.resize(kLen);
    for (int64_t j = 0; j < kLen; ++j) {
      // Values in [0, 100): CompareLit with lit == sel hits sel% of lanes,
      // and the masked sums cannot overflow.
      int64_t v = pct(rng);
      a64[j] = v;
      b64[j] = pct(rng);
      a32[j] = static_cast<int32_t>(b64[j]);
      b32[j] = static_cast<int32_t>(v);
      a16[j] = static_cast<int16_t>(v);
      b16[j] = static_cast<int16_t>(b64[j]);
      a8[j] = static_cast<int8_t>(v);
      b8[j] = static_cast<int8_t>(b64[j]);
      other[j] = static_cast<uint8_t>(rng() & 1);
    }
    for (int sel : sels) {
      std::vector<uint8_t> m(kLen);
      for (int64_t j = 0; j < kLen; ++j) m[j] = pct(rng) < sel ? 1 : 0;
      cmp.push_back(std::move(m));
    }
  }

  const std::vector<uint8_t>& Mask(int sel) const {
    for (size_t i = 0; i < sels.size(); ++i) {
      if (sels[i] == sel) return cmp[i];
    }
    SWOLE_CHECK(false) << "unknown selectivity " << sel;
    return cmp[0];
  }
};

BenchData* data = nullptr;

// Registers `kernels/<prim>/<backend>/sel:<pct>` running `fn(sel)` with the
// backend pinned for the duration of the row. `bytes` is the per-iteration
// streamed volume for the GB/s counter.
template <typename Fn>
void RegisterKernelRow(const std::string& prim, Backend backend, int sel,
                       int64_t bytes, Fn fn) {
  std::string name = StringFormat("kernels/%s/%s/sel:%d", prim.c_str(),
                                  simd::BackendName(backend), sel);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [backend, sel, bytes, fn](benchmark::State& state) {
        Backend prev = simd::ActiveBackend();
        simd::SetBackend(backend);
        for (auto _ : state) {
          benchmark::DoNotOptimize(fn(sel));
        }
        state.SetBytesProcessed(state.iterations() * bytes);
        simd::SetBackend(prev);
      });
}

// Width-sweep rows: `kernels/<prim>/<backend>/w:<bits>` at a fixed 50%
// mask, with the streamed volume at the column's physical width.
template <typename Fn>
void RegisterWidthRow(const std::string& prim, Backend backend, int bits,
                      int64_t bytes, Fn fn) {
  std::string name = StringFormat("kernels/%s/%s/w:%d", prim.c_str(),
                                  simd::BackendName(backend), bits);
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

template <typename T>
void RegisterWidthRows(Backend b, const std::vector<T>& a,
                       const std::vector<T>& bcol, std::vector<uint8_t>* out,
                       std::vector<int64_t>* tmp) {
  const int bits = static_cast<int>(sizeof(T)) * 8;
  const int64_t w = static_cast<int64_t>(sizeof(T));
  RegisterWidthRow("compare_lit", b, bits, kLen * (w + 1), [&a, out]() {
    kernels::CompareLit<T>(CmpOp::kLt, a.data(), 50, out->data(), kLen);
    return (*out)[kLen - 1];
  });
  RegisterWidthRow("sum_masked", b, bits, kLen * (w + 1), [&a]() {
    return kernels::SumMasked<T>(a.data(), data->Mask(50).data(), kLen);
  });
  RegisterWidthRow("sum_product_masked", b, bits, kLen * (2 * w + 1),
                   [&a, &bcol]() {
                     return kernels::SumProductMasked<T, T>(
                         a.data(), bcol.data(), data->Mask(50).data(), kLen);
                   });
  RegisterWidthRow("mask_into_tmp", b, bits, kLen * (w + 1 + 8), [&a, tmp]() {
    kernels::MaskIntoTmp<T>(a.data(), data->Mask(50).data(), kLen,
                            tmp->data());
    return (*tmp)[kLen - 1];
  });
}

void RegisterAll() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (simd::CpuHasAvx2()) backends.push_back(Backend::kAvx2);
  static std::vector<uint8_t> out(kLen);
  static std::vector<int64_t> tmp(kLen);
  static std::vector<int32_t> idx(kLen + 8);

  for (Backend b : backends) {
    for (int sel : data->sels) {
      RegisterKernelRow("compare_lit_i64", b, sel, kLen * 9, [](int s) {
        kernels::CompareLit<int64_t>(CmpOp::kLt, data->a64.data(), s,
                                     out.data(), kLen);
        return out[kLen - 1];
      });
      RegisterKernelRow("compare_lit_i32", b, sel, kLen * 5, [](int s) {
        kernels::CompareLit<int32_t>(CmpOp::kLt, data->a32.data(), s,
                                     out.data(), kLen);
        return out[kLen - 1];
      });
      RegisterKernelRow("compare_eq_i8", b, sel, kLen * 2, [](int s) {
        kernels::CompareLit<int8_t>(CmpOp::kEq, data->a8.data(), s % 100,
                                    out.data(), kLen);
        return out[kLen - 1];
      });
      RegisterKernelRow("and_bytes", b, sel, kLen * 3, [](int s) {
        std::memcpy(out.data(), data->Mask(s).data(), kLen);
        kernels::AndBytes(out.data(), data->other.data(), kLen);
        return out[kLen - 1];
      });
      RegisterKernelRow("count_bytes", b, sel, kLen, [](int s) {
        return kernels::CountBytes(data->Mask(s).data(), kLen);
      });
      RegisterKernelRow("sum_masked_i64", b, sel, kLen * 9, [](int s) {
        return kernels::SumMasked<int64_t>(data->a64.data(),
                                           data->Mask(s).data(), kLen);
      });
      RegisterKernelRow("sum_product_masked_i32", b, sel, kLen * 9,
                        [](int s) {
                          return kernels::SumProductMasked<int32_t, int32_t>(
                              data->a32.data(), data->b32.data(),
                              data->Mask(s).data(), kLen);
                        });
      RegisterKernelRow("mask_into_tmp_i64", b, sel, kLen * 17, [](int s) {
        kernels::MaskIntoTmp<int64_t>(data->a64.data(),
                                      data->Mask(s).data(), kLen,
                                      tmp.data());
        return tmp[kLen - 1];
      });
      RegisterKernelRow("selvec_nobranch", b, sel, kLen, [](int s) {
        return kernels::SelVecFromCmpNoBranch(data->Mask(s).data(), kLen,
                                              idx.data());
      });
      RegisterKernelRow("selvec_lut", b, sel, kLen, [](int s) {
        return kernels::SelVecFromCmpLut(data->Mask(s).data(), kLen,
                                         idx.data());
      });
    }

    RegisterWidthRows<int8_t>(b, data->a8, data->b8, &out, &tmp);
    RegisterWidthRows<int16_t>(b, data->a16, data->b16, &out, &tmp);
    RegisterWidthRows<int32_t>(b, data->a32, data->b32, &out, &tmp);
    RegisterWidthRows<int64_t>(b, data->a64, data->b64, &out, &tmp);
  }
}

}  // namespace
}  // namespace swole

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  swole::BenchData bench_data({10, 50, 90});
  swole::data = &bench_data;
  swole::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  swole::data = nullptr;
  return 0;
}

// Differential tests for the explicit SIMD backends (exec/simd.h): for
// every primitive, every backend the host supports must produce
// byte-identical results — across tile lengths that are not multiples of
// any vector width, empty tiles, all-0 and all-1 masks, and
// INT64_MIN/INT64_MAX extreme values. Primitives whose scalar loop is
// shaped for auto-vectorization (compares, byte ops, CountBytes) are
// checked on every tier against a plain per-lane loop written here; the
// rest diff every tier against the scalar backend. A final set of
// query-level checks runs every strategy engine under every backend at
// 1/2/8 threads against the reference oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "engine/reference_engine.h"
#include "exec/hash_table.h"
#include "exec/kernels.h"
#include "exec/simd.h"
#include "micro/micro.h"
#include "strategies/strategy.h"

namespace swole {
namespace {

using simd::Backend;
using simd::CmpOp;

// Lengths chosen to straddle the 8-byte word and the AVX2 vector (4/8/16/32
// lanes) boundaries, the scalar CountBytes block (255), plus empty and odd
// tails.
const int64_t kLens[] = {0,  1,  3,  7,  8,   9,   15,  16,   17,  31,
                         32, 33, 63, 64, 100, 255, 256, 1000, 1024, 1027};

const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                      CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};

// Restores the dispatched backend when a test scope exits.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::SetBackend(saved_); }

 private:
  Backend saved_;
};

// The backends this host can actually run (requests for unsupported tiers
// clamp down in SetBackend, which would silently test a tier twice).
std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (simd::CpuHasAvx2()) backends.push_back(Backend::kAvx2);
  return backends;
}

// Non-scalar backends to diff against the scalar reference.
std::vector<Backend> AltBackends() {
  std::vector<Backend> backends = SupportedBackends();
  backends.erase(backends.begin());
  return backends;
}

template <typename T>
std::vector<T> RandomValues(std::mt19937_64* rng, int64_t len,
                            bool extremes) {
  std::uniform_int_distribution<int64_t> dist(
      std::numeric_limits<T>::min(), std::numeric_limits<T>::max());
  std::vector<T> v(static_cast<size_t>(len) + 1);  // +1: len 0 stays valid
  for (int64_t j = 0; j < len; ++j) {
    v[j] = static_cast<T>(dist(*rng));
  }
  if (extremes && len >= 2) {
    v[0] = std::numeric_limits<T>::min();
    v[1] = std::numeric_limits<T>::max();
  }
  return v;
}

// kind: 0 = random 0/1, 1 = all zeros, 2 = all ones.
std::vector<uint8_t> MaskBytes(std::mt19937_64* rng, int64_t len, int kind) {
  std::vector<uint8_t> m(static_cast<size_t>(len) + 1);
  for (int64_t j = 0; j < len; ++j) {
    m[j] = kind == 2 ? 1 : (kind == 0 ? static_cast<uint8_t>((*rng)() & 1)
                                      : 0);
  }
  return m;
}

// Per-lane int64 reference for the compare sweeps.
bool RefCmp(CmpOp op, int64_t lhs, int64_t rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

template <typename T>
void CheckCompareLit() {
  std::mt19937_64 rng(42);
  constexpr int64_t kMin = std::numeric_limits<T>::min();
  constexpr int64_t kMax = std::numeric_limits<T>::max();
  for (int64_t len : kLens) {
    std::vector<T> col = RandomValues<T>(&rng, len, /*extremes=*/true);
    // In-range, boundary, and (for narrow types) out-of-range literals —
    // the latter exercise the constant-result precheck, including the
    // first values past each end of the width.
    std::vector<int64_t> lits = {len > 0 ? static_cast<int64_t>(col[len / 2])
                                         : 0,
                                 kMin, kMax,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
    if constexpr (sizeof(T) < 8) {
      lits.push_back(kMin - 1);
      lits.push_back(kMax + 1);
    }
    for (CmpOp op : kOps) {
      for (int64_t lit : lits) {
        for (Backend b : SupportedBackends()) {
          std::vector<uint8_t> got(static_cast<size_t>(len) + 1, 0xCD);
          simd::SetBackend(b);
          simd::CompareLit<T>(op, col.data(), lit, got.data(), len);
          for (int64_t j = 0; j < len; ++j) {
            ASSERT_EQ(got[j], RefCmp(op, col[j], lit) ? 1 : 0)
                << simd::BackendName(b) << " op " << static_cast<int>(op)
                << " lit " << lit << " len " << len << " lane " << j;
          }
        }
      }
    }
  }
}

TEST(SimdCompareLit, Int8) { BackendGuard g; CheckCompareLit<int8_t>(); }
TEST(SimdCompareLit, Int16) { BackendGuard g; CheckCompareLit<int16_t>(); }
TEST(SimdCompareLit, Int32) { BackendGuard g; CheckCompareLit<int32_t>(); }
TEST(SimdCompareLit, Int64) { BackendGuard g; CheckCompareLit<int64_t>(); }

template <typename T>
void CheckCompareCol() {
  std::mt19937_64 rng(43);
  for (int64_t len : kLens) {
    std::vector<T> lhs = RandomValues<T>(&rng, len, /*extremes=*/true);
    std::vector<T> rhs = RandomValues<T>(&rng, len, /*extremes=*/false);
    // Force some equal lanes so kEq/kNe see both outcomes.
    for (int64_t j = 0; j < len; j += 3) rhs[j] = lhs[j];
    if (len >= 2) {  // extreme-vs-extreme lanes
      rhs[0] = std::numeric_limits<T>::max();
      rhs[1] = std::numeric_limits<T>::min();
    }
    for (CmpOp op : kOps) {
      for (Backend b : SupportedBackends()) {
        std::vector<uint8_t> got(static_cast<size_t>(len) + 1, 0xCD);
        simd::SetBackend(b);
        simd::CompareCol<T>(op, lhs.data(), rhs.data(), got.data(), len);
        for (int64_t j = 0; j < len; ++j) {
          ASSERT_EQ(got[j], RefCmp(op, lhs[j], rhs[j]) ? 1 : 0)
              << simd::BackendName(b) << " op " << static_cast<int>(op)
              << " len " << len << " lane " << j;
        }
      }
    }
  }
}

TEST(SimdCompareCol, Int8) { BackendGuard g; CheckCompareCol<int8_t>(); }
TEST(SimdCompareCol, Int16) { BackendGuard g; CheckCompareCol<int16_t>(); }
TEST(SimdCompareCol, Int32) { BackendGuard g; CheckCompareCol<int32_t>(); }
TEST(SimdCompareCol, Int64) { BackendGuard g; CheckCompareCol<int64_t>(); }

TEST(SimdByteOps, AndOrNotCountMatchScalar) {
  BackendGuard guard;
  std::mt19937_64 rng(44);
  for (int64_t len : kLens) {
    for (int kind_a = 0; kind_a < 3; ++kind_a) {
      for (int kind_b = 0; kind_b < 3; ++kind_b) {
        std::vector<uint8_t> a = MaskBytes(&rng, len, kind_a);
        std::vector<uint8_t> b = MaskBytes(&rng, len, kind_b);

        std::vector<uint8_t> and_ref = a;
        std::vector<uint8_t> or_ref = a;
        std::vector<uint8_t> not_ref = a;
        for (int64_t j = 0; j < len; ++j) {
          and_ref[j] = a[j] & b[j];
          or_ref[j] = a[j] | b[j];
          not_ref[j] = 1 - a[j];
        }
        const int64_t count_ref = std::count(a.begin(), a.begin() + len, 1);

        for (Backend back : SupportedBackends()) {
          simd::SetBackend(back);
          std::vector<uint8_t> and_got = a;
          simd::AndBytes(and_got.data(), b.data(), len);
          std::vector<uint8_t> or_got = a;
          simd::OrBytes(or_got.data(), b.data(), len);
          std::vector<uint8_t> not_got = a;
          simd::NotBytes(not_got.data(), len);
          EXPECT_EQ(and_got, and_ref) << simd::BackendName(back) << " len "
                                      << len;
          EXPECT_EQ(or_got, or_ref) << simd::BackendName(back) << " len "
                                    << len;
          EXPECT_EQ(not_got, not_ref) << simd::BackendName(back) << " len "
                                      << len;
          EXPECT_EQ(simd::CountBytes(a.data(), len), count_ref)
              << simd::BackendName(back) << " len " << len;
        }
      }
    }
  }
}

template <typename T>
void CheckMaskedSums() {
  std::mt19937_64 rng(45);
  // Values stay small so the int64 sums cannot overflow; lane-reordering
  // bit-exactness under actual wrap-around is covered by the full-range
  // compare tests plus the associativity of two's-complement addition.
  std::uniform_int_distribution<int64_t> dist(-100, 100);
  for (int64_t len : kLens) {
    std::vector<T> a(static_cast<size_t>(len) + 1);
    std::vector<T> b(static_cast<size_t>(len) + 1);
    for (int64_t j = 0; j < len; ++j) {
      a[j] = static_cast<T>(dist(rng));
      b[j] = static_cast<T>(dist(rng));
    }
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<uint8_t> cmp = MaskBytes(&rng, len, kind);

      simd::SetBackend(Backend::kScalar);
      int64_t sum_ref = simd::SumMasked<T>(a.data(), cmp.data(), len);
      int64_t prod_ref =
          simd::SumProductMasked<T, T>(a.data(), b.data(), cmp.data(), len);
      std::vector<int64_t> tmp_ref(static_cast<size_t>(len) + 1, -7);
      simd::MaskIntoTmp<T>(a.data(), cmp.data(), len, tmp_ref.data());

      for (Backend back : AltBackends()) {
        simd::SetBackend(back);
        int64_t sum_got = simd::SumMasked<T>(a.data(), cmp.data(), len);
        int64_t prod_got =
            simd::SumProductMasked<T, T>(a.data(), b.data(), cmp.data(), len);
        EXPECT_EQ(sum_got, sum_ref)
            << simd::BackendName(back) << " len " << len << " kind " << kind;
        EXPECT_EQ(prod_got, prod_ref)
            << simd::BackendName(back) << " len " << len << " kind " << kind;
        std::vector<int64_t> tmp_got(static_cast<size_t>(len) + 1, -9);
        simd::MaskIntoTmp<T>(a.data(), cmp.data(), len, tmp_got.data());
        for (int64_t j = 0; j < len; ++j) {
          ASSERT_EQ(tmp_got[j], tmp_ref[j])
              << simd::BackendName(back) << " len " << len << " lane " << j;
        }
      }
    }
  }
}

TEST(SimdMaskedSums, Int8) { BackendGuard g; CheckMaskedSums<int8_t>(); }
TEST(SimdMaskedSums, Int16) { BackendGuard g; CheckMaskedSums<int16_t>(); }
TEST(SimdMaskedSums, Int32) { BackendGuard g; CheckMaskedSums<int32_t>(); }
TEST(SimdMaskedSums, Int64) { BackendGuard g; CheckMaskedSums<int64_t>(); }

// Full-range values incl. the width's own min/max in every lane position —
// the narrow-lane vector paths must widen before any intermediate can wrap.
// Lengths/widths are chosen so the final int64 sums stay in range (the sums
// themselves overflowing would be UB in the scalar reference too).
template <typename T>
void CheckMaskedSumExtremes(bool products) {
  std::mt19937_64 rng(51);
  for (int64_t len : kLens) {
    std::vector<T> a = RandomValues<T>(&rng, len, /*extremes=*/true);
    std::vector<T> b = RandomValues<T>(&rng, len, /*extremes=*/true);
    if (len >= 4) {  // min*min and min*max lanes
      b[0] = std::numeric_limits<T>::min();
      b[1] = std::numeric_limits<T>::max();
      a[2] = std::numeric_limits<T>::min();
      a[3] = std::numeric_limits<T>::max();
    }
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<uint8_t> cmp = MaskBytes(&rng, len, kind);
      simd::SetBackend(Backend::kScalar);
      int64_t sum_ref = simd::SumMasked<T>(a.data(), cmp.data(), len);
      int64_t prod_ref =
          products
              ? simd::SumProductMasked<T, T>(a.data(), b.data(), cmp.data(),
                                             len)
              : 0;
      std::vector<int64_t> tmp_ref(static_cast<size_t>(len) + 1, -7);
      simd::MaskIntoTmp<T>(a.data(), cmp.data(), len, tmp_ref.data());
      for (Backend back : AltBackends()) {
        simd::SetBackend(back);
        EXPECT_EQ(simd::SumMasked<T>(a.data(), cmp.data(), len), sum_ref)
            << simd::BackendName(back) << " len " << len << " kind " << kind;
        if (products) {
          EXPECT_EQ((simd::SumProductMasked<T, T>(a.data(), b.data(),
                                                  cmp.data(), len)),
                    prod_ref)
              << simd::BackendName(back) << " len " << len << " kind "
              << kind;
        }
        std::vector<int64_t> tmp_got(static_cast<size_t>(len) + 1, -9);
        simd::MaskIntoTmp<T>(a.data(), cmp.data(), len, tmp_got.data());
        for (int64_t j = 0; j < len; ++j) {
          ASSERT_EQ(tmp_got[j], tmp_ref[j])
              << simd::BackendName(back) << " len " << len << " lane " << j;
        }
      }
    }
  }
}

// int32 products of two extremes ((-2^31)^2 = 2^62) overflow int64 with
// just two masked lanes, so the product leg runs only where a full tile of
// extreme products still fits in the int64 accumulator.
TEST(SimdMaskedSumExtremes, Int8) {
  BackendGuard g;
  CheckMaskedSumExtremes<int8_t>(/*products=*/true);
}
TEST(SimdMaskedSumExtremes, Int16) {
  BackendGuard g;
  CheckMaskedSumExtremes<int16_t>(/*products=*/true);
}
TEST(SimdMaskedSumExtremes, Int32) {
  BackendGuard g;
  CheckMaskedSumExtremes<int32_t>(/*products=*/false);
}

// Lengths past the AVX2 32-bit-partial fold boundaries: the int16 masked
// sum folds its i32 partials into i64 every 2^14 vector iterations (2^18
// lanes) and the int8 product path every 2^15 iterations (2^19 lanes). A
// tile of all-min values maximizes partial magnitude, so an off-by-one in
// the fold bound shows up as a wrapped partial, not a rounding blur.
TEST(SimdMaskedSums, FoldBoundaryInt16Sum) {
  BackendGuard g;
  const int64_t len = (int64_t{1} << 18) + 1027;
  std::vector<int16_t> a(len, std::numeric_limits<int16_t>::min());
  std::vector<uint8_t> cmp(len, 1);
  simd::SetBackend(Backend::kScalar);
  int64_t ref = simd::SumMasked<int16_t>(a.data(), cmp.data(), len);
  EXPECT_EQ(ref, len * int64_t{std::numeric_limits<int16_t>::min()});
  for (Backend back : AltBackends()) {
    simd::SetBackend(back);
    EXPECT_EQ(simd::SumMasked<int16_t>(a.data(), cmp.data(), len), ref)
        << simd::BackendName(back);
  }
}

TEST(SimdMaskedSums, FoldBoundaryInt8Sum) {
  BackendGuard g;
  // The int8 masked sum folds every 2^20 iterations of 32 lanes (2^25
  // lanes); ~34M constant-min lanes cross that bound once.
  const int64_t len = (int64_t{1} << 25) + 1027;
  std::vector<int8_t> a(len, std::numeric_limits<int8_t>::min());
  std::vector<uint8_t> cmp(len, 1);
  simd::SetBackend(Backend::kScalar);
  int64_t ref = simd::SumMasked<int8_t>(a.data(), cmp.data(), len);
  EXPECT_EQ(ref, len * int64_t{-128});
  for (Backend back : AltBackends()) {
    simd::SetBackend(back);
    EXPECT_EQ(simd::SumMasked<int8_t>(a.data(), cmp.data(), len), ref)
        << simd::BackendName(back);
  }
}

TEST(SimdMaskedSums, FoldBoundaryInt8Product) {
  BackendGuard g;
  const int64_t len = (int64_t{1} << 19) + 1027;
  std::vector<int8_t> a(len, std::numeric_limits<int8_t>::min());
  std::vector<int8_t> b(len, std::numeric_limits<int8_t>::min());
  std::vector<uint8_t> cmp(len, 1);
  simd::SetBackend(Backend::kScalar);
  int64_t ref =
      simd::SumProductMasked<int8_t, int8_t>(a.data(), b.data(), cmp.data(),
                                             len);
  EXPECT_EQ(ref, len * int64_t{128 * 128});
  for (Backend back : AltBackends()) {
    simd::SetBackend(back);
    EXPECT_EQ((simd::SumProductMasked<int8_t, int8_t>(a.data(), b.data(),
                                                      cmp.data(), len)),
              ref)
        << simd::BackendName(back);
  }
}

template <typename T>
void CheckCompareLitMaskIntoTmp() {
  std::mt19937_64 rng(46);
  for (int64_t len : kLens) {
    std::vector<T> col = RandomValues<T>(&rng, len, /*extremes=*/true);
    const int64_t lits[] = {len > 0 ? static_cast<int64_t>(col[len / 2]) : 0,
                            0, std::numeric_limits<int64_t>::max()};
    for (CmpOp op : kOps) {
      for (int64_t lit : lits) {
        simd::SetBackend(Backend::kScalar);
        std::vector<int64_t> ref(static_cast<size_t>(len) + 1, -7);
        simd::CompareLitMaskIntoTmp<T>(op, col.data(), lit, len, ref.data());
        for (Backend back : AltBackends()) {
          simd::SetBackend(back);
          std::vector<int64_t> got(static_cast<size_t>(len) + 1, -9);
          simd::CompareLitMaskIntoTmp<T>(op, col.data(), lit, len,
                                         got.data());
          for (int64_t j = 0; j < len; ++j) {
            ASSERT_EQ(got[j], ref[j])
                << simd::BackendName(back) << " op " << static_cast<int>(op)
                << " lit " << lit << " len " << len << " lane " << j;
          }
        }
      }
    }
  }
}

TEST(SimdCompareLitMaskIntoTmp, Int8) {
  BackendGuard g;
  CheckCompareLitMaskIntoTmp<int8_t>();
}
TEST(SimdCompareLitMaskIntoTmp, Int16) {
  BackendGuard g;
  CheckCompareLitMaskIntoTmp<int16_t>();
}
TEST(SimdCompareLitMaskIntoTmp, Int32) {
  BackendGuard g;
  CheckCompareLitMaskIntoTmp<int32_t>();
}
TEST(SimdCompareLitMaskIntoTmp, Int64) {
  BackendGuard g;
  CheckCompareLitMaskIntoTmp<int64_t>();
}

template <typename T>
void CheckMaskKeys() {
  std::mt19937_64 rng(47);
  const int64_t null_key = HashTable::kMaskKey;
  for (int64_t len : kLens) {
    std::vector<T> col = RandomValues<T>(&rng, len, /*extremes=*/true);
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<uint8_t> cmp = MaskBytes(&rng, len, kind);
      simd::SetBackend(Backend::kScalar);
      std::vector<int64_t> ref(static_cast<size_t>(len) + 1, -7);
      simd::MaskKeys<T>(col.data(), cmp.data(), null_key, len, ref.data());
      for (Backend back : AltBackends()) {
        simd::SetBackend(back);
        std::vector<int64_t> got(static_cast<size_t>(len) + 1, -9);
        simd::MaskKeys<T>(col.data(), cmp.data(), null_key, len, got.data());
        for (int64_t j = 0; j < len; ++j) {
          ASSERT_EQ(got[j], ref[j])
              << simd::BackendName(back) << " len " << len << " kind "
              << kind << " lane " << j;
        }
      }
    }
  }
}

TEST(SimdMaskKeys, Int8) { BackendGuard g; CheckMaskKeys<int8_t>(); }
TEST(SimdMaskKeys, Int16) { BackendGuard g; CheckMaskKeys<int16_t>(); }
TEST(SimdMaskKeys, Int32) { BackendGuard g; CheckMaskKeys<int32_t>(); }
TEST(SimdMaskKeys, Int64) { BackendGuard g; CheckMaskKeys<int64_t>(); }

TEST(SimdSelVec, AllBackendsAndFlavorsMatch) {
  BackendGuard guard;
  std::mt19937_64 rng(48);
  // Densities sweep selection-vector pressure; kinds 1/2 are the all-0 and
  // all-1 masks. Every length with len % 8 != 0 exercises the LUT and
  // movemask tails.
  const double densities[] = {0.0, 0.01, 0.33, 0.5, 0.97, 1.0};
  for (int64_t len : kLens) {
    for (double density : densities) {
      std::vector<uint8_t> cmp(static_cast<size_t>(len) + 1, 0);
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      for (int64_t j = 0; j < len; ++j) {
        cmp[j] = coin(rng) < density ? 1 : 0;
      }

      // Reference: the branching construction, backend-independent.
      std::vector<int32_t> ref;
      for (int64_t j = 0; j < len; ++j) {
        if (cmp[j]) ref.push_back(static_cast<int32_t>(j));
      }

      for (Backend back : SupportedBackends()) {
        simd::SetBackend(back);
        for (simd::SelFlavor flavor :
             {simd::SelFlavor::kNoBranch, simd::SelFlavor::kLut}) {
          // Slack past the tile: the AVX2 tier and the scalar LUT store
          // 8-wide unconditionally but must never write at or past
          // idx[len].
          std::vector<int32_t> idx(static_cast<size_t>(len) + 8, -1);
          int32_t n = simd::SelVecFromCmp(cmp.data(), len, idx.data(),
                                          flavor);
          ASSERT_EQ(n, static_cast<int32_t>(ref.size()))
              << simd::BackendName(back) << " len " << len << " density "
              << density;
          for (int32_t k = 0; k < n; ++k) {
            ASSERT_EQ(idx[k], ref[k])
                << simd::BackendName(back) << " len " << len << " slot "
                << k;
          }
          for (int64_t k = len; k < len + 8; ++k) {
            ASSERT_EQ(idx[k], -1)
                << simd::BackendName(back) << " len " << len << " slot "
                << k;
          }
        }
      }
    }
  }
}

TEST(SimdSelVec, KernelsLutEntryPointHandlesRaggedTails) {
  BackendGuard guard;
  // The kernels.cc wrapper (ROF's LUT flavor) on lengths with len % 8 != 0,
  // under every backend.
  std::mt19937_64 rng(49);
  for (int64_t len : {1, 7, 9, 23, 1017, 1023, 1025}) {
    std::vector<uint8_t> cmp(static_cast<size_t>(len), 0);
    for (int64_t j = 0; j < len; ++j) cmp[j] = rng() & 1;
    std::vector<int32_t> ref;
    for (int64_t j = 0; j < len; ++j) {
      if (cmp[j]) ref.push_back(static_cast<int32_t>(j));
    }
    for (Backend back : SupportedBackends()) {
      simd::SetBackend(back);
      std::vector<int32_t> idx(static_cast<size_t>(len) + 8, -1);
      int32_t n = kernels::SelVecFromCmpLut(cmp.data(), len, idx.data());
      ASSERT_EQ(n, static_cast<int32_t>(ref.size()))
          << simd::BackendName(back) << " len " << len;
      for (int32_t k = 0; k < n; ++k) ASSERT_EQ(idx[k], ref[k]);
    }
  }
}

TEST(SimdDispatch, UnsupportedRequestsClampDown) {
  BackendGuard guard;
  Backend got = simd::SetBackend(Backend::kAvx2);
  if (simd::CpuHasAvx2()) {
    EXPECT_EQ(got, Backend::kAvx2);
  } else {
    EXPECT_EQ(got, Backend::kScalar);
  }
  EXPECT_EQ(simd::ActiveBackend(), got);
  EXPECT_EQ(simd::SetBackend(Backend::kScalar), Backend::kScalar);
  EXPECT_STREQ(simd::BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::BackendName(Backend::kAvx2), "avx2");
}

// ---- Query-level cross-backend bit-exactness ----
//
// Every strategy engine, under every backend, at 1/2/8 threads, must
// reproduce the reference oracle's results (the oracle itself runs under
// the scalar backend).

class SimdQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 20'001;  // several tiles; not a multiple of 1024
    config.s_small_rows = 100;
    config.s_large_rows = 3'000;
    config.c_cardinalities = {10, 97};
    config.seed = 11;
    data_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static void CheckAcrossBackends(const QueryPlan& plan) {
    BackendGuard guard;
    simd::SetBackend(Backend::kScalar);
    ReferenceEngine oracle(data_->catalog);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    for (Backend back : SupportedBackends()) {
      simd::SetBackend(back);
      for (int threads : {1, 2, 8}) {
        for (StrategyKind kind :
             {StrategyKind::kDataCentric, StrategyKind::kHybrid,
              StrategyKind::kRof, StrategyKind::kSwole}) {
          StrategyOptions options;
          options.tile_size = 1024;
          options.num_threads = threads;
          std::unique_ptr<Strategy> engine =
              MakeStrategy(kind, data_->catalog, options);
          Result<QueryResult> actual = engine->Execute(plan);
          ASSERT_TRUE(actual.ok())
              << engine->name() << ": " << actual.status().ToString();
          EXPECT_EQ(*actual, *expected)
              << engine->name() << " under " << simd::BackendName(back)
              << " at " << threads << " threads diverges on " << plan.name;
        }
      }
    }
  }

  static MicroData* data_;
};

MicroData* SimdQueryTest::data_ = nullptr;

TEST_F(SimdQueryTest, ScalarAggregation) {
  CheckAcrossBackends(MicroQ1(false, 37));
}

TEST_F(SimdQueryTest, GroupByAggregation) {
  CheckAcrossBackends(MicroQ2(data_->c_columns[1], data_->c_actual[1], 45));
}

TEST_F(SimdQueryTest, FkJoin) { CheckAcrossBackends(MicroQ4(true, 60, 40)); }

TEST_F(SimdQueryTest, Groupjoin) {
  CheckAcrossBackends(MicroQ5(false, 50, 100));
}

}  // namespace
}  // namespace swole

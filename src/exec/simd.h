#ifndef SWOLE_EXEC_SIMD_H_
#define SWOLE_EXEC_SIMD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/macros.h"

// Explicitly vectorized backends for the hot primitive kernels, behind
// runtime CPU dispatch. Two tiers:
//
//  * kScalar — the plain loops the paper describes, written so the compiler
//    auto-vectorizes them at the baseline ISA. This is the reference
//    semantics and the fallback on every host without AVX2.
//  * kAvx2   — 256-bit intrinsics compiled via per-function
//    `__attribute__((target("avx2")))`, so the translation unit itself
//    needs no -march flags and the binary stays portable.
//
// The backend is selected once, on first use, from CPUID
// (__builtin_cpu_supports) with an `SWOLE_SIMD=avx2|scalar` env override
// for A/B measurement; SetBackend() re-pins it programmatically (tests,
// benches). A request for AVX2 on a host without it clamps down to scalar.
//
// Bit-exactness contract: for every primitive and every input the two
// backends return byte-identical results. Mask (`cmp`) arrays hold 0/1
// bytes — the library-wide convention (kernels.h) — and both tiers rely on
// it where noted. All integer arithmetic is two's-complement wrap, and
// int64 addition is associative, so lane-reordered reductions are still
// bit-exact; combined with the engines' worker-order merges, query results
// are identical across backends at every thread count.
//
// This header is self-contained (no .cc file) so that JIT-generated
// translation units — which include exec/kernels.h and link nothing but
// common/logging.cc — get the same dispatched primitives as the host
// engines, and the generated source stays backend-agnostic (stable cache
// keys).

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SWOLE_SIMD_X86 1
#include <immintrin.h>
#define SWOLE_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define SWOLE_SIMD_X86 0
#define SWOLE_TARGET_AVX2
#endif

// GCC's aggressive loop optimizer flags the scalar tail loops below with
// "iteration ~2^61 invokes undefined behavior": the pointer arithmetic
// would overflow if `len` approached INT64_MAX. Lane counts are bounded by
// the address space (a 2^48-lane column is already 2 PiB) so those
// iterations are unreachable, but GCC 12 keeps warning even with an
// explicit `__builtin_unreachable()` range assertion on `len`, so the
// diagnostic is silenced for this header instead.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Waggressive-loop-optimizations"
#endif

namespace swole::simd {

enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

enum class Backend : uint8_t { kScalar = 0, kAvx2 = 1 };

inline const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "?";
}

inline bool CpuHasAvx2() {
#if SWOLE_SIMD_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

namespace detail {

template <CmpOp op, typename T>
SWOLE_ALWAYS_INLINE bool Cmp(T lhs, T rhs) {
  if constexpr (op == CmpOp::kLt) return lhs < rhs;
  if constexpr (op == CmpOp::kLe) return lhs <= rhs;
  if constexpr (op == CmpOp::kGt) return lhs > rhs;
  if constexpr (op == CmpOp::kGe) return lhs >= rhs;
  if constexpr (op == CmpOp::kEq) return lhs == rhs;
  if constexpr (op == CmpOp::kNe) return lhs != rhs;
}

/// Decomposes the six comparison ops into {use equality, swap operands,
/// invert result} over the two vector-native predicates (eq, signed gt).
struct OpShape {
  bool eq;
  bool swap;
  bool invert;
};

SWOLE_ALWAYS_INLINE OpShape ShapeOf(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return {true, false, false};
    case CmpOp::kNe:
      return {true, false, true};
    case CmpOp::kGt:
      return {false, false, false};
    case CmpOp::kLe:
      return {false, false, true};
    case CmpOp::kLt:
      return {false, true, false};
    case CmpOp::kGe:
      return {false, true, true};
  }
  return {true, false, false};
}

/// Result of `col[j] OP lit` when `lit` does not fit in the column's
/// physical type: constant over the whole tile.
SWOLE_ALWAYS_INLINE uint8_t OutOfRangeResult(CmpOp op, bool lit_above_max) {
  switch (op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      return lit_above_max ? 1 : 0;
    case CmpOp::kGt:
    case CmpOp::kGe:
      return lit_above_max ? 0 : 1;
    case CmpOp::kEq:
      return 0;
    case CmpOp::kNe:
      return 1;
  }
  return 0;
}

/// Expands an 8-bit mask into a u64 whose byte j is bit j (0 or 1).
constexpr std::array<uint64_t, 256> BuildBitToByte() {
  std::array<uint64_t, 256> t{};
  for (uint32_t m = 0; m < 256; ++m) {
    uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      if (m & (1u << b)) w |= uint64_t{1} << (8 * b);
    }
    t[m] = w;
  }
  return t;
}
inline constexpr std::array<uint64_t, 256> kBitToByte = BuildBitToByte();

/// Positions-per-mask tables (Data Blocks [32] / ROF [5]): row m lists the
/// set-bit positions of m in ascending order, padded to 8 so a full-width
/// vector store is always legal. kSelCnt is the matching count (avoids a
/// POPCNT dependency inside target("avx2") code).
struct SelPosTables {
  alignas(32) int32_t pos[256][8];
  uint8_t cnt[256];
};

constexpr SelPosTables BuildSelPos() {
  SelPosTables t{};
  for (int m = 0; m < 256; ++m) {
    uint8_t n = 0;
    for (int b = 0; b < 8; ++b) {
      if (m & (1 << b)) t.pos[m][n++] = b;
    }
    t.cnt[m] = n;
    for (int k = n; k < 8; ++k) t.pos[m][k] = 0;
  }
  return t;
}
inline constexpr SelPosTables kSelPos = BuildSelPos();

SWOLE_ALWAYS_INLINE uint64_t LoadWord(const void* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);  // byte j of memory is always bits 8j..8j+7
  }
  return w;
}

SWOLE_ALWAYS_INLINE void StoreWord(void* p, uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, 8);
}

/// Packs 8 mask bytes (0/1) into an 8-bit mask, bit j = byte j, with one
/// multiply: byte j of the word times byte 7-j of the constant lands on
/// bit 56+j, and every other partial product sits below bit 56 on its own
/// bit or overflows past bit 63, so nothing carries into the top byte.
SWOLE_ALWAYS_INLINE uint32_t PackMask8(const uint8_t* cmp) {
  return static_cast<uint32_t>((LoadWord(cmp) * 0x0102040810204080ULL) >>
                               56);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Scalar backend: the reference loops and the portable fallback. The AVX2
// backend's semantics are defined as "byte-identical to these".
// ---------------------------------------------------------------------------

namespace scalar {

// The compares run at the column's physical width: T-vs-T lanes are one
// packed compare per vector at the baseline ISA, where widening every lane
// to int64 first kept the loop from vectorizing at narrow widths.
template <typename T, CmpOp op>
void CompareLitT(const T* SWOLE_RESTRICT col, T lit,
                 uint8_t* SWOLE_RESTRICT out, int64_t len) {
  for (int64_t j = 0; j < len; ++j) {
    out[j] = detail::Cmp<op>(col[j], lit) ? 1 : 0;
  }
}

template <typename T>
void CompareLit(CmpOp op, const T* col, int64_t lit, uint8_t* out,
                int64_t len) {
  if constexpr (!std::is_same_v<T, int64_t>) {
    if (lit < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
        lit > static_cast<int64_t>(std::numeric_limits<T>::max())) {
      std::memset(out, detail::OutOfRangeResult(
                           op, lit > static_cast<int64_t>(
                                         std::numeric_limits<T>::max())),
                  static_cast<size_t>(len));
      return;
    }
  }
  const T l = static_cast<T>(lit);
  switch (op) {
    case CmpOp::kLt:
      return CompareLitT<T, CmpOp::kLt>(col, l, out, len);
    case CmpOp::kLe:
      return CompareLitT<T, CmpOp::kLe>(col, l, out, len);
    case CmpOp::kGt:
      return CompareLitT<T, CmpOp::kGt>(col, l, out, len);
    case CmpOp::kGe:
      return CompareLitT<T, CmpOp::kGe>(col, l, out, len);
    case CmpOp::kEq:
      return CompareLitT<T, CmpOp::kEq>(col, l, out, len);
    case CmpOp::kNe:
      return CompareLitT<T, CmpOp::kNe>(col, l, out, len);
  }
}

template <typename T, CmpOp op>
void CompareColT(const T* SWOLE_RESTRICT lhs, const T* SWOLE_RESTRICT rhs,
                 uint8_t* SWOLE_RESTRICT out, int64_t len) {
  for (int64_t j = 0; j < len; ++j) {
    out[j] = detail::Cmp<op>(lhs[j], rhs[j]) ? 1 : 0;
  }
}

template <typename T>
void CompareCol(CmpOp op, const T* lhs, const T* rhs, uint8_t* out,
                int64_t len) {
  switch (op) {
    case CmpOp::kLt:
      return CompareColT<T, CmpOp::kLt>(lhs, rhs, out, len);
    case CmpOp::kLe:
      return CompareColT<T, CmpOp::kLe>(lhs, rhs, out, len);
    case CmpOp::kGt:
      return CompareColT<T, CmpOp::kGt>(lhs, rhs, out, len);
    case CmpOp::kGe:
      return CompareColT<T, CmpOp::kGe>(lhs, rhs, out, len);
    case CmpOp::kEq:
      return CompareColT<T, CmpOp::kEq>(lhs, rhs, out, len);
    case CmpOp::kNe:
      return CompareColT<T, CmpOp::kNe>(lhs, rhs, out, len);
  }
}

inline void AndBytes(uint8_t* SWOLE_RESTRICT out,
                     const uint8_t* SWOLE_RESTRICT other, int64_t len) {
  for (int64_t j = 0; j < len; ++j) out[j] &= other[j];
}

inline void OrBytes(uint8_t* SWOLE_RESTRICT out,
                    const uint8_t* SWOLE_RESTRICT other, int64_t len) {
  for (int64_t j = 0; j < len; ++j) out[j] |= other[j];
}

inline void NotBytes(uint8_t* out, int64_t len) {
  for (int64_t j = 0; j < len; ++j) out[j] = 1 - out[j];
}

/// 0/1 mask bytes: up to 255 of them sum exactly in a uint8_t, so each
/// block is a byte-wide add loop that vectorizes; only the block totals
/// widen to int64.
inline int64_t CountBytes(const uint8_t* cmp, int64_t len) {
  int64_t count = 0;
  for (int64_t j = 0; j < len; j += 255) {
    const int64_t n = std::min<int64_t>(255, len - j);
    uint8_t block = 0;
    for (int64_t k = 0; k < n; ++k) block += cmp[j + k];
    count += block;
  }
  return count;
}

template <typename T>
int64_t SumMasked(const T* SWOLE_RESTRICT col,
                  const uint8_t* SWOLE_RESTRICT cmp, int64_t len) {
  int64_t sum = 0;
  for (int64_t j = 0; j < len; ++j) {
    sum += static_cast<int64_t>(col[j]) * cmp[j];
  }
  return sum;
}

template <typename TA, typename TB>
int64_t SumProductMasked(const TA* SWOLE_RESTRICT a,
                         const TB* SWOLE_RESTRICT b,
                         const uint8_t* SWOLE_RESTRICT cmp, int64_t len) {
  int64_t sum = 0;
  for (int64_t j = 0; j < len; ++j) {
    sum += (static_cast<int64_t>(a[j]) * static_cast<int64_t>(b[j])) * cmp[j];
  }
  return sum;
}

template <typename T>
void MaskIntoTmp(const T* SWOLE_RESTRICT col,
                 const uint8_t* SWOLE_RESTRICT cmp, int64_t len,
                 int64_t* SWOLE_RESTRICT tmp) {
  for (int64_t j = 0; j < len; ++j) {
    tmp[j] = static_cast<int64_t>(col[j]) * cmp[j];
  }
}

template <typename T, CmpOp op>
void CompareLitMaskIntoTmpT(const T* SWOLE_RESTRICT col, int64_t lit,
                            int64_t len, int64_t* SWOLE_RESTRICT tmp) {
  for (int64_t j = 0; j < len; ++j) {
    int64_t v = static_cast<int64_t>(col[j]);
    tmp[j] = v * (detail::Cmp<op>(v, lit) ? 1 : 0);
  }
}

template <typename T>
void CompareLitMaskIntoTmp(CmpOp op, const T* col, int64_t lit, int64_t len,
                           int64_t* tmp) {
  switch (op) {
    case CmpOp::kLt:
      return CompareLitMaskIntoTmpT<T, CmpOp::kLt>(col, lit, len, tmp);
    case CmpOp::kLe:
      return CompareLitMaskIntoTmpT<T, CmpOp::kLe>(col, lit, len, tmp);
    case CmpOp::kGt:
      return CompareLitMaskIntoTmpT<T, CmpOp::kGt>(col, lit, len, tmp);
    case CmpOp::kGe:
      return CompareLitMaskIntoTmpT<T, CmpOp::kGe>(col, lit, len, tmp);
    case CmpOp::kEq:
      return CompareLitMaskIntoTmpT<T, CmpOp::kEq>(col, lit, len, tmp);
    case CmpOp::kNe:
      return CompareLitMaskIntoTmpT<T, CmpOp::kNe>(col, lit, len, tmp);
  }
}

template <typename T>
void MaskKeys(const T* SWOLE_RESTRICT col, const uint8_t* SWOLE_RESTRICT cmp,
              int64_t null_key, int64_t len, int64_t* SWOLE_RESTRICT key) {
  for (int64_t j = 0; j < len; ++j) {
    int64_t m = -static_cast<int64_t>(cmp[j]);  // 0 or ~0
    key[j] = (static_cast<int64_t>(col[j]) & m) | (null_key & ~m);
  }
}

/// No-branch (predicated) selection-vector construction [31].
inline int32_t SelVecNoBranch(const uint8_t* SWOLE_RESTRICT cmp, int64_t len,
                              int32_t* SWOLE_RESTRICT idx) {
  int32_t n = 0;
  for (int64_t j = 0; j < len; ++j) {
    idx[n] = static_cast<int32_t>(j);
    n += cmp[j] != 0;
  }
  return n;
}

/// Data Blocks-style [32] LUT construction: packs 8 cmp bytes into a
/// bitmask with one multiply (detail::PackMask8), then stores the
/// precomputed position list. The store is all 8 slots, a fixed-length
/// loop that vectorizes; it stays below idx[len] because n <= j.
inline int32_t SelVecLut(const uint8_t* cmp, int64_t len, int32_t* idx) {
  int32_t n = 0;
  int64_t j = 0;
  for (; j <= len - 8; j += 8) {
    const uint32_t mask = detail::PackMask8(cmp + j);
    const int32_t base = static_cast<int32_t>(j);
    for (int k = 0; k < 8; ++k) {
      idx[n + k] = base + detail::kSelPos.pos[mask][k];
    }
    n += detail::kSelPos.cnt[mask];
  }
  for (; j < len; ++j) {
    idx[n] = static_cast<int32_t>(j);
    n += cmp[j] != 0;
  }
  return n;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 backend. Every function carries target("avx2") so this header
// compiles without -march flags; callers must gate on the runtime dispatch.
// ---------------------------------------------------------------------------

#if SWOLE_SIMD_X86

namespace avx2 {

/// Widens the next 4 lanes of `col` to 4 x int64.
template <typename T>
SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE __m256i Load4Widened(const T* p) {
  if constexpr (sizeof(T) == 1) {
    int32_t bits;
    std::memcpy(&bits, p, 4);
    return _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(bits));
  } else if constexpr (sizeof(T) == 2) {
    return _mm256_cvtepi16_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  } else if constexpr (sizeof(T) == 4) {
    return _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  } else {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
}

/// Expands 4 mask bytes (0/1) into 4 x int64 lanes of 0 / ~0.
SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE __m256i Expand4Mask(const uint8_t* cmp) {
  int32_t bits;
  std::memcpy(&bits, cmp, 4);
  const __m256i m01 = _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(bits));
  return _mm256_sub_epi64(_mm256_setzero_si256(), m01);
}

/// Loads the next 8 lanes of `col` sign-extended to 8 x int32. Only valid
/// for columns whose physical type fits in 32 bits; int64 columns use the
/// 4-lane Load4Widened paths instead.
template <typename T>
SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE __m256i Load8AsI32(const T* p) {
  if constexpr (sizeof(T) == 1) {
    return _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  } else if constexpr (sizeof(T) == 2) {
    return _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  } else {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
}

/// Expands 8 mask bytes (0/1) into 8 x int32 lanes of 0 / ~0.
SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE __m256i Expand8Mask32(
    const uint8_t* cmp) {
  const __m256i m01 = _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cmp)));
  return _mm256_sub_epi32(_mm256_setzero_si256(), m01);
}

/// Widens 8 x int32 lanes to 2 x 4 x int64 and adds them into the two
/// accumulators.
SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE void AddWidened8(__m256i v,
                                                       __m256i* acc0,
                                                       __m256i* acc1) {
  *acc0 = _mm256_add_epi64(
      *acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
  *acc1 = _mm256_add_epi64(
      *acc1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
}

/// Exact low-64-bit product per lane (vpmullq is AVX-512; compose from
/// 32x32 halves).
SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

SWOLE_TARGET_AVX2 SWOLE_ALWAYS_INLINE int64_t HorizontalSum64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

template <typename T>
SWOLE_TARGET_AVX2 void CompareLit(CmpOp op, const T* SWOLE_RESTRICT col,
                                  int64_t lit, uint8_t* SWOLE_RESTRICT out,
                                  int64_t len) {
  if constexpr (!std::is_same_v<T, int64_t>) {
    if (lit < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
        lit > static_cast<int64_t>(std::numeric_limits<T>::max())) {
      std::memset(out, detail::OutOfRangeResult(
                           op, lit > static_cast<int64_t>(
                                         std::numeric_limits<T>::max())),
                  static_cast<size_t>(len));
      return;
    }
  }
  const detail::OpShape shape = detail::ShapeOf(op);
  const T l = static_cast<T>(lit);
  int64_t j = 0;
  if constexpr (sizeof(T) == 1) {
    const __m256i vlit = _mm256_set1_epi8(static_cast<char>(l));
    const __m256i inv =
        shape.invert ? _mm256_set1_epi8(-1) : _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi8(1);
    for (; j <= len - 32; j += 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j));
      __m256i m;
      if (shape.eq) {
        m = _mm256_cmpeq_epi8(x, vlit);
      } else if (shape.swap) {
        m = _mm256_cmpgt_epi8(vlit, x);
      } else {
        m = _mm256_cmpgt_epi8(x, vlit);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                          _mm256_and_si256(_mm256_xor_si256(m, inv), one));
    }
  } else if constexpr (sizeof(T) == 2) {
    const __m256i vlit = _mm256_set1_epi16(l);
    const __m256i inv =
        shape.invert ? _mm256_set1_epi16(-1) : _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi16(1);
    for (; j <= len - 16; j += 16) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j));
      __m256i m;
      if (shape.eq) {
        m = _mm256_cmpeq_epi16(x, vlit);
      } else if (shape.swap) {
        m = _mm256_cmpgt_epi16(vlit, x);
      } else {
        m = _mm256_cmpgt_epi16(x, vlit);
      }
      const __m256i w = _mm256_and_si256(_mm256_xor_si256(m, inv), one);
      const __m256i packed = _mm256_permute4x64_epi64(
          _mm256_packs_epi16(w, _mm256_setzero_si256()), 0xD8);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j),
                       _mm256_castsi256_si128(packed));
    }
  } else if constexpr (sizeof(T) == 4) {
    const __m256i vlit = _mm256_set1_epi32(l);
    const uint32_t inv = shape.invert ? 0xFFu : 0;
    for (; j <= len - 8; j += 8) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j));
      __m256i m;
      if (shape.eq) {
        m = _mm256_cmpeq_epi32(x, vlit);
      } else if (shape.swap) {
        m = _mm256_cmpgt_epi32(vlit, x);
      } else {
        m = _mm256_cmpgt_epi32(x, vlit);
      }
      const uint32_t bits =
          (static_cast<uint32_t>(
               _mm256_movemask_ps(_mm256_castsi256_ps(m))) ^
           inv) &
          0xFFu;
      detail::StoreWord(out + j, detail::kBitToByte[bits]);
    }
  } else {
    const __m256i vlit = _mm256_set1_epi64x(l);
    const uint32_t inv = shape.invert ? 0xFFu : 0;
    for (; j <= len - 8; j += 8) {
      const __m256i x0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j));
      const __m256i x1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j + 4));
      __m256i m0, m1;
      if (shape.eq) {
        m0 = _mm256_cmpeq_epi64(x0, vlit);
        m1 = _mm256_cmpeq_epi64(x1, vlit);
      } else if (shape.swap) {
        m0 = _mm256_cmpgt_epi64(vlit, x0);
        m1 = _mm256_cmpgt_epi64(vlit, x1);
      } else {
        m0 = _mm256_cmpgt_epi64(x0, vlit);
        m1 = _mm256_cmpgt_epi64(x1, vlit);
      }
      const uint32_t bits =
          ((static_cast<uint32_t>(
                _mm256_movemask_pd(_mm256_castsi256_pd(m0))) |
            (static_cast<uint32_t>(
                 _mm256_movemask_pd(_mm256_castsi256_pd(m1)))
             << 4)) ^
           inv) &
          0xFFu;
      detail::StoreWord(out + j, detail::kBitToByte[bits]);
    }
  }
  for (; j < len; ++j) {
    int64_t v = static_cast<int64_t>(col[j]);
    bool r;
    if (shape.eq) {
      r = v == lit;
    } else if (shape.swap) {
      r = lit > v;
    } else {
      r = v > lit;
    }
    out[j] = static_cast<uint8_t>(r != shape.invert);
  }
}

template <typename T>
SWOLE_TARGET_AVX2 void CompareCol(CmpOp op, const T* SWOLE_RESTRICT lhs,
                                  const T* SWOLE_RESTRICT rhs,
                                  uint8_t* SWOLE_RESTRICT out, int64_t len) {
  const detail::OpShape shape = detail::ShapeOf(op);
  int64_t j = 0;
  if constexpr (sizeof(T) == 1) {
    const __m256i inv =
        shape.invert ? _mm256_set1_epi8(-1) : _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi8(1);
    for (; j <= len - 32; j += 32) {
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lhs + j));
      __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rhs + j));
      if (shape.swap) std::swap(a, b);
      const __m256i m =
          shape.eq ? _mm256_cmpeq_epi8(a, b) : _mm256_cmpgt_epi8(a, b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                          _mm256_and_si256(_mm256_xor_si256(m, inv), one));
    }
  } else if constexpr (sizeof(T) == 2) {
    const __m256i inv =
        shape.invert ? _mm256_set1_epi16(-1) : _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi16(1);
    for (; j <= len - 16; j += 16) {
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lhs + j));
      __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rhs + j));
      if (shape.swap) std::swap(a, b);
      const __m256i m =
          shape.eq ? _mm256_cmpeq_epi16(a, b) : _mm256_cmpgt_epi16(a, b);
      const __m256i w = _mm256_and_si256(_mm256_xor_si256(m, inv), one);
      const __m256i packed = _mm256_permute4x64_epi64(
          _mm256_packs_epi16(w, _mm256_setzero_si256()), 0xD8);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j),
                       _mm256_castsi256_si128(packed));
    }
  } else if constexpr (sizeof(T) == 4) {
    const uint32_t inv = shape.invert ? 0xFFu : 0;
    for (; j <= len - 8; j += 8) {
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lhs + j));
      __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rhs + j));
      if (shape.swap) std::swap(a, b);
      const __m256i m =
          shape.eq ? _mm256_cmpeq_epi32(a, b) : _mm256_cmpgt_epi32(a, b);
      const uint32_t bits =
          (static_cast<uint32_t>(
               _mm256_movemask_ps(_mm256_castsi256_ps(m))) ^
           inv) &
          0xFFu;
      detail::StoreWord(out + j, detail::kBitToByte[bits]);
    }
  } else {
    const uint32_t inv = shape.invert ? 0xFFu : 0;
    for (; j <= len - 8; j += 8) {
      __m256i a0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lhs + j));
      __m256i b0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rhs + j));
      __m256i a1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lhs + j + 4));
      __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rhs + j + 4));
      if (shape.swap) {
        std::swap(a0, b0);
        std::swap(a1, b1);
      }
      const __m256i m0 =
          shape.eq ? _mm256_cmpeq_epi64(a0, b0) : _mm256_cmpgt_epi64(a0, b0);
      const __m256i m1 =
          shape.eq ? _mm256_cmpeq_epi64(a1, b1) : _mm256_cmpgt_epi64(a1, b1);
      const uint32_t bits =
          ((static_cast<uint32_t>(
                _mm256_movemask_pd(_mm256_castsi256_pd(m0))) |
            (static_cast<uint32_t>(
                 _mm256_movemask_pd(_mm256_castsi256_pd(m1)))
             << 4)) ^
           inv) &
          0xFFu;
      detail::StoreWord(out + j, detail::kBitToByte[bits]);
    }
  }
  for (; j < len; ++j) {
    int64_t a = static_cast<int64_t>(lhs[j]);
    int64_t b = static_cast<int64_t>(rhs[j]);
    if (shape.swap) std::swap(a, b);
    const bool r = shape.eq ? a == b : a > b;
    out[j] = static_cast<uint8_t>(r != shape.invert);
  }
}

SWOLE_TARGET_AVX2 inline void AndBytes(uint8_t* SWOLE_RESTRICT out,
                                       const uint8_t* SWOLE_RESTRICT other,
                                       int64_t len) {
  int64_t j = 0;
  for (; j <= len - 32; j += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(other + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm256_and_si256(a, b));
  }
  for (; j < len; ++j) out[j] &= other[j];
}

SWOLE_TARGET_AVX2 inline void OrBytes(uint8_t* SWOLE_RESTRICT out,
                                      const uint8_t* SWOLE_RESTRICT other,
                                      int64_t len) {
  int64_t j = 0;
  for (; j <= len - 32; j += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(other + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm256_or_si256(a, b));
  }
  for (; j < len; ++j) out[j] |= other[j];
}

SWOLE_TARGET_AVX2 inline void NotBytes(uint8_t* out, int64_t len) {
  const __m256i one = _mm256_set1_epi8(1);
  int64_t j = 0;
  for (; j <= len - 32; j += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm256_sub_epi8(one, x));
  }
  for (; j < len; ++j) out[j] = 1 - out[j];
}

SWOLE_TARGET_AVX2 inline int64_t CountBytes(const uint8_t* cmp, int64_t len) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  int64_t j = 0;
  for (; j <= len - 32; j += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cmp + j));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(x, zero));
  }
  int64_t count = HorizontalSum64(acc);
  for (; j < len; ++j) count += cmp[j];
  return count;
}

/// Width-native masked sum. Narrow widths accumulate in the narrowest
/// exact intermediate and fold into the int64 accumulators before any
/// intermediate can wrap, so the result is bit-identical to the int64
/// reference at all widths (int64 addition is the final step everywhere
/// and wraps mod 2^64 like the scalar backend).
template <typename T>
SWOLE_TARGET_AVX2 int64_t SumMasked(const T* SWOLE_RESTRICT col,
                                    const uint8_t* SWOLE_RESTRICT cmp,
                                    int64_t len) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  int64_t j = 0;
  if constexpr (sizeof(T) == 1) {
    // 32 lanes/iter: maddubs pairs the unsigned 0/1 mask with the signed
    // values — pair sums stay in [-256, 254], far from i16 saturation —
    // then madd against ones gives exact i32 quad partials. Each i32 lane
    // grows by at most 4*128 = 2^9 per iteration, so folding to i64 every
    // 2^20 iterations bounds it at 2^29 < INT32_MAX.
    const __m256i ones16 = _mm256_set1_epi16(1);
    constexpr int64_t kFoldLanes = (int64_t{1} << 20) * 32;
    while (j + 32 <= len) {
      const int64_t vend = j + ((len - j) / 32) * 32;
      const int64_t stop = std::min(vend, j + kFoldLanes);
      __m256i acc32 = _mm256_setzero_si256();
      for (; j < stop; j += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j));
        const __m256i m =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cmp + j));
        const __m256i pairs = _mm256_maddubs_epi16(m, v);
        acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(pairs, ones16));
      }
      AddWidened8(acc32, &acc0, &acc1);
    }
  } else if constexpr (sizeof(T) == 2) {
    // 16 lanes/iter: madd(value, 0/1 mask) — products are |v| or 0, pair
    // sums at most 2^16 in magnitude, exact in i32. Lane growth <= 2^16
    // per iteration; fold every 2^14 iterations (<= 2^30).
    constexpr int64_t kFoldLanes = (int64_t{1} << 14) * 16;
    while (j + 16 <= len) {
      const int64_t vend = j + ((len - j) / 16) * 16;
      const int64_t stop = std::min(vend, j + kFoldLanes);
      __m256i acc32 = _mm256_setzero_si256();
      for (; j < stop; j += 16) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + j));
        const __m256i m16 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cmp + j)));
        acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(v, m16));
      }
      AddWidened8(acc32, &acc0, &acc1);
    }
  } else if constexpr (sizeof(T) == 4) {
    // 8 lanes/iter, masked at i32 then widened into the accumulators.
    for (; j + 8 <= len; j += 8) {
      const __m256i v = _mm256_and_si256(Load8AsI32(col + j),
                                         Expand8Mask32(cmp + j));
      AddWidened8(v, &acc0, &acc1);
    }
  } else {
    for (; j <= len - 8; j += 8) {
      const __m256i v0 = Load4Widened(col + j);
      const __m256i v1 = Load4Widened(col + j + 4);
      acc0 =
          _mm256_add_epi64(acc0, _mm256_and_si256(v0, Expand4Mask(cmp + j)));
      acc1 = _mm256_add_epi64(acc1,
                              _mm256_and_si256(v1, Expand4Mask(cmp + j + 4)));
    }
  }
  int64_t sum = HorizontalSum64(_mm256_add_epi64(acc0, acc1));
  for (; j < len; ++j) sum += static_cast<int64_t>(col[j]) * cmp[j];
  return sum;
}

/// Width-native masked dot product. Same exactness contract as SumMasked:
/// every narrow path computes the product in an intermediate wide enough
/// to hold it exactly and folds into int64 before partials can wrap.
/// Note the int16 path widens to i32 and multiplies with mullo_epi32
/// rather than pairing with madd_epi16 — madd's pair-sum wraps when both
/// pair products are (-2^15)^2, which would break bit-identity.
template <typename TA, typename TB>
SWOLE_TARGET_AVX2 int64_t SumProductMasked(const TA* SWOLE_RESTRICT a,
                                           const TB* SWOLE_RESTRICT b,
                                           const uint8_t* SWOLE_RESTRICT cmp,
                                           int64_t len) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  int64_t j = 0;
  if constexpr (sizeof(TA) == 1 && sizeof(TB) == 1) {
    // 16 lanes/iter: int8 x int8 products fit i16 exactly (|p| <= 2^14);
    // mask at i16, then exact madd pair partials into i32. Lane growth
    // <= 2^15 per iteration; fold every 2^15 iterations (<= 2^30).
    const __m256i ones16 = _mm256_set1_epi16(1);
    constexpr int64_t kFoldLanes = (int64_t{1} << 15) * 16;
    while (j + 16 <= len) {
      const int64_t vend = j + ((len - j) / 16) * 16;
      const int64_t stop = std::min(vend, j + kFoldLanes);
      __m256i acc32 = _mm256_setzero_si256();
      for (; j < stop; j += 16) {
        const __m256i va = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + j)));
        const __m256i vb = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j)));
        const __m256i m01 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cmp + j)));
        const __m256i m = _mm256_sub_epi16(_mm256_setzero_si256(), m01);
        const __m256i prod =
            _mm256_and_si256(_mm256_mullo_epi16(va, vb), m);
        acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(prod, ones16));
      }
      AddWidened8(acc32, &acc0, &acc1);
    }
  } else if constexpr (sizeof(TA) <= 2 && sizeof(TB) <= 2) {
    // 8 lanes/iter: int16-range factors give |product| <= 2^30, so
    // mullo_epi32 is exact; mask at i32 and widen into the accumulators.
    for (; j + 8 <= len; j += 8) {
      const __m256i va = Load8AsI32(a + j);
      const __m256i vb = Load8AsI32(b + j);
      const __m256i prod = _mm256_and_si256(_mm256_mullo_epi32(va, vb),
                                            Expand8Mask32(cmp + j));
      AddWidened8(prod, &acc0, &acc1);
    }
  } else {
    for (; j <= len - 4; j += 4) {
      const __m256i va = Load4Widened(a + j);
      const __m256i vb = Load4Widened(b + j);
      __m256i prod;
      if constexpr (sizeof(TA) <= 4 && sizeof(TB) <= 4) {
        // Both factors fit in 32 bits after widening; one signed 32x32->64.
        prod = _mm256_mul_epi32(va, vb);
      } else {
        prod = MulLo64(va, vb);
      }
      acc0 =
          _mm256_add_epi64(acc0, _mm256_and_si256(prod, Expand4Mask(cmp + j)));
    }
  }
  int64_t sum = HorizontalSum64(_mm256_add_epi64(acc0, acc1));
  for (; j < len; ++j) {
    sum += (static_cast<int64_t>(a[j]) * static_cast<int64_t>(b[j])) * cmp[j];
  }
  return sum;
}

template <typename T>
SWOLE_TARGET_AVX2 void MaskIntoTmp(const T* SWOLE_RESTRICT col,
                                   const uint8_t* SWOLE_RESTRICT cmp,
                                   int64_t len, int64_t* SWOLE_RESTRICT tmp) {
  int64_t j = 0;
  if constexpr (sizeof(T) <= 4) {
    // 8 lanes/iter: one narrow load + one 8-wide mask expand feed two
    // widening stores (the stores must widen — tmp is the int64 tile).
    for (; j + 8 <= len; j += 8) {
      const __m256i v =
          _mm256_and_si256(Load8AsI32(col + j), Expand8Mask32(cmp + j));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(tmp + j),
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(tmp + j + 4),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
    }
  } else {
    for (; j <= len - 4; j += 4) {
      const __m256i v = Load4Widened(col + j);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + j),
                          _mm256_and_si256(v, Expand4Mask(cmp + j)));
    }
  }
  for (; j < len; ++j) tmp[j] = static_cast<int64_t>(col[j]) * cmp[j];
}

template <typename T>
SWOLE_TARGET_AVX2 void CompareLitMaskIntoTmp(CmpOp op,
                                             const T* SWOLE_RESTRICT col,
                                             int64_t lit, int64_t len,
                                             int64_t* SWOLE_RESTRICT tmp) {
  const detail::OpShape shape = detail::ShapeOf(op);
  int64_t j = 0;
  if constexpr (sizeof(T) <= 4) {
    if (lit < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
        lit > static_cast<int64_t>(std::numeric_limits<T>::max())) {
      // Every lane compares the same way against an out-of-range literal:
      // the tile is all zeros or a straight widening copy.
      if (detail::OutOfRangeResult(
              op, lit > static_cast<int64_t>(
                            std::numeric_limits<T>::max())) == 0) {
        std::memset(tmp, 0, static_cast<size_t>(len) * sizeof(int64_t));
      } else {
        for (; j < len; ++j) tmp[j] = static_cast<int64_t>(col[j]);
      }
      return;
    }
    // 8 lanes/iter: compare at the native (<=32-bit) width, mask, then
    // widen only for the int64 tile stores.
    const __m256i vlit = _mm256_set1_epi32(static_cast<int32_t>(lit));
    const __m256i inv =
        shape.invert ? _mm256_set1_epi32(-1) : _mm256_setzero_si256();
    for (; j + 8 <= len; j += 8) {
      const __m256i v = Load8AsI32(col + j);
      __m256i m;
      if (shape.eq) {
        m = _mm256_cmpeq_epi32(v, vlit);
      } else if (shape.swap) {
        m = _mm256_cmpgt_epi32(vlit, v);
      } else {
        m = _mm256_cmpgt_epi32(v, vlit);
      }
      const __m256i mv = _mm256_and_si256(v, _mm256_xor_si256(m, inv));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(tmp + j),
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(mv)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(tmp + j + 4),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(mv, 1)));
    }
  } else {
    const __m256i vlit = _mm256_set1_epi64x(lit);
    const __m256i inv =
        shape.invert ? _mm256_set1_epi64x(-1) : _mm256_setzero_si256();
    for (; j <= len - 4; j += 4) {
      const __m256i v = Load4Widened(col + j);
      __m256i m;
      if (shape.eq) {
        m = _mm256_cmpeq_epi64(v, vlit);
      } else if (shape.swap) {
        m = _mm256_cmpgt_epi64(vlit, v);
      } else {
        m = _mm256_cmpgt_epi64(v, vlit);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + j),
                          _mm256_and_si256(v, _mm256_xor_si256(m, inv)));
    }
  }
  for (; j < len; ++j) {
    const int64_t v = static_cast<int64_t>(col[j]);
    bool r;
    if (shape.eq) {
      r = v == lit;
    } else if (shape.swap) {
      r = lit > v;
    } else {
      r = v > lit;
    }
    tmp[j] = v * ((r != shape.invert) ? 1 : 0);
  }
}

template <typename T>
SWOLE_TARGET_AVX2 void MaskKeys(const T* SWOLE_RESTRICT col,
                                const uint8_t* SWOLE_RESTRICT cmp,
                                int64_t null_key, int64_t len,
                                int64_t* SWOLE_RESTRICT key) {
  const __m256i vnull = _mm256_set1_epi64x(null_key);
  int64_t j = 0;
  if constexpr (sizeof(T) <= 4) {
    // 8 lanes/iter off one narrow load; the blend still happens at int64
    // because null_key need not fit the narrow width.
    for (; j + 8 <= len; j += 8) {
      const __m256i v = Load8AsI32(col + j);
      const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
      const __m256i hi =
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(key + j),
                          _mm256_blendv_epi8(vnull, lo, Expand4Mask(cmp + j)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(key + j + 4),
          _mm256_blendv_epi8(vnull, hi, Expand4Mask(cmp + j + 4)));
    }
  } else {
    for (; j <= len - 4; j += 4) {
      const __m256i v = Load4Widened(col + j);
      const __m256i m = Expand4Mask(cmp + j);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(key + j),
                          _mm256_blendv_epi8(vnull, v, m));
    }
  }
  for (; j < len; ++j) {
    const int64_t m = -static_cast<int64_t>(cmp[j]);
    key[j] = (static_cast<int64_t>(col[j]) & m) | (null_key & ~m);
  }
}

/// movemask + LUT selection-vector construction: 32 lanes per movemask,
/// then an unconditional 8-wide position store per byte of the mask. The
/// over-store is safe because n <= j always holds (at most one index per
/// byte seen), so writes stay below idx[len].
SWOLE_TARGET_AVX2 inline int32_t SelVecFromCmp(const uint8_t* SWOLE_RESTRICT cmp,
                                               int64_t len,
                                               int32_t* SWOLE_RESTRICT idx) {
  const __m256i zero = _mm256_setzero_si256();
  int32_t n = 0;
  int64_t j = 0;
  for (; j <= len - 32; j += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cmp + j));
    const uint32_t mask = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, zero)));
    for (int b = 0; b < 4; ++b) {
      const uint32_t byte = (mask >> (8 * b)) & 0xFFu;
      const __m256i pos = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(detail::kSelPos.pos[byte]));
      const __m256i base =
          _mm256_set1_epi32(static_cast<int32_t>(j) + 8 * b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + n),
                          _mm256_add_epi32(pos, base));
      n += detail::kSelPos.cnt[byte];
    }
  }
  for (; j < len; ++j) {
    idx[n] = static_cast<int32_t>(j);
    n += cmp[j] != 0;
  }
  return n;
}

}  // namespace avx2

#endif  // SWOLE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch: selected once at startup, overridable for A/B runs.
// ---------------------------------------------------------------------------

inline Backend DetectBackend() {
  Backend best = CpuHasAvx2() ? Backend::kAvx2 : Backend::kScalar;
  const char* env = std::getenv("SWOLE_SIMD");
  if (env == nullptr || *env == '\0') return best;
  Backend requested = best;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Backend::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Backend::kAvx2;
  }
  // Clamp an unsupported request down to the best supported tier.
  return requested <= best ? requested : best;
}

namespace detail {
inline std::atomic<Backend>& BackendVar() {
  static std::atomic<Backend> v{DetectBackend()};
  return v;
}
}  // namespace detail

/// The backend every dispatched primitive routes to. Initialized on first
/// use from CPUID + the SWOLE_SIMD env override.
inline Backend ActiveBackend() {
  return detail::BackendVar().load(std::memory_order_relaxed);
}

/// Re-pins the backend (tests and benches). Unsupported tiers clamp down.
inline Backend SetBackend(Backend b) {
  if (b == Backend::kAvx2 && !CpuHasAvx2()) b = Backend::kScalar;
  detail::BackendVar().store(b, std::memory_order_relaxed);
  return b;
}

// ---- Dispatched entry points (the API kernels.h routes through) ----

template <typename T>
void CompareLit(CmpOp op, const T* col, int64_t lit, uint8_t* out,
                int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::CompareLit<T>(op, col, lit, out, len);
#endif
    default:
      return scalar::CompareLit<T>(op, col, lit, out, len);
  }
}

template <typename T>
void CompareCol(CmpOp op, const T* lhs, const T* rhs, uint8_t* out,
                int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::CompareCol<T>(op, lhs, rhs, out, len);
#endif
    default:
      return scalar::CompareCol<T>(op, lhs, rhs, out, len);
  }
}

inline void AndBytes(uint8_t* out, const uint8_t* other, int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::AndBytes(out, other, len);
#endif
    default:
      return scalar::AndBytes(out, other, len);
  }
}

inline void OrBytes(uint8_t* out, const uint8_t* other, int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::OrBytes(out, other, len);
#endif
    default:
      return scalar::OrBytes(out, other, len);
  }
}

inline void NotBytes(uint8_t* out, int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::NotBytes(out, len);
#endif
    default:
      return scalar::NotBytes(out, len);
  }
}

inline int64_t CountBytes(const uint8_t* cmp, int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::CountBytes(cmp, len);
#endif
    default:
      return scalar::CountBytes(cmp, len);
  }
}

template <typename T>
int64_t SumMasked(const T* col, const uint8_t* cmp, int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::SumMasked<T>(col, cmp, len);
#endif
    default:
      return scalar::SumMasked<T>(col, cmp, len);
  }
}

template <typename TA, typename TB>
int64_t SumProductMasked(const TA* a, const TB* b, const uint8_t* cmp,
                         int64_t len) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::SumProductMasked<TA, TB>(a, b, cmp, len);
#endif
    default:
      return scalar::SumProductMasked<TA, TB>(a, b, cmp, len);
  }
}

template <typename T>
void MaskIntoTmp(const T* col, const uint8_t* cmp, int64_t len,
                 int64_t* tmp) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::MaskIntoTmp<T>(col, cmp, len, tmp);
#endif
    default:
      return scalar::MaskIntoTmp<T>(col, cmp, len, tmp);
  }
}

template <typename T>
void CompareLitMaskIntoTmp(CmpOp op, const T* col, int64_t lit, int64_t len,
                           int64_t* tmp) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::CompareLitMaskIntoTmp<T>(op, col, lit, len, tmp);
#endif
    default:
      return scalar::CompareLitMaskIntoTmp<T>(op, col, lit, len, tmp);
  }
}

template <typename T>
void MaskKeys(const T* col, const uint8_t* cmp, int64_t null_key, int64_t len,
              int64_t* key) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::MaskKeys<T>(col, cmp, null_key, len, key);
#endif
    default:
      return scalar::MaskKeys<T>(col, cmp, null_key, len, key);
  }
}

/// Unified selection-vector construction. `scalar_flavor` picks which of
/// the paper's scalar loop shapes represents the primitive when the scalar
/// backend is active (the no-branch data dependency vs. the ROF LUT); the
/// AVX2 tier uses its movemask packing for both.
enum class SelFlavor : uint8_t { kNoBranch, kLut };

inline int32_t SelVecFromCmp(const uint8_t* cmp, int64_t len, int32_t* idx,
                             SelFlavor scalar_flavor) {
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return avx2::SelVecFromCmp(cmp, len, idx);
#endif
    default:
      return scalar_flavor == SelFlavor::kLut
                 ? scalar::SelVecLut(cmp, len, idx)
                 : scalar::SelVecNoBranch(cmp, len, idx);
  }
}

}  // namespace swole::simd

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // SWOLE_EXEC_SIMD_H_

#ifndef SWOLE_EXEC_KERNELS_H_
#define SWOLE_EXEC_KERNELS_H_

#include <cstdint>

#include "common/macros.h"
#include "exec/simd.h"
#include "exec/simd_string.h"

// The shared primitive kernels ("library code" in the paper's terms, §IV:
// all strategies are built from the same library code so the comparison
// isolates the code generation strategy itself). Header-only templates so
// that both the strategy engines and the JIT-generated translation units
// instantiate them with concrete column types. The hot branch-free
// primitives route through the runtime-dispatched backends in exec/simd.h
// (scalar / AVX2, selected once at startup, `SWOLE_SIMD` override);
// the deliberately *branching* kernels below stay scalar because branching
// is the behavior they exist to measure (data-centric strategy, Fig. 8).
//
// Conventions:
//  * All kernels operate on one tile: `col` pointers are pre-offset to the
//    tile start, `len` <= TILE, selection vectors hold tile-local indices.
//  * Comparison results are byte arrays of 0/1 ("cmp" in the paper's
//    pseudocode, Fig. 1).
//  * Aggregates accumulate in int64 (the paper stores all aggregates as
//    64-bit integers instead of overflow checking).

namespace swole::kernels {

/// Default vector/tile size (paper §IV: 1024, as suggested by [5], [27]).
inline constexpr int64_t kDefaultTileSize = 1024;

using CmpOp = simd::CmpOp;

namespace internal {
using simd::detail::Cmp;
}  // namespace internal

// The dispatched primitives are the simd:: entry points themselves; the
// using-declarations below put them in this namespace, so the engines and
// the generated code call `kernels::X` for every kernel alike.

/// Prepass comparison against a literal: out[j] = col[j] OP lit (0/1).
/// Branch-free; this is the SIMD-friendly "prepass" loop of the hybrid
/// strategy (Fig. 1 middle).
using simd::CompareLit;

/// Prepass column-vs-column comparison (same physical type).
using simd::CompareCol;

/// out[j] &= other[j] — conjunction of prepass results.
using simd::AndBytes;

/// out[j] |= other[j].
using simd::OrBytes;

/// out[j] = 1 - out[j] (logical NOT of a 0/1 byte array).
using simd::NotBytes;

/// Dictionary-code predicate: out[j] = mask[col[j]] (e.g. LIKE evaluated
/// once per dictionary entry, then a positional mask lookup per tuple).
template <typename T>
void LookupMask(const T* SWOLE_RESTRICT col,
                const uint8_t* SWOLE_RESTRICT mask,
                uint8_t* SWOLE_RESTRICT out, int64_t len) {
  for (int64_t j = 0; j < len; ++j) out[j] = mask[col[j]];
}

// ---- Selection vectors (predicate pushdown machinery) ----

/// Branching construction: `if (cmp[j]) idx[n++] = j`. This is the
/// data-centric flavor — CPU branch mispredictions at intermediate
/// selectivities produce the hump of Fig. 8 [31].
inline int32_t SelVecFromCmpBranch(const uint8_t* SWOLE_RESTRICT cmp,
                                   int64_t len,
                                   int32_t* SWOLE_RESTRICT idx) {
  int32_t n = 0;
  for (int64_t j = 0; j < len; ++j) {
    if (cmp[j]) idx[n++] = static_cast<int32_t>(j);
  }
  return n;
}

/// No-branch (predicated) construction: `idx[n] = j; n += cmp[j]`.
/// Replaces the control dependency with a data dependency [31]. Under the
/// AVX2 backend this and SelVecFromCmpLut unify into the packed
/// movemask+LUT construction (bit-identical output).
inline int32_t SelVecFromCmpNoBranch(const uint8_t* cmp, int64_t len,
                                     int32_t* idx) {
  return simd::SelVecFromCmp(cmp, len, idx, simd::SelFlavor::kNoBranch);
}

/// Data Blocks-style [32] lookup-table construction used by ROF: packs 8
/// cmp bytes into a bitmask and appends the precomputed position list for
/// that mask. Branch-free over the match pattern.
int32_t SelVecFromCmpLut(const uint8_t* cmp, int64_t len, int32_t* idx);

/// Branching single-comparison selection directly from a column (fused
/// filter of the data-centric strategy): `if (col[j] OP lit) idx[n++] = j`.
template <typename T>
int32_t SelectLitBranch(CmpOp op, const T* col, int64_t lit, int32_t* idx,
                        int64_t len) {
  int32_t n = 0;
  switch (op) {
#define SWOLE_CASE(OP)                                                    \
  case CmpOp::OP:                                                         \
    for (int64_t j = 0; j < len; ++j) {                                   \
      if (internal::Cmp<CmpOp::OP>(static_cast<int64_t>(col[j]), lit)) {  \
        idx[n++] = static_cast<int32_t>(j);                               \
      }                                                                   \
    }                                                                     \
    break;
    SWOLE_CASE(kLt)
    SWOLE_CASE(kLe)
    SWOLE_CASE(kGt)
    SWOLE_CASE(kGe)
    SWOLE_CASE(kEq)
    SWOLE_CASE(kNe)
#undef SWOLE_CASE
  }
  return n;
}

/// Branching refinement of an existing selection vector.
template <typename T>
int32_t RefineLitBranch(CmpOp op, const T* col, int64_t lit,
                        const int32_t* idx_in, int32_t n_in,
                        int32_t* idx_out) {
  int32_t n = 0;
  switch (op) {
#define SWOLE_CASE(OP)                                                       \
  case CmpOp::OP:                                                            \
    for (int32_t k = 0; k < n_in; ++k) {                                     \
      if (internal::Cmp<CmpOp::OP>(static_cast<int64_t>(col[idx_in[k]]),     \
                                   lit)) {                                   \
        idx_out[n++] = idx_in[k];                                            \
      }                                                                      \
    }                                                                        \
    break;
    SWOLE_CASE(kLt)
    SWOLE_CASE(kLe)
    SWOLE_CASE(kGt)
    SWOLE_CASE(kGe)
    SWOLE_CASE(kEq)
    SWOLE_CASE(kNe)
#undef SWOLE_CASE
  }
  return n;
}

/// Branching refinement by a byte mask (for predicates that are not simple
/// literal comparisons, e.g. dictionary LIKE masks).
inline int32_t RefineMaskBranch(const uint8_t* SWOLE_RESTRICT cmp,
                                const int32_t* SWOLE_RESTRICT idx_in,
                                int32_t n_in, int32_t* SWOLE_RESTRICT idx_out) {
  int32_t n = 0;
  for (int32_t k = 0; k < n_in; ++k) {
    if (cmp[idx_in[k]]) idx_out[n++] = idx_in[k];
  }
  return n;
}

// ---- Gathers (conditional reads through a selection vector) ----

/// out[k] = col[idx[k]], widened to int64. The `read_cond` access pattern.
template <typename T>
void Gather(const T* SWOLE_RESTRICT col, const int32_t* SWOLE_RESTRICT idx,
            int32_t n, int64_t* SWOLE_RESTRICT out) {
  for (int32_t k = 0; k < n; ++k) out[k] = static_cast<int64_t>(col[idx[k]]);
}

/// Sequential widening load: out[j] = col[j]. The `read_seq` pattern.
template <typename T>
void Widen(const T* SWOLE_RESTRICT col, int64_t len,
           int64_t* SWOLE_RESTRICT out) {
  for (int64_t j = 0; j < len; ++j) out[j] = static_cast<int64_t>(col[j]);
}

// ---- Aggregation kernels ----

/// sum over a selection vector: sum_k col[idx[k]].
template <typename T>
int64_t SumSel(const T* SWOLE_RESTRICT col, const int32_t* SWOLE_RESTRICT idx,
               int32_t n) {
  int64_t sum = 0;
  for (int32_t k = 0; k < n; ++k) sum += static_cast<int64_t>(col[idx[k]]);
  return sum;
}

/// sum_k a[idx[k]] * b[idx[k]].
template <typename TA, typename TB>
int64_t SumProductSel(const TA* SWOLE_RESTRICT a, const TB* SWOLE_RESTRICT b,
                      const int32_t* SWOLE_RESTRICT idx, int32_t n) {
  int64_t sum = 0;
  for (int32_t k = 0; k < n; ++k) {
    sum += static_cast<int64_t>(a[idx[k]]) * static_cast<int64_t>(b[idx[k]]);
  }
  return sum;
}

/// sum_k a[idx[k]] / b[idx[k]] (integer division; b must be nonzero at
/// selected positions).
template <typename TA, typename TB>
int64_t SumQuotientSel(const TA* SWOLE_RESTRICT a, const TB* SWOLE_RESTRICT b,
                       const int32_t* SWOLE_RESTRICT idx, int32_t n) {
  int64_t sum = 0;
  for (int32_t k = 0; k < n; ++k) {
    sum += static_cast<int64_t>(a[idx[k]]) / static_cast<int64_t>(b[idx[k]]);
  }
  return sum;
}

/// Value masking (§III-A): sum_j col[j] * cmp[j]. Sequential access of
/// `col`; wasted work on masked lanes, no conditional reads.
using simd::SumMasked;

/// Value masking of a product (Fig. 3): sum_j (a[j]*b[j]) * cmp[j].
using simd::SumProductMasked;

/// A divisor of 0 becomes 1, branch-free. Every division over lanes the
/// plan may discard goes through it, so a discarded row never traps.
SWOLE_ALWAYS_INLINE int64_t NonzeroDivisor(int64_t d) { return d + (d == 0); }

/// Value-masked quotient: sum_j (a[j]/b[j]) * cmp[j]. Division happens for
/// every lane — this is the "wasted work" that makes VM lose on
/// compute-bound aggregations (Fig. 8b). Masked lanes may hold a zero
/// divisor, so it is guarded (NonzeroDivisor).
template <typename TA, typename TB>
int64_t SumQuotientMasked(const TA* SWOLE_RESTRICT a,
                          const TB* SWOLE_RESTRICT b,
                          const uint8_t* SWOLE_RESTRICT cmp, int64_t len) {
  int64_t sum = 0;
  for (int64_t j = 0; j < len; ++j) {
    sum += (static_cast<int64_t>(a[j]) /
            NonzeroDivisor(static_cast<int64_t>(b[j]))) *
           cmp[j];
  }
  return sum;
}

/// Unconditional sum over the tile (no predicate).
template <typename T>
int64_t SumAll(const T* SWOLE_RESTRICT col, int64_t len) {
  int64_t sum = 0;
  for (int64_t j = 0; j < len; ++j) sum += static_cast<int64_t>(col[j]);
  return sum;
}

template <typename TA, typename TB>
int64_t SumProductAll(const TA* SWOLE_RESTRICT a, const TB* SWOLE_RESTRICT b,
                      int64_t len) {
  int64_t sum = 0;
  for (int64_t j = 0; j < len; ++j) {
    sum += static_cast<int64_t>(a[j]) * static_cast<int64_t>(b[j]);
  }
  return sum;
}

/// Number of set lanes in a cmp array (selectivity of a tile).
using simd::CountBytes;

/// Access merging (§III-C, Fig. 5): tmp[j] = col[j] * cmp[j] — the predicate
/// result is folded into the value at first touch so the attribute is read
/// exactly once.
using simd::MaskIntoTmp;

/// Access merging with the comparison fused (Fig. 5 bottom, one access of x):
/// tmp[j] = x[j] * (x[j] OP lit).
using simd::CompareLitMaskIntoTmp;

/// Key masking key production (§III-B, Fig. 4 bottom):
/// key[j] = cmp[j] ? c[j] : null_key. Branch-free select.
using simd::MaskKeys;

/// Software prefetch helper (ROF §II-A.3): hints the cache line of `addr`.
SWOLE_ALWAYS_INLINE void PrefetchRead(const void* addr) {
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/1);
}

// ---- String kernels (raw arena columns, exec/simd_string.h) ----
//
// Same routing contract as the numeric primitives: strategy engines and
// JIT translation units call the runtime-dispatched simd:: entry points
// through these names.

using simd::CompiledLike;
using simd::CompileLike;

/// Prepass LIKE over a tile of arena rows: out[j] = row matches (0/1).
/// The pushed-placement loop — bytes stream sequentially.
using simd::StrLikeTile;

/// Guarded LIKE refine: cmp[j] &= row matches, skipping dead lanes. The
/// pulled-placement loop — only survivors touch the arena.
using simd::StrLikeTileAnd;

/// Single-row compiled LIKE (data-centric emission, reference engine).
using simd::StrLikeOne;

/// String equality / ordering / prefix / suffix / substring prepasses.
using simd::StrCmpLit;
using simd::StrContains;
using simd::StrEqLit;
using simd::StrPrefix;
using simd::StrSuffix;

/// Dispatched memmem; -1 when absent.
using simd::StrFindFirst;

/// Per-row FNV-1a hashes over a tile (build-side string keys).
using simd::StrHashTile;

}  // namespace swole::kernels

#endif  // SWOLE_EXEC_KERNELS_H_

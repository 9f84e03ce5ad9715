#ifndef SWOLE_EXEC_SIMD_STRING_H_
#define SWOLE_EXEC_SIMD_STRING_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "exec/simd.h"

// String kernels over raw arena storage (storage/string_column.h: byte
// blob + uint32 offsets), in the same two-tier runtime-dispatch framework
// as exec/simd.h — scalar reference loops that double as the portable
// fallback, AVX2 via per-function target attributes. Backend selection is
// shared with the numeric kernels (simd::ActiveBackend()), so SWOLE_SIMD
// pins string and numeric primitives together.
//
// Bit-exactness contract (same as simd.h): every primitive returns
// byte-identical results on both tiers, for any byte content —
// embedded NUL and non-ASCII included; nothing here treats text as C
// strings or applies locale rules. Matching is plain byte equality,
// ordering is memcmp order with shorter-string-first tiebreak, and the
// substring search is the memmem idiom: a wide first(+last)-byte filter
// proposing candidates that a byte-exact verify confirms, so candidate
// order — and therefore the returned index — is identical on every tier.
//
// LIKE runs through CompiledLike: patterns without '_' compile to anchored
// token shapes (equality, prefix, suffix, contains, ordered token
// sequence — Q13's "%special%requests%" is a two-token sequence) that the
// wide primitives accelerate; patterns with '_' fall back to a
// self-contained two-pointer matcher. A tile of a contains or unanchored
// token pattern is one sequential scan of its rows' arena span for the
// first token, and only rows with a hit are finished exactly
// (StrLikeScanT). The fallback duplicates
// common/string_util.h's LikeMatch on purpose: JIT-generated translation
// units include this header (via exec/kernels.h) and link nothing but
// logging, so the matcher must live here; the differential tests pin the
// two implementations together.
//
// Hashing (FNV-1a, seeded as common/string_util.h's Fnv1aHash64) is a
// sequential byte recurrence with no width trick that preserves the exact
// value, so both tiers share one loop by design.

namespace swole::simd {

// ---------------------------------------------------------------------------
// Per-backend byte-range primitives. Each backend is a tag struct with the
// same three static methods; the tile loops below are templates over the
// tag, so each tier's loop body inlines its own wide primitives.
// ---------------------------------------------------------------------------

struct ScalarStrOps {
  /// Byte-wise equality of a[0..n) and b[0..n).
  static bool EqRange(const uint8_t* a, const uint8_t* b, int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  /// memcmp order with length tiebreak: <0, 0, >0.
  static int CmpRange(const uint8_t* a, int64_t an, const uint8_t* b,
                      int64_t bn) {
    const int64_t n = std::min(an, bn);
    for (int64_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return an < bn ? -1 : (an > bn ? 1 : 0);
  }

  /// Leftmost occurrence of needle[0..nlen) in hay[0..hlen), or -1.
  /// Preconditions: nlen >= 1.
  static int64_t Find(const uint8_t* hay, int64_t hlen, const uint8_t* needle,
                      int64_t nlen) {
    const uint8_t first = needle[0];
    const uint8_t last = needle[nlen - 1];
    const int64_t last_start = hlen - nlen;
    int64_t i = 0;
    // First+last byte filter over 32 starts at a time: the flag loop has a
    // fixed trip count and no early exit, so it vectorizes to byte
    // compares; the flags pack into a mask whose set bits verify lowest
    // first. With i+31 a valid start, hay[i+31+nlen-1] is in bounds.
    for (; i + 32 <= last_start + 1; i += 32) {
      uint8_t hit[32];
      for (int k = 0; k < 32; ++k) {
        hit[k] = (hay[i + k] == first) & (hay[i + k + nlen - 1] == last);
      }
      uint32_t m = 0;
      for (int w = 0; w < 4; ++w) {
        m |= detail::PackMask8(hit + 8 * w) << (8 * w);
      }
      while (m != 0) {
        const int64_t cand = i + std::countr_zero(m);
        if (std::memcmp(hay + cand, needle, static_cast<size_t>(nlen)) == 0) {
          return cand;
        }
        m &= m - 1;
      }
    }
    for (; i <= last_start; ++i) {
      if (hay[i] == first && EqRange(hay + i, needle, nlen)) return i;
    }
    return -1;
  }
};

#if SWOLE_SIMD_X86

struct Avx2StrOps {
  SWOLE_TARGET_AVX2
  static bool EqRange(const uint8_t* a, const uint8_t* b, int64_t n) {
    int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i y =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)) != -1) return false;
    }
    for (; i + 8 <= n; i += 8) {
      if (detail::LoadWord(a + i) != detail::LoadWord(b + i)) return false;
    }
    for (; i < n; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  SWOLE_TARGET_AVX2
  static int CmpRange(const uint8_t* a, int64_t an, const uint8_t* b,
                      int64_t bn) {
    const int64_t n = std::min(an, bn);
    int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i y =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const uint32_t eq = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)));
      if (eq != 0xFFFFFFFFu) {
        const int64_t d = i + std::countr_zero(~eq);
        return a[d] < b[d] ? -1 : 1;
      }
    }
    for (; i < n; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return an < bn ? -1 : (an > bn ? 1 : 0);
  }

  SWOLE_TARGET_AVX2
  static int64_t Find(const uint8_t* hay, int64_t hlen, const uint8_t* needle,
                      int64_t nlen) {
    const uint8_t first = needle[0];
    const uint8_t last = needle[nlen - 1];
    const __m256i vfirst = _mm256_set1_epi8(static_cast<char>(first));
    const __m256i vlast = _mm256_set1_epi8(static_cast<char>(last));
    const int64_t last_start = hlen - nlen;
    int64_t i = 0;
    // First+last byte filter: a start qualifies only if hay[i] matches the
    // needle's first byte AND hay[i+nlen-1] its last. With i+31 a valid
    // start, both 32-byte loads stay inside hay[0..hlen).
    for (; i + 32 <= last_start + 1; i += 32) {
      const __m256i h0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hay + i));
      const __m256i h1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(hay + i + nlen - 1));
      uint32_t m = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_and_si256(
          _mm256_cmpeq_epi8(h0, vfirst), _mm256_cmpeq_epi8(h1, vlast))));
      while (m != 0) {
        const int64_t cand = i + std::countr_zero(m);
        if (EqRange(hay + cand, needle, nlen)) return cand;
        m &= m - 1;
      }
    }
    for (; i <= last_start; ++i) {
      if (hay[i] == first && EqRange(hay + i, needle, nlen)) return i;
    }
    return -1;
  }
};

#endif  // SWOLE_SIMD_X86

// ---------------------------------------------------------------------------
// Compiled LIKE patterns.
// ---------------------------------------------------------------------------

struct CompiledLike {
  enum class Kind : uint8_t {
    kAll,       // pattern is only '%'s: matches everything
    kEquals,    // no wildcards: byte equality
    kPrefix,    // "abc%"
    kSuffix,    // "%abc"
    kContains,  // "%abc%"
    kTokens,    // '%'-separated token sequence, possibly end-anchored
    kGeneral,   // contains '_': two-pointer fallback matcher
  };

  Kind kind = Kind::kGeneral;
  bool negated = false;          // NOT LIKE
  bool anchored_prefix = false;  // kTokens: first token must match at 0
  bool anchored_suffix = false;  // kTokens: last token must match at end
  std::string pattern;           // original pattern (kGeneral fallback)
  std::vector<std::string> tokens;
};

/// Classifies a LIKE pattern into the fast shape the tile kernels handle,
/// or kGeneral when '_' forces the full matcher.
inline CompiledLike CompileLike(std::string_view pattern, bool negated) {
  CompiledLike lk;
  lk.negated = negated;
  lk.pattern.assign(pattern.data(), pattern.size());
  if (pattern.find('_') != std::string_view::npos) {
    lk.kind = CompiledLike::Kind::kGeneral;
    return lk;
  }
  if (pattern.find('%') == std::string_view::npos) {
    lk.kind = CompiledLike::Kind::kEquals;
    lk.tokens.emplace_back(pattern);
    return lk;
  }
  lk.anchored_prefix = pattern.front() != '%';
  lk.anchored_suffix = pattern.back() != '%';
  size_t pos = 0;
  while (pos <= pattern.size()) {
    const size_t next = std::min(pattern.find('%', pos), pattern.size());
    if (next > pos) lk.tokens.emplace_back(pattern.substr(pos, next - pos));
    pos = next + 1;
  }
  if (lk.tokens.empty()) {
    lk.kind = CompiledLike::Kind::kAll;
  } else if (lk.tokens.size() == 1 && !lk.anchored_prefix &&
             !lk.anchored_suffix) {
    lk.kind = CompiledLike::Kind::kContains;
  } else if (lk.tokens.size() == 1 && lk.anchored_prefix) {
    lk.kind = CompiledLike::Kind::kPrefix;
  } else if (lk.tokens.size() == 1) {
    lk.kind = CompiledLike::Kind::kSuffix;
  } else {
    lk.kind = CompiledLike::Kind::kTokens;
  }
  return lk;
}

namespace detail_str {

/// Self-contained copy of common/string_util.h LikeMatch (see the header
/// comment for why): '%' any run, '_' any single byte, backtracking to the
/// last '%'.
inline bool GeneralLikeMatch(const uint8_t* s, int64_t n,
                             std::string_view pattern) {
  int64_t v = 0;
  size_t p = 0;
  size_t star_p = static_cast<size_t>(-1);
  int64_t star_v = 0;
  while (v < n) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || static_cast<uint8_t>(pattern[p]) == s[v])) {
      ++p;
      ++v;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != static_cast<size_t>(-1)) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

inline const uint8_t* TokenData(const std::string& t) {
  return reinterpret_cast<const uint8_t*>(t.data());
}

/// The rest of a token-sequence match once tokens [0, ti) are placed and
/// end at `pos`: the middle tokens from `ti` greedily at their leftmost
/// occurrence, then a non-overlapping anchored suffix. Greedy-leftmost
/// minimizes the consumed position, so if it can't leave room for the
/// suffix no assignment can.
template <typename Ops>
bool MatchTokensFrom(const uint8_t* s, int64_t n, const CompiledLike& lk,
                     size_t ti, int64_t pos) {
  size_t tend = lk.tokens.size();
  if (lk.anchored_suffix) --tend;
  for (; ti < tend; ++ti) {
    const std::string& t = lk.tokens[ti];
    const int64_t tn = static_cast<int64_t>(t.size());
    const int64_t found = Ops::Find(s + pos, n - pos, TokenData(t), tn);
    if (found < 0) return false;
    pos += found + tn;
  }
  if (lk.anchored_suffix) {
    const std::string& t = lk.tokens.back();
    const int64_t tn = static_cast<int64_t>(t.size());
    if (n - tn < pos) return false;
    return Ops::EqRange(s + (n - tn), TokenData(t), tn);
  }
  return true;
}

/// '%'-only token-sequence match: the anchored prefix, then the rest.
template <typename Ops>
bool MatchTokens(const uint8_t* s, int64_t n, const CompiledLike& lk) {
  if (!lk.anchored_prefix) return MatchTokensFrom<Ops>(s, n, lk, 0, 0);
  const std::string& t = lk.tokens.front();
  const int64_t tn = static_cast<int64_t>(t.size());
  if (n < tn || !Ops::EqRange(s, TokenData(t), tn)) return false;
  return MatchTokensFrom<Ops>(s, n, lk, 1, tn);
}

/// Raw (un-negated) compiled-pattern match for one value.
template <typename Ops>
SWOLE_ALWAYS_INLINE bool MatchCompiled(const uint8_t* s, int64_t n,
                                       const CompiledLike& lk) {
  switch (lk.kind) {
    case CompiledLike::Kind::kAll:
      return true;
    case CompiledLike::Kind::kEquals: {
      const std::string& t = lk.tokens.front();
      return n == static_cast<int64_t>(t.size()) &&
             Ops::EqRange(s, TokenData(t), n);
    }
    case CompiledLike::Kind::kPrefix: {
      const std::string& t = lk.tokens.front();
      const int64_t tn = static_cast<int64_t>(t.size());
      return n >= tn && Ops::EqRange(s, TokenData(t), tn);
    }
    case CompiledLike::Kind::kSuffix: {
      const std::string& t = lk.tokens.front();
      const int64_t tn = static_cast<int64_t>(t.size());
      return n >= tn && Ops::EqRange(s + (n - tn), TokenData(t), tn);
    }
    case CompiledLike::Kind::kContains: {
      const std::string& t = lk.tokens.front();
      const int64_t tn = static_cast<int64_t>(t.size());
      return n >= tn && Ops::Find(s, n, TokenData(t), tn) >= 0;
    }
    case CompiledLike::Kind::kTokens:
      return MatchTokens<Ops>(s, n, lk);
    case CompiledLike::Kind::kGeneral:
      return GeneralLikeMatch(s, n, lk.pattern);
  }
  return false;
}

template <typename Ops>
void StrEqLitTileT(const uint8_t* bytes, const uint32_t* offsets,
                   int64_t start, int64_t len, const uint8_t* lit,
                   int64_t lit_len, uint8_t* out) {
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    out[j] =
        static_cast<uint8_t>(n == lit_len && Ops::EqRange(bytes + off, lit, n));
  }
}

template <typename Ops>
void StrCmpLitTileT(CmpOp op, const uint8_t* bytes, const uint32_t* offsets,
                    int64_t start, int64_t len, const uint8_t* lit,
                    int64_t lit_len, uint8_t* out) {
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    const int c = Ops::CmpRange(bytes + off, n, lit, lit_len);
    bool r = false;
    switch (op) {
      case CmpOp::kLt:
        r = c < 0;
        break;
      case CmpOp::kLe:
        r = c <= 0;
        break;
      case CmpOp::kGt:
        r = c > 0;
        break;
      case CmpOp::kGe:
        r = c >= 0;
        break;
      case CmpOp::kEq:
        r = c == 0;
        break;
      case CmpOp::kNe:
        r = c != 0;
        break;
    }
    out[j] = static_cast<uint8_t>(r);
  }
}

template <typename Ops>
void StrPrefixTileT(const uint8_t* bytes, const uint32_t* offsets,
                    int64_t start, int64_t len, const uint8_t* prefix,
                    int64_t plen, uint8_t* out) {
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    out[j] = static_cast<uint8_t>(n >= plen &&
                                  Ops::EqRange(bytes + off, prefix, plen));
  }
}

template <typename Ops>
void StrSuffixTileT(const uint8_t* bytes, const uint32_t* offsets,
                    int64_t start, int64_t len, const uint8_t* suffix,
                    int64_t slen, uint8_t* out) {
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    out[j] = static_cast<uint8_t>(
        n >= slen && Ops::EqRange(bytes + off + (n - slen), suffix, slen));
  }
}

template <typename Ops>
void StrContainsTileT(const uint8_t* bytes, const uint32_t* offsets,
                      int64_t start, int64_t len, const uint8_t* needle,
                      int64_t nlen, uint8_t* out) {
  if (nlen == 0) {
    std::memset(out, 1, static_cast<size_t>(len));
    return;
  }
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    out[j] = static_cast<uint8_t>(n >= nlen &&
                                  Ops::Find(bytes + off, n, needle, nlen) >= 0);
  }
}

/// True for the shapes every match of which holds tokens[0] at its leftmost
/// occurrence in the row: kContains, and kTokens without an anchored
/// prefix (whose first token is placed greedily-leftmost).
inline bool FirstTokenDecides(const CompiledLike& lk) {
  return lk.kind == CompiledLike::Kind::kContains ||
         (lk.kind == CompiledLike::Kind::kTokens && !lk.anchored_prefix);
}

/// A FirstTokenDecides pattern over rows [0, len) of `offsets`: one
/// sequential Find of tokens[0] over the rows' contiguous arena span. Rows
/// the scan passes without a hit are decided by that alone (no match). The
/// hit's row is finished exactly: a hit that runs into the next row is the
/// leftmost occurrence from the row's start, so the row holds none; a hit
/// inside it is where the per-row match places tokens[0], so a kContains
/// row matches and a kTokens row matches the remaining tokens after it.
/// The scan then resumes at the next row's start.
template <typename Ops>
void StrLikeScanT(const uint8_t* bytes, const uint32_t* offsets, int64_t len,
                  const CompiledLike& lk, uint8_t* out) {
  const std::string& t = lk.tokens.front();
  const uint8_t* needle = TokenData(t);
  const int64_t tn = static_cast<int64_t>(t.size());
  const uint8_t miss = static_cast<uint8_t>(lk.negated);
  const int64_t end = offsets[len];
  int64_t j = 0;
  while (j < len) {
    const int64_t pos = offsets[j];
    if (end - pos < tn) break;
    const int64_t found = Ops::Find(bytes + pos, end - pos, needle, tn);
    if (found < 0) break;
    const int64_t at = pos + found;
    while (offsets[j + 1] <= at) out[j++] = miss;
    const int64_t off = offsets[j];
    const int64_t n = offsets[j + 1] - off;
    const int64_t hit_end = at - off + tn;  // row-relative
    bool match = hit_end <= n;
    if (match && lk.kind == CompiledLike::Kind::kTokens) {
      match = MatchTokensFrom<Ops>(bytes + off, n, lk, 1, hit_end);
    }
    out[j++] = static_cast<uint8_t>(match != lk.negated);
  }
  std::memset(out + j, miss, static_cast<size_t>(len - j));
}

template <typename Ops>
void StrLikeTileT(const uint8_t* bytes, const uint32_t* offsets, int64_t start,
                  int64_t len, const CompiledLike& lk, uint8_t* out) {
  if (FirstTokenDecides(lk)) {
    StrLikeScanT<Ops>(bytes, offsets + start, len, lk, out);
    return;
  }
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    out[j] = static_cast<uint8_t>(MatchCompiled<Ops>(bytes + off, n, lk) !=
                                  lk.negated);
  }
}

template <typename Ops>
void StrLikeTileAndT(const uint8_t* bytes, const uint32_t* offsets,
                     int64_t start, int64_t len, const CompiledLike& lk,
                     uint8_t* cmp) {
  // Guarded refine: only surviving lanes pay the arena touch — this is the
  // pulled-placement access pattern the cost model's read_cond term prices.
  for (int64_t j = 0; j < len; ++j) {
    if (cmp[j] == 0) continue;
    const uint32_t off = offsets[start + j];
    const int64_t n = offsets[start + j + 1] - off;
    cmp[j] = static_cast<uint8_t>(MatchCompiled<Ops>(bytes + off, n, lk) !=
                                  lk.negated);
  }
}

}  // namespace detail_str

// ---------------------------------------------------------------------------
// Dispatched entry points (the API exec/kernels.h routes through).
// ---------------------------------------------------------------------------

#if SWOLE_SIMD_X86
#define SWOLE_STR_DISPATCH(fn, ...)                         \
  switch (ActiveBackend()) {                                \
    case Backend::kAvx2:                                    \
      return detail_str::fn<Avx2StrOps>(__VA_ARGS__);       \
    default:                                                \
      return detail_str::fn<ScalarStrOps>(__VA_ARGS__);     \
  }
#else
#define SWOLE_STR_DISPATCH(fn, ...) \
  return detail_str::fn<ScalarStrOps>(__VA_ARGS__)
#endif

/// out[j] = (row start+j == lit), 0/1 bytes.
inline void StrEqLit(const uint8_t* bytes, const uint32_t* offsets,
                     int64_t start, int64_t len, std::string_view lit,
                     uint8_t* out) {
  const uint8_t* l = reinterpret_cast<const uint8_t*>(lit.data());
  const int64_t ln = static_cast<int64_t>(lit.size());
  SWOLE_STR_DISPATCH(StrEqLitTileT, bytes, offsets, start, len, l, ln, out);
}

/// out[j] = (row start+j OP lit) under memcmp order with length tiebreak.
inline void StrCmpLit(CmpOp op, const uint8_t* bytes, const uint32_t* offsets,
                      int64_t start, int64_t len, std::string_view lit,
                      uint8_t* out) {
  const uint8_t* l = reinterpret_cast<const uint8_t*>(lit.data());
  const int64_t ln = static_cast<int64_t>(lit.size());
  SWOLE_STR_DISPATCH(StrCmpLitTileT, op, bytes, offsets, start, len, l, ln,
                     out);
}

/// out[j] = row start+j starts with `prefix`.
inline void StrPrefix(const uint8_t* bytes, const uint32_t* offsets,
                      int64_t start, int64_t len, std::string_view prefix,
                      uint8_t* out) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(prefix.data());
  const int64_t pn = static_cast<int64_t>(prefix.size());
  SWOLE_STR_DISPATCH(StrPrefixTileT, bytes, offsets, start, len, p, pn, out);
}

/// out[j] = row start+j ends with `suffix`.
inline void StrSuffix(const uint8_t* bytes, const uint32_t* offsets,
                      int64_t start, int64_t len, std::string_view suffix,
                      uint8_t* out) {
  const uint8_t* s = reinterpret_cast<const uint8_t*>(suffix.data());
  const int64_t sn = static_cast<int64_t>(suffix.size());
  SWOLE_STR_DISPATCH(StrSuffixTileT, bytes, offsets, start, len, s, sn, out);
}

/// out[j] = row start+j contains `needle` (empty needle matches all).
inline void StrContains(const uint8_t* bytes, const uint32_t* offsets,
                        int64_t start, int64_t len, std::string_view needle,
                        uint8_t* out) {
  const uint8_t* nd = reinterpret_cast<const uint8_t*>(needle.data());
  const int64_t nn = static_cast<int64_t>(needle.size());
  SWOLE_STR_DISPATCH(StrContainsTileT, bytes, offsets, start, len, nd, nn,
                     out);
}

/// out[j] = row start+j matches `lk` (negation folded in). Contains and
/// unanchored token patterns scan the tile's arena span once
/// (StrLikeScanT); the other shapes match row by row.
inline void StrLikeTile(const uint8_t* bytes, const uint32_t* offsets,
                        int64_t start, int64_t len, const CompiledLike& lk,
                        uint8_t* out) {
  SWOLE_STR_DISPATCH(StrLikeTileT, bytes, offsets, start, len, lk, out);
}

/// cmp[j] &= row start+j matches `lk`; lanes already 0 are skipped (the
/// pulled-predicate refine).
inline void StrLikeTileAnd(const uint8_t* bytes, const uint32_t* offsets,
                           int64_t start, int64_t len, const CompiledLike& lk,
                           uint8_t* cmp) {
  SWOLE_STR_DISPATCH(StrLikeTileAndT, bytes, offsets, start, len, lk, cmp);
}

#undef SWOLE_STR_DISPATCH

/// Single-row compiled LIKE (reference engine, data-centric JIT emission).
/// Dispatched like the tiles so even per-row matching exercises the active
/// tier's primitives.
inline bool StrLikeOne(const uint8_t* bytes, const uint32_t* offsets,
                       int64_t row, const CompiledLike& lk) {
  const uint32_t off = offsets[row];
  const int64_t n = offsets[row + 1] - off;
  bool match = false;
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      match = detail_str::MatchCompiled<Avx2StrOps>(bytes + off, n, lk);
      break;
#endif
    default:
      match = detail_str::MatchCompiled<ScalarStrOps>(bytes + off, n, lk);
      break;
  }
  return match != lk.negated;
}

/// Leftmost occurrence of `needle` in `hay`, or -1; empty needle -> 0.
/// The dispatched memmem primitive (benches use it directly).
inline int64_t StrFindFirst(const uint8_t* hay, int64_t hlen,
                            const uint8_t* needle, int64_t nlen) {
  if (nlen == 0) return 0;
  if (nlen > hlen) return -1;
  switch (ActiveBackend()) {
#if SWOLE_SIMD_X86
    case Backend::kAvx2:
      return Avx2StrOps::Find(hay, hlen, needle, nlen);
#endif
    default:
      return ScalarStrOps::Find(hay, hlen, needle, nlen);
  }
}

/// Per-row FNV-1a hashes (seed/recurrence shared with Fnv1aHash64). One
/// sequential loop on every tier — the recurrence admits no bit-identical
/// width trick — so "dispatch" here documents intent, not a fast path.
inline void StrHashTile(const uint8_t* bytes, const uint32_t* offsets,
                        int64_t start, int64_t len, uint64_t* out) {
  for (int64_t j = 0; j < len; ++j) {
    const uint32_t off = offsets[start + j];
    const uint32_t end = offsets[start + j + 1];
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint32_t i = off; i < end; ++i) {
      h ^= bytes[i];
      h *= 0x100000001B3ULL;
    }
    out[j] = h;
  }
}

}  // namespace swole::simd

#endif  // SWOLE_EXEC_SIMD_STRING_H_

// Differential tests for the raw-string kernels (exec/simd_string.h) and
// the access-aware string predicate placement (cost/string_placement.h):
//
//  - every string primitive, on every backend the host supports, must be
//    byte-identical to the scalar reference across value lengths, arena
//    alignments, and needle positions — embedded NUL and non-ASCII bytes
//    included;
//  - the compiled LIKE matcher must agree with common/string_util.h's
//    LikeMatch on randomized pattern × value grids;
//  - string-predicate queries must reproduce the reference oracle under
//    every strategy × backend × thread count × forced placement, both
//    interpreted and JIT-compiled;
//  - the placement decision itself must flip across the selectivity sweep
//    (pull under selective other-qualifications, push otherwise).
//
// Runs under the `strings` ctest label (SWOLE_SIMD shards it per backend).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codegen/generator.h"
#include "codegen/jit.h"
#include "common/string_util.h"
#include "cost/string_placement.h"
#include "engine/reference_engine.h"
#include "exec/kernels.h"
#include "exec/simd.h"
#include "exec/simd_string.h"
#include "micro/micro.h"
#include "storage/string_column.h"
#include "storage/table.h"
#include "strategies/strategy.h"
#include "strategies/swole.h"

namespace swole {
namespace {

using simd::Backend;
using simd::CmpOp;
using simd::CompiledLike;

class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::SetBackend(saved_); }

 private:
  Backend saved_;
};

// Restores SWOLE_STR_PLACEMENT when a test scope exits (the engines re-read
// it on every Analyze, so setenv is the forcing mechanism).
class PlacementGuard {
 public:
  PlacementGuard() {
    const char* v = std::getenv("SWOLE_STR_PLACEMENT");
    if (v != nullptr) saved_ = v;
  }
  ~PlacementGuard() {
    if (saved_.empty()) {
      unsetenv("SWOLE_STR_PLACEMENT");
    } else {
      setenv("SWOLE_STR_PLACEMENT", saved_.c_str(), 1);
    }
  }
  static void Force(const char* mode) {
    setenv("SWOLE_STR_PLACEMENT", mode, 1);
  }

 private:
  std::string saved_;
};

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (simd::CpuHasAvx2()) backends.push_back(Backend::kAvx2);
  return backends;
}

std::vector<Backend> AltBackends() {
  std::vector<Backend> backends = SupportedBackends();
  backends.erase(backends.begin());
  return backends;
}

// Value-length classes: empty, sub-word, word-boundary straddlers, and
// multi-vector values.
const int64_t kValueLens[] = {0, 1, 5, 7, 8, 9, 15, 16, 31, 33, 64, 200};

// Columns whose rows start at every offset mod 8: `pad` leading filler
// bytes shift the whole arena, so the word/vector loads inside the kernels
// see every alignment class. The filler lives in row 0, which the sweeps
// skip via start = 1.
StringColumn MakeColumn(const std::vector<std::string>& values,
                        int64_t pad) {
  StringColumn col;
  col.Append(std::string(static_cast<size_t>(pad), '#'));
  for (const std::string& v : values) col.Append(v);
  return col;
}

// Byte soup for the differential sweeps: lowercase background plus rows
// with the needle at the start / middle / end, near-miss rows, embedded
// NUL, and high-bit (non-ASCII) bytes.
std::vector<std::string> MakeValues(int64_t rows, int64_t value_len,
                                    std::string_view needle,
                                    std::mt19937_64* rng) {
  std::uniform_int_distribution<int> letter('a', 'z');
  std::vector<std::string> values;
  values.reserve(static_cast<size_t>(rows));
  const int64_t n = static_cast<int64_t>(needle.size());
  for (int64_t i = 0; i < rows; ++i) {
    std::string v(static_cast<size_t>(value_len), 'x');
    for (char& c : v) c = static_cast<char>(letter(*rng));
    if (value_len >= n && n > 0) {
      switch (i % 8) {
        case 0:  // needle at the very start
          v.replace(0, static_cast<size_t>(n), needle);
          break;
        case 1:  // needle at the very end
          v.replace(static_cast<size_t>(value_len - n),
                    static_cast<size_t>(n), needle);
          break;
        case 2:  // needle mid-row (crosses word boundaries as len varies)
          v.replace(static_cast<size_t>((value_len - n) / 2),
                    static_cast<size_t>(n), needle);
          break;
        case 3: {  // near miss: needle with its last byte corrupted
          std::string miss(needle);
          miss.back() = static_cast<char>(miss.back() ^ 0x01);
          v.replace(static_cast<size_t>((value_len - n) / 2),
                    static_cast<size_t>(n), miss);
          break;
        }
        default:
          break;
      }
    }
    if (i % 5 == 0 && value_len >= 2) v[value_len / 2] = '\0';
    if (i % 7 == 0 && value_len >= 1) v[0] = static_cast<char>(0xC3);
    values.push_back(std::move(v));
  }
  return values;
}

// Runs `fn(out)` under the scalar backend and every alternative backend;
// every byte of `out` must agree.
template <typename Fn>
void DiffAcrossBackends(int64_t len, const char* what, Fn fn) {
  std::vector<uint8_t> expected(static_cast<size_t>(len) + 1, 0xAB);
  simd::SetBackend(Backend::kScalar);
  fn(expected.data());
  for (Backend b : AltBackends()) {
    std::vector<uint8_t> got(static_cast<size_t>(len) + 1, 0xCD);
    simd::SetBackend(b);
    fn(got.data());
    for (int64_t j = 0; j < len; ++j) {
      ASSERT_EQ(got[j], expected[j])
          << what << " under " << simd::BackendName(b) << " len " << len
          << " lane " << j;
    }
  }
}

TEST(StringKernels, EqPrefixSuffixContainsSweep) {
  BackendGuard guard;
  std::mt19937_64 rng(71);
  const std::string needle = "zebra";
  for (int64_t value_len : kValueLens) {
    for (int64_t pad : {0, 1, 3, 7}) {
      std::vector<std::string> values =
          MakeValues(33, value_len, needle, &rng);
      // One exact-equality row so StrEqLit sees a hit at every length.
      if (!values.empty()) values[4] = values[0];
      StringColumn col = MakeColumn(values, pad);
      const uint8_t* bytes = col.bytes();
      const uint32_t* offsets = col.offsets();
      const int64_t len = col.size() - 1;
      const std::string lit = values.empty() ? "" : values[0];

      DiffAcrossBackends(len, "StrEqLit", [&](uint8_t* out) {
        kernels::StrEqLit(bytes, offsets, 1, len, lit, out);
      });
      DiffAcrossBackends(len, "StrPrefix", [&](uint8_t* out) {
        kernels::StrPrefix(bytes, offsets, 1, len, "ze", out);
      });
      DiffAcrossBackends(len, "StrSuffix", [&](uint8_t* out) {
        kernels::StrSuffix(bytes, offsets, 1, len, "ra", out);
      });
      DiffAcrossBackends(len, "StrContains", [&](uint8_t* out) {
        kernels::StrContains(bytes, offsets, 1, len, needle, out);
      });
      // Needle containing an embedded NUL: matching stays byte-exact.
      DiffAcrossBackends(len, "StrContainsNul", [&](uint8_t* out) {
        kernels::StrContains(bytes, offsets, 1, len,
                             std::string_view("a\0b", 3), out);
      });
    }
  }
}

TEST(StringKernels, CmpLitAllOpsSweep) {
  BackendGuard guard;
  std::mt19937_64 rng(72);
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  for (int64_t value_len : {0LL, 1LL, 7LL, 8LL, 9LL, 33LL}) {
    for (int64_t pad : {0, 5}) {
      std::vector<std::string> values =
          MakeValues(29, value_len, "mm", &rng);
      StringColumn col = MakeColumn(values, pad);
      const int64_t len = col.size() - 1;
      // Literals shorter than / equal to / longer than the rows exercise
      // the length tiebreak; the empty literal orders before everything.
      for (const std::string& lit :
           {std::string("m"), std::string(static_cast<size_t>(value_len), 'm'),
            std::string("mmmmmmmmmmmm"), std::string()}) {
        for (CmpOp op : ops) {
          DiffAcrossBackends(len, "StrCmpLit", [&](uint8_t* out) {
            kernels::StrCmpLit(op, col.bytes(), col.offsets(), 1, len, lit,
                               out);
          });
        }
      }
    }
  }
}

TEST(StringKernels, FindFirstNeedlePositions) {
  BackendGuard guard;
  // Candidate-order contract: the returned index is the leftmost match on
  // every tier, even with repeated near-matches before it. Haystacks of
  // 31..38 bytes put the last start just below, at, and just above the
  // first full 32-start block for each needle length.
  std::mt19937_64 rng(73);
  std::uniform_int_distribution<int> letter('a', 'e');  // dense false hits
  for (int64_t hlen : {1LL, 7LL, 8LL, 9LL, 31LL, 32LL, 33LL, 34LL, 36LL,
                       37LL, 38LL, 63LL, 64LL, 65LL, 1000LL}) {
    std::string hay(static_cast<size_t>(hlen), 'x');
    for (char& c : hay) c = static_cast<char>(letter(rng));
    for (const std::string& needle :
         {std::string("a"), std::string("ab"), std::string("abcabc"),
          std::string("zz"), std::string("\0a", 2)}) {
      const int64_t nlen = static_cast<int64_t>(needle.size());
      std::vector<int64_t> plants = {-1, hlen - nlen};
      for (int64_t plant = 0; plant <= hlen; plant += 7) {
        plants.push_back(plant);
      }
      for (int64_t plant : plants) {
        std::string h = hay;
        if (plant >= 0 && plant + nlen <= hlen) {
          h.replace(static_cast<size_t>(plant), needle.size(), needle);
        }
        const size_t at = std::string_view(h).find(needle);
        const int64_t expected =
            at == std::string_view::npos ? -1 : static_cast<int64_t>(at);
        for (Backend b : SupportedBackends()) {
          simd::SetBackend(b);
          EXPECT_EQ(kernels::StrFindFirst(
                        reinterpret_cast<const uint8_t*>(h.data()), hlen,
                        reinterpret_cast<const uint8_t*>(needle.data()),
                        nlen),
                    expected)
              << simd::BackendName(b) << " hlen " << hlen << " needle size "
              << needle.size() << " plant " << plant;
        }
      }
    }
  }
}

TEST(StringKernels, HashTileMatchesFnv1a) {
  BackendGuard guard;
  std::mt19937_64 rng(74);
  std::vector<std::string> values = MakeValues(64, 23, "zebra", &rng);
  values[0].clear();  // empty row hashes to the seed
  StringColumn col = MakeColumn(values, 3);
  const int64_t len = col.size() - 1;
  for (Backend b : SupportedBackends()) {
    simd::SetBackend(b);
    std::vector<uint64_t> hashes(static_cast<size_t>(len));
    kernels::StrHashTile(col.bytes(), col.offsets(), 1, len, hashes.data());
    for (int64_t j = 0; j < len; ++j) {
      EXPECT_EQ(hashes[j], Fnv1aHash64(values[static_cast<size_t>(j)]))
          << simd::BackendName(b) << " row " << j;
    }
  }
}

TEST(StringKernels, LikeTileShapesAndMaskedRefine) {
  BackendGuard guard;
  std::mt19937_64 rng(75);
  // One pattern per compiled shape (simd_string.h CompiledLike::Kind).
  const struct {
    const char* pattern;
    bool negated;
  } patterns[] = {
      {"%", false},                     // kAll
      {"zebra", false},                 // kEquals
      {"ze%", false},                   // kPrefix
      {"%ra", false},                   // kSuffix
      {"%zebra%", false},               // kContains
      {"ze%ra%", false},                // kTokens, anchored prefix
      {"%ze%bra", false},               // kTokens, anchored suffix
      {"%ze_ra%", false},               // kGeneral ('_')
      {"%zebra%", true},                // NOT LIKE folds into every shape
      {"ze_ra", true},                  // negated kGeneral
  };
  for (int64_t value_len : {0LL, 5LL, 9LL, 33LL}) {
    std::vector<std::string> values = MakeValues(41, value_len, "zebra",
                                                 &rng);
    StringColumn col = MakeColumn(values, 1);
    const int64_t len = col.size() - 1;
    for (const auto& p : patterns) {
      const CompiledLike lk = simd::CompileLike(p.pattern, p.negated);
      DiffAcrossBackends(len, p.pattern, [&](uint8_t* out) {
        kernels::StrLikeTile(col.bytes(), col.offsets(), 1, len, lk, out);
      });
      // Guarded refine: dead lanes stay untouched, live lanes AND in the
      // match — equivalent to StrLikeTile wherever cmp[j] was 1.
      std::vector<uint8_t> cmp(static_cast<size_t>(len) + 1);
      for (int64_t j = 0; j < len; ++j) {
        cmp[j] = static_cast<uint8_t>(rng() & 1);
      }
      std::vector<uint8_t> full(static_cast<size_t>(len) + 1, 0xEE);
      simd::SetBackend(Backend::kScalar);
      kernels::StrLikeTile(col.bytes(), col.offsets(), 1, len, lk,
                           full.data());
      for (Backend b : SupportedBackends()) {
        simd::SetBackend(b);
        std::vector<uint8_t> refined = cmp;
        kernels::StrLikeTileAnd(col.bytes(), col.offsets(), 1, len, lk,
                                refined.data());
        for (int64_t j = 0; j < len; ++j) {
          ASSERT_EQ(refined[j], cmp[j] ? full[j] : 0)
              << p.pattern << " under " << simd::BackendName(b) << " lane "
              << j;
        }
        // Per-row entry point agrees with the tile.
        for (int64_t j = 0; j < len; ++j) {
          ASSERT_EQ(kernels::StrLikeOne(col.bytes(), col.offsets(), 1 + j,
                                        lk),
                    full[j] != 0)
              << p.pattern << " under " << simd::BackendName(b) << " row "
              << j;
        }
      }
    }
  }
}

// StrLikeTile scans a tile's whole arena span at once for contains and
// unanchored token patterns, so a token split across two rows, or one
// token in each of two rows, must never match. Every window of a column
// built for that is checked row by row against LikeMatch.
TEST(StringKernels, LikeTileTokensAcrossRowBoundaries) {
  BackendGuard guard;
  std::vector<std::string> values = {
      "special requests",  // hit in the first row
      "ask for spe",       // "special" split across the boundary ...
      "cial requests",     // ... continues here
      "",                  // empty rows between fragments
      "sp",                // shorter than the token
      "",
      "eci",
      "al",
      "the special",       // first token here,
      "requests later",    // second token only in the next row
      "requests special",  // both tokens, wrong order
      "specia",
      "l requests",
      "special",
      "specialspecial requests",
      "xx spec",
      "ialrequests",
      "quests",
      "special requests",  // hit in the last row
  };
  std::mt19937_64 rng(77);
  const char* pieces[] = {"spe", "cial", "special", "re", "quests",
                          "requests", "", " "};
  std::uniform_int_distribution<int> piece(0, 7);
  for (int r = 0; r < 200; ++r) {
    std::string v;
    for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
      v += pieces[piece(rng)];
    }
    values.push_back(std::move(v));
  }
  values.push_back("special requests");
  StringColumn col = MakeColumn(values, 3);
  const int64_t rows = static_cast<int64_t>(values.size());

  const char* patterns[] = {
      "%special%",           // kContains
      "%cial%",              // kContains, shorter token
      "%special%requests%",  // kTokens, unanchored (Q13's shape)
      "%special%requests",   // kTokens, end-anchored
      "%spe%cial%quests%",   // kTokens, three tokens
      "special%requests%",   // kTokens, anchored prefix (per-row path)
  };
  for (Backend b : SupportedBackends()) {
    simd::SetBackend(b);
    for (const char* pattern : patterns) {
      for (bool negated : {false, true}) {
        const CompiledLike lk = simd::CompileLike(pattern, negated);
        for (int64_t start = 1; start <= 20; ++start) {
          for (int64_t len : {int64_t{1}, int64_t{2}, int64_t{3},
                              int64_t{7}, rows - start + 1}) {
            if (start - 1 + len > rows) continue;
            std::vector<uint8_t> out(static_cast<size_t>(len) + 1, 0xCD);
            kernels::StrLikeTile(col.bytes(), col.offsets(), start, len, lk,
                                 out.data());
            for (int64_t j = 0; j < len; ++j) {
              const std::string& v =
                  values[static_cast<size_t>(start - 1 + j)];
              ASSERT_EQ(out[j], LikeMatch(v, pattern) != negated ? 1 : 0)
                  << "pattern \"" << pattern << "\" negated " << negated
                  << " under " << simd::BackendName(b) << " start " << start
                  << " len " << len << " row \"" << v << "\"";
            }
            ASSERT_EQ(out[len], 0xCD) << "wrote past the tile";
          }
        }
      }
    }
  }
}

// Randomized CompiledLike-vs-LikeMatch differential: the compiled shapes
// (and the '_' fallback) must agree with the two-pointer reference in
// common/string_util.h on arbitrary pattern × value pairs.
TEST(StringKernels, CompiledLikeMatchesStringUtilReference) {
  BackendGuard guard;
  std::mt19937_64 rng(76);
  std::uniform_int_distribution<int> piece_kind(0, 5);
  std::uniform_int_distribution<int> letter('a', 'd');  // dense collisions
  std::uniform_int_distribution<int> run_len(1, 4);
  auto random_pattern = [&]() {
    std::string p;
    const int pieces = static_cast<int>(rng() % 5);
    for (int i = 0; i < pieces; ++i) {
      switch (piece_kind(rng)) {
        case 0:
          p += '%';
          break;
        case 1:
          p += '_';
          break;
        default: {
          const int n = run_len(rng);
          for (int j = 0; j < n; ++j) {
            p += static_cast<char>(letter(rng));
          }
          break;
        }
      }
    }
    return p;
  };
  auto random_value = [&]() {
    std::string v;
    const int n = static_cast<int>(rng() % 12);
    for (int j = 0; j < n; ++j) {
      const int k = static_cast<int>(rng() % 10);
      if (k == 0) {
        v += '\0';
      } else if (k == 1) {
        v += static_cast<char>(0xE2);
      } else {
        v += static_cast<char>(letter(rng));
      }
    }
    return v;
  };
  for (int iter = 0; iter < 400; ++iter) {
    const std::string pattern = random_pattern();
    StringColumn col;
    std::vector<std::string> values;
    for (int r = 0; r < 8; ++r) {
      values.push_back(random_value());
      col.Append(values.back());
    }
    for (bool negated : {false, true}) {
      const CompiledLike lk = simd::CompileLike(pattern, negated);
      for (Backend b : SupportedBackends()) {
        simd::SetBackend(b);
        for (int r = 0; r < 8; ++r) {
          const bool expected =
              LikeMatch(values[static_cast<size_t>(r)], pattern) != negated;
          ASSERT_EQ(kernels::StrLikeOne(col.bytes(), col.offsets(), r, lk),
                    expected)
              << "pattern \"" << pattern << "\" value len "
              << values[static_cast<size_t>(r)].size() << " negated "
              << negated << " backend " << simd::BackendName(b);
        }
      }
    }
  }
}

// ---- Placement decision ----

class StringPlacementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 20'001;  // several tiles; not a multiple of 1024
    config.s_small_rows = 100;
    config.s_large_rows = 3'000;
    config.c_cardinalities = {10, 97};
    config.seed = 13;
    data_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static MicroData* data_;
};

MicroData* StringPlacementTest::data_ = nullptr;

TEST_F(StringPlacementTest, DecisionFlipsAcrossTheSelectivitySweep) {
  PlacementGuard env;
  PlacementGuard::Force("auto");
  // sigma_other ~ sel/100: selective dim filters leave few survivors, so
  // pulling the LIKE above the join wins; permissive ones push it down.
  // The plans outlive the splits — `pulled` aliases their filter trees.
  const QueryPlan selective = MicroQ6(false, 5);
  const QueryPlan permissive = MicroQ6(false, 95);
  StringPredSplit low =
      DecideStringPlacement(selective, data_->catalog, CostProfile::Default());
  StringPredSplit high = DecideStringPlacement(permissive, data_->catalog,
                                               CostProfile::Default());
  EXPECT_TRUE(low.pull) << low.rationale;
  EXPECT_FALSE(high.pull) << high.rationale;
  ASSERT_EQ(low.pulled.size(), 1u);
  EXPECT_EQ(low.pulled[0]->kind, ExprKind::kLike);
  EXPECT_EQ(low.scan_filter, nullptr);  // the LIKE was the whole filter
  EXPECT_NE(high.scan_filter, nullptr);

  // Forced modes override the model in both directions.
  PlacementGuard::Force("push");
  EXPECT_FALSE(
      DecideStringPlacement(selective, data_->catalog, CostProfile::Default())
          .pull);
  PlacementGuard::Force("pull");
  EXPECT_TRUE(DecideStringPlacement(permissive, data_->catalog,
                                    CostProfile::Default())
                  .pull);
}

TEST_F(StringPlacementTest, SwoleDecisionsRecordThePullup) {
  PlacementGuard env;
  PlacementGuard::Force("auto");
  auto engine = MakeSwoleStrategy(data_->catalog);
  // Deliberately passes temporaries: consecutive plan temporaries reuse a
  // stack address, so this also regression-tests the analysis cache's
  // plan-name validity check (a stale hit would chase dangling pointers
  // into the first temporary's filter tree).
  ASSERT_TRUE(engine->Execute(MicroQ6(false, 5)).ok());
  EXPECT_TRUE(engine->last_decisions().used_string_pullup)
      << engine->last_decisions().rationale;
  ASSERT_TRUE(engine->Execute(MicroQ6(false, 95)).ok());
  EXPECT_FALSE(engine->last_decisions().used_string_pullup)
      << engine->last_decisions().rationale;

  // One engine, one plan, the mode flipped push -> pull -> push -> auto:
  // the analysis cache keys on the mode, so each run takes its own mode's
  // decision and the third is served by the first run's entry.
  auto flipping = MakeSwoleStrategy(data_->catalog);
  const QueryPlan plan = MicroQ6(false, 5);
  const std::pair<const char*, bool> kRuns[] = {
      {"push", false}, {"pull", true}, {"push", false}, {"auto", true}};
  for (const auto& [mode, pulled] : kRuns) {
    PlacementGuard::Force(mode);
    ASSERT_TRUE(flipping->Execute(plan).ok()) << mode;
    EXPECT_EQ(flipping->last_decisions().used_string_pullup, pulled)
        << mode << ": " << flipping->last_decisions().rationale;
  }
}

// ---- Query-level bit-exactness ----
//
// Every strategy engine, under every backend, at 1/2/8 threads, with the
// placement forced both ways and decided automatically, must reproduce
// the reference oracle (which runs scalar, pushed).

class StringQueryTest : public StringPlacementTest {
 protected:
  static void CheckAcrossBackends(const QueryPlan& plan) {
    BackendGuard guard;
    PlacementGuard env;
    PlacementGuard::Force("push");
    simd::SetBackend(Backend::kScalar);
    ReferenceEngine oracle(data_->catalog);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    for (const char* placement : {"push", "pull", "auto"}) {
      PlacementGuard::Force(placement);
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
                << " at " << threads << " threads, placement " << placement
                << ", diverges on " << plan.name;
          }
        }
      }
    }
  }
};

TEST_F(StringQueryTest, LikeOnlyScan) {
  QueryPlan plan;
  plan.name = "like_only";
  plan.fact_table = "r";
  plan.fact_filter = Like("r_s", "%zebra%");
  plan.aggs.emplace_back(AggKind::kSum, Mul(Col("r_a"), Col("r_b")),
                         "sum_ab");
  CheckAcrossBackends(plan);
}

TEST_F(StringQueryTest, LikeJoinSelective) {
  CheckAcrossBackends(MicroQ6(false, 10));
}

TEST_F(StringQueryTest, LikeJoinPermissive) {
  CheckAcrossBackends(MicroQ6(true, 80));
}

TEST_F(StringQueryTest, NotLikeWithNumericConjunct) {
  QueryPlan plan = MicroQ6(false, 50);
  plan.name = "notlike_mixed";
  plan.fact_filter =
      And(NotLike("r_s", "%zebra%"), Lt(Col("r_x"), Lit(60)));
  CheckAcrossBackends(plan);
}

TEST_F(StringQueryTest, GroupByWithPulledLike) {
  QueryPlan plan;
  plan.name = "like_groupby";
  plan.fact_table = "r";
  plan.fact_filter = Like("r_s", "%zebra%");
  DimJoin dim;
  dim.hop = {"r_fk_small", "s_small", "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(15));
  plan.dims.push_back(std::move(dim));
  plan.group_by = Col(data_->c_columns[0]);
  plan.group_cardinality_hint = data_->c_actual[0];
  plan.aggs.emplace_back(AggKind::kSum, Mul(Col("r_a"), Col("r_b")),
                         "sum_ab");
  CheckAcrossBackends(plan);
}

// ---- JIT differential ----
//
// The generated kernels honor the same split: source shape follows the
// placement, results match the oracle either way.

TEST_F(StringPlacementTest, JitHonorsPlacementAndMatchesOracle) {
  BackendGuard guard;
  PlacementGuard env;
  PlacementGuard::Force("push");
  simd::SetBackend(Backend::kScalar);
  ReferenceEngine oracle(data_->catalog);
  const QueryPlan plan = MicroQ6(false, 30);
  QueryResult expected = oracle.Execute(plan).value();

  for (const char* placement : {"push", "pull"}) {
    PlacementGuard::Force(placement);
    // No ROF: the generator has no ROF emission (interpreted only).
    for (StrategyKind kind :
         {StrategyKind::kDataCentric, StrategyKind::kHybrid,
          StrategyKind::kSwole}) {
      codegen::GeneratorOptions options;
      options.strategy = kind;
      Result<codegen::GeneratedKernel> kernel =
          codegen::GenerateKernel(plan, data_->catalog, options);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      const bool pulled = std::string(placement) == "pull";
      if (kind != StrategyKind::kDataCentric) {
        // Pushed LIKE runs in the prepass tile kernel; pulled LIKE runs
        // as a guarded refine (masked pipelines) or per-survivor check.
        EXPECT_EQ(kernel->source.find("StrLikeTile(") != std::string::npos,
                  !pulled)
            << StrategyKindName(kind) << " placement " << placement;
      }
      if (pulled) {
        EXPECT_TRUE(
            kernel->source.find("StrLikeTileAnd(") != std::string::npos ||
            kernel->source.find("StrLikeOne(") != std::string::npos)
            << StrategyKindName(kind) << "\n"
            << kernel->source;
      }
      Result<std::unique_ptr<codegen::CompiledKernel>> compiled =
          codegen::GenerateAndCompile(plan, data_->catalog, options);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      Result<QueryResult> actual = (*compiled)->Run(data_->catalog);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, expected)
          << StrategyKindName(kind) << " placement " << placement
          << "\nsource:\n"
          << (*compiled)->kernel().source;
    }
  }
}

}  // namespace
}  // namespace swole

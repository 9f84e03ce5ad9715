#include "plan/result.h"

#include <algorithm>
#include <cstdint>

#include "common/string_util.h"

namespace swole {

void QueryResult::SortGroups() {
  const int64_t n = NumGroups();
  if (n <= 1) return;
  SWOLE_CHECK_LE(n, int64_t{UINT32_MAX});
  int64_t lo = group_keys[0];
  int64_t hi = lo;
  bool sorted = true;
  for (int64_t i = 1; i < n; ++i) {
    const int64_t key = group_keys[i];
    sorted &= group_keys[i - 1] <= key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  if (sorted) return;

  // LSD radix sort of (key - lo, index) pairs, one byte per pass, over only
  // the bytes the key span needs. Offsetting by the minimum key orders
  // negative keys before positive ones in unsigned arithmetic. Each pass is
  // stable, so equal keys keep their input order (as std::stable_sort
  // would), and a pass whose digit is the same for every key is skipped.
  constexpr int kRadix = 256;
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const int passes = (64 - __builtin_clzll(span) + 7) / 8;
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> index(n);
  std::vector<int64_t> counts(static_cast<size_t>(passes) * kRadix, 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t key =
        static_cast<uint64_t>(group_keys[i]) - static_cast<uint64_t>(lo);
    keys[i] = key;
    index[i] = static_cast<uint32_t>(i);
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kRadix + ((key >> (8 * p)) & 0xFF)];
    }
  }
  std::vector<uint64_t> keys_out(n);
  std::vector<uint32_t> index_out(n);
  for (int p = 0; p < passes; ++p) {
    int64_t* count = counts.data() + p * kRadix;
    const int shift = 8 * p;
    if (count[(keys[0] >> shift) & 0xFF] == n) continue;
    int64_t offset = 0;
    for (int d = 0; d < kRadix; ++d) {
      const int64_t c = count[d];
      count[d] = offset;
      offset += c;
    }
    for (int64_t i = 0; i < n; ++i) {
      const int64_t dst = count[(keys[i] >> shift) & 0xFF]++;
      keys_out[dst] = keys[i];
      index_out[dst] = index[i];
    }
    keys.swap(keys_out);
    index.swap(index_out);
  }

  std::vector<int64_t> sorted_aggs(group_aggs.size());
  for (int64_t i = 0; i < n; ++i) {
    group_keys[i] =
        static_cast<int64_t>(keys[i] + static_cast<uint64_t>(lo));
    const int64_t* src = group_aggs.data() + int64_t{index[i]} * num_aggs;
    std::copy(src, src + num_aggs, sorted_aggs.data() + i * num_aggs);
  }
  group_aggs = std::move(sorted_aggs);
}

std::string QueryResult::ToString(int max_rows) const {
  std::string out;
  if (!grouped) {
    for (size_t i = 0; i < scalar.size(); ++i) {
      const char* name = i < agg_names.size() ? agg_names[i].c_str() : "agg";
      out += StringFormat("%s = %lld\n", name,
                          static_cast<long long>(scalar[i]));
    }
    return out;
  }
  out += StringFormat("%lld groups\n", static_cast<long long>(NumGroups()));
  for (int64_t i = 0; i < NumGroups() && i < max_rows; ++i) {
    out += StringFormat("key=%lld:", static_cast<long long>(group_keys[i]));
    for (int a = 0; a < num_aggs; ++a) {
      out += StringFormat(" %lld", static_cast<long long>(GroupAgg(i, a)));
    }
    out += "\n";
  }
  if (NumGroups() > max_rows) out += "...\n";
  return out;
}

}  // namespace swole

// Unit tests for the shared linear-probing hash table: insert/find/erase,
// growth, tombstone reuse, the reserved throwaway (mask) key, payload
// widths, a randomized differential test against std::unordered_map, and
// the concurrent shared insert of the two-phase build.

#include <gtest/gtest.h>

#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "exec/hash_table.h"

namespace swole {
namespace {

TEST(HashTableTest, InsertAndFind) {
  HashTable table(/*payload_width=*/2);
  int64_t* p = table.GetOrInsert(42);
  EXPECT_EQ(p[0], 0);  // zero-initialized
  p[0] = 7;
  p[1] = -1;
  EXPECT_EQ(table.size(), 1);
  int64_t* q = table.GetOrInsert(42);
  EXPECT_EQ(q[0], 7);
  EXPECT_EQ(q[1], -1);
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.Find(43), nullptr);
  EXPECT_TRUE(table.Contains(42));
}

TEST(HashTableTest, GrowthPreservesPayloads) {
  HashTable table(/*payload_width=*/1, /*expected_keys=*/4);
  for (int64_t k = 0; k < 10000; ++k) {
    *table.GetOrInsert(k * 3) = k;
  }
  EXPECT_EQ(table.size(), 10000);
  for (int64_t k = 0; k < 10000; ++k) {
    const int64_t* p = table.Find(k * 3);
    ASSERT_NE(p, nullptr) << k;
    EXPECT_EQ(*p, k);
  }
  EXPECT_EQ(table.Find(1), nullptr);
}

TEST(HashTableTest, EraseAndTombstoneReuse) {
  HashTable table(/*payload_width=*/1, 64);
  for (int64_t k = 0; k < 50; ++k) *table.GetOrInsert(k) = k;
  for (int64_t k = 0; k < 50; k += 2) EXPECT_TRUE(table.Erase(k));
  EXPECT_FALSE(table.Erase(100));
  EXPECT_EQ(table.size(), 25);
  for (int64_t k = 0; k < 50; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(table.Find(k), nullptr) << k;
    } else {
      ASSERT_NE(table.Find(k), nullptr) << k;
      EXPECT_EQ(*table.Find(k), k);
    }
  }
  // Re-inserting an erased key lands in a tombstone with zeroed payload.
  int64_t* p = table.GetOrInsert(10);
  EXPECT_EQ(*p, 0);
  EXPECT_EQ(table.size(), 26);
}

TEST(HashTableTest, FindAfterEraseProbesThroughTombstones) {
  // Force a probe chain, then erase an element in the middle.
  HashTable table(/*payload_width=*/0, 16);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 12; ++k) keys.push_back(k * 7919);
  for (int64_t key : keys) table.GetOrInsert(key);
  table.Erase(keys[3]);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Contains(keys[i]), i != 3) << i;
  }
}

TEST(HashTableTest, MaskKeyIsOrdinary) {
  HashTable table(/*payload_width=*/1);
  *table.GetOrInsert(HashTable::kMaskKey) = 99;
  EXPECT_TRUE(table.Contains(HashTable::kMaskKey));
  EXPECT_EQ(*table.Find(HashTable::kMaskKey), 99);
}

TEST(HashTableTest, WidthZeroActsAsSet) {
  HashTable table(/*payload_width=*/0, 8);
  for (int64_t k = -100; k < 100; k += 7) {
    EXPECT_NE(table.GetOrInsert(k), nullptr);
  }
  EXPECT_TRUE(table.Contains(-100));
  EXPECT_FALSE(table.Contains(-99));
}

TEST(HashTableTest, ForEachVisitsExactlyLiveEntries) {
  HashTable table(/*payload_width=*/1, 16);
  for (int64_t k = 0; k < 30; ++k) *table.GetOrInsert(k) = k * k;
  table.Erase(5);
  table.Erase(17);
  std::unordered_map<int64_t, int64_t> seen;
  table.ForEach([&](int64_t key, const int64_t* payload) {
    EXPECT_TRUE(seen.emplace(key, *payload).second) << "duplicate " << key;
  });
  EXPECT_EQ(seen.size(), 28u);
  EXPECT_EQ(seen.count(5), 0u);
  EXPECT_EQ(seen.at(7), 49);
}

TEST(HashTableTest, DifferentialAgainstStdMap) {
  Rng rng(123);
  HashTable table(/*payload_width=*/1, 16);
  std::unordered_map<int64_t, int64_t> model;
  for (int step = 0; step < 50000; ++step) {
    int64_t key = rng.UniformInt(-500, 500);
    double action = rng.UniformDouble();
    if (action < 0.6) {
      *table.GetOrInsert(key) += 1;
      model[key] += 1;
    } else if (action < 0.8) {
      bool erased = table.Erase(key);
      EXPECT_EQ(erased, model.erase(key) > 0) << "step " << step;
    } else {
      const int64_t* p = table.Find(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(p, nullptr) << "step " << step;
      } else {
        ASSERT_NE(p, nullptr) << "step " << step;
        EXPECT_EQ(*p, it->second) << "step " << step;
      }
    }
  }
  EXPECT_EQ(table.size(), static_cast<int64_t>(model.size()));
}

TEST(HashTableTest, NegativeAndExtremeKeys) {
  HashTable table(/*payload_width=*/1);
  for (int64_t key : {int64_t{0}, int64_t{-1}, INT64_MAX, INT64_MIN + 3}) {
    *table.GetOrInsert(key) = key;
  }
  for (int64_t key : {int64_t{0}, int64_t{-1}, INT64_MAX, INT64_MIN + 3}) {
    ASSERT_NE(table.Find(key), nullptr);
    EXPECT_EQ(*table.Find(key), key);
  }
}

TEST(HashTableTest, ByteSizeGrowsWithCapacity) {
  HashTable small(/*payload_width=*/1, 16);
  HashTable big(/*payload_width=*/1, 100000);
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  EXPECT_GE(big.capacity(), 100000 * 10 / 7);
}

// A memory hook over a fake budget: accepts releases, and refuses every
// charge once `refuse` is set.
struct FakeBudget {
  bool refuse = false;
  int64_t charged = 0;
};

int FakeBudgetHook(void* ctx, int64_t delta, const char* /*site*/) {
  auto* budget = static_cast<FakeBudget*>(ctx);
  if (delta > 0 && budget->refuse) {
    return static_cast<int>(AbortReason::kBudget);
  }
  budget->charged += delta;
  return 0;
}

TEST(HashTableTest, ClearShrinksWithoutAskingTheBudget) {
  FakeBudget budget;
  {
    HashTable table(/*payload_width=*/2);
    table.SetMemHook(FakeBudgetHook, &budget, "test");
    const int64_t fresh_bytes = table.ByteSize();
    for (int64_t k = 0; k < 5000; ++k) table.GetOrInsert(k);
    ASSERT_GT(budget.charged, fresh_bytes);
    budget.refuse = true;  // other charges hold the whole budget
    table.Clear();
    EXPECT_EQ(table.size(), 0);
    EXPECT_EQ(table.ByteSize(), fresh_bytes);
    EXPECT_EQ(budget.charged, fresh_bytes);
    EXPECT_FALSE(table.Contains(42));
    table.GetOrInsert(7);  // a fresh table's room: no growth, no charge
    EXPECT_TRUE(table.Contains(7));
  }
  EXPECT_EQ(budget.charged, 0);
}

// Thread t inserts keys [t * kStride, t * kStride + kSpan) mod kDistinct,
// so every key is inserted by kSpan / kStride threads.
constexpr int kThreads = 8;
constexpr int64_t kDistinct = 40'000;
constexpr int64_t kStride = kDistinct / kThreads;
constexpr int64_t kSpan = kDistinct / 2;

int64_t SharedKey(int t, int64_t i) {
  return ((t * kStride + i) % kDistinct) * 7 - 3;
}

TEST(HashTableTest, SharedInsertClaimsEachKeyOnce) {
  HashTable table(/*payload_width=*/1, kDistinct);
  const int64_t capacity = table.capacity();
  std::vector<int64_t> claimed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &claimed, t] {
      for (int64_t i = 0; i < kSpan; ++i) {
        int64_t* payload = table.InsertShared(SharedKey(t, i));
        if (payload == nullptr) continue;
        ++claimed[t];
        *payload += 1;  // only the claiming thread may write the payload
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  int64_t claimed_total = 0;
  for (int64_t c : claimed) claimed_total += c;
  table.AddClaimed(claimed_total);

  EXPECT_EQ(claimed_total, kDistinct);
  EXPECT_EQ(table.size(), kDistinct);
  EXPECT_EQ(table.capacity(), capacity);
  for (int64_t i = 0; i < kDistinct; ++i) {
    const int64_t* payload = table.Find(SharedKey(0, i));
    ASSERT_NE(payload, nullptr) << i;
    EXPECT_EQ(*payload, 1) << "key " << SharedKey(0, i);
  }
  EXPECT_FALSE(table.Contains(kDistinct * 7));
}

TEST(HashTableTest, SharedInsertBatchStoresClaimedPayloads) {
  HashTable table(/*payload_width=*/1, kDistinct);
  const int64_t capacity = table.capacity();
  std::vector<int64_t> claimed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &claimed, t] {
      std::vector<int64_t> keys(kSpan);
      std::vector<int64_t> payload(kSpan);
      for (int64_t i = 0; i < kSpan; ++i) {
        keys[i] = SharedKey(t, i);
        payload[i] = keys[i] * 2;
      }
      claimed[t] = table.InsertSharedBatch(keys.data(), payload.data(),
                                           kSpan, /*prefetch=*/t % 2 == 0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  int64_t claimed_total = 0;
  for (int64_t c : claimed) claimed_total += c;
  table.AddClaimed(claimed_total);

  EXPECT_EQ(table.size(), kDistinct);
  EXPECT_EQ(table.capacity(), capacity);
  for (int64_t i = 0; i < kDistinct; ++i) {
    const int64_t key = SharedKey(0, i);
    const int64_t* payload = table.Find(key);
    ASSERT_NE(payload, nullptr) << i;
    EXPECT_EQ(*payload, key * 2);
  }
}

}  // namespace
}  // namespace swole

#ifndef SWOLE_EXEC_HASH_TABLE_H_
#define SWOLE_EXEC_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/query_abort.h"

// Open-addressing, linear-probing hash table with int64 keys and a
// fixed-width int64 payload per key. This single structure backs group-by
// aggregation, hash joins, semijoins (payload width 0), groupjoins, and the
// eager-aggregation rewrite (which needs deletion, §III-E). It is the
// shared "library code (e.g., hash table implementations)" of the paper's
// evaluation — every strategy uses this same table.
//
// Key-masking support (§III-B): `kMaskKey` is an ordinary insertable key
// reserved as the throwaway entry. Because it hashes to a fixed slot that
// is touched for every masked tuple, it stays cache-resident — which is
// exactly the property the technique relies on.

namespace swole {

class HashTable {
 public:
  /// Throwaway key used by key masking. Never produced by data generators.
  static constexpr int64_t kMaskKey = INT64_MIN + 2;

  /// `payload_width` int64 slots per key (0 for set-membership tables).
  explicit HashTable(int payload_width, int64_t expected_keys = 16)
      : payload_width_(payload_width) {
    SWOLE_CHECK_GE(payload_width, 0);
    Rehash(CapacityFor(expected_keys));
  }

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  // Custom moves: the memory-hook registration and the charged byte count
  // transfer with the buffers, so the source releases nothing and the
  // destination releases exactly once.
  HashTable(HashTable&& other) noexcept
      : payload_width_(other.payload_width_),
        capacity_(other.capacity_),
        mask_(other.mask_),
        size_(other.size_),
        tombstones_(other.tombstones_),
        keys_(std::move(other.keys_)),
        payload_(std::move(other.payload_)),
        mem_hook_(other.mem_hook_),
        mem_ctx_(other.mem_ctx_),
        mem_site_(other.mem_site_),
        tracked_bytes_(other.tracked_bytes_) {
    other.DropHook();
  }
  HashTable& operator=(HashTable&& other) noexcept {
    if (this != &other) {
      ReleaseTracked();
      payload_width_ = other.payload_width_;
      capacity_ = other.capacity_;
      mask_ = other.mask_;
      size_ = other.size_;
      tombstones_ = other.tombstones_;
      keys_ = std::move(other.keys_);
      payload_ = std::move(other.payload_);
      mem_hook_ = other.mem_hook_;
      mem_ctx_ = other.mem_ctx_;
      mem_site_ = other.mem_site_;
      tracked_bytes_ = other.tracked_bytes_;
      other.DropHook();
    }
    return *this;
  }

  ~HashTable() { ReleaseTracked(); }

  /// Registers the query-lifecycle memory hook (exec/query_context.h):
  /// growth charges the tracker *before* allocating and throws QueryAbort
  /// when refused; destruction releases the charge. `site` must be a
  /// string with static storage duration (the operator attribution name).
  /// The current footprint is charged on attachment, so a table that is
  /// already over budget fails here rather than at its next growth.
  void SetMemHook(MemHookFn hook, void* ctx, const char* site) {
    ReleaseTracked();
    mem_hook_ = hook;
    mem_ctx_ = ctx;
    mem_site_ = site;
    if (mem_hook_ != nullptr) ChargeDelta(ByteSize());
  }

  int payload_width() const { return payload_width_; }
  int64_t size() const { return size_; }
  int64_t capacity() const { return capacity_; }
  int64_t ByteSize() const {
    return static_cast<int64_t>(keys_.size()) * 8 +
           static_cast<int64_t>(payload_.size()) * 8;
  }

  /// Payload for `key`, inserting a zero-initialized entry if absent.
  /// The pointer is invalidated by the next insertion. With width 0 the
  /// returned pointer is non-null but must not be dereferenced.
  ///
  /// Growth happens on the actual-insert path only: a lookup of a present
  /// key never rehashes, and an insert that reuses a tombstone does not
  /// raise occupancy, so neither triggers growth.
  SWOLE_ALWAYS_INLINE int64_t* GetOrInsert(int64_t key) {
    SWOLE_DCHECK(key != kEmpty && key != kTombstone);
    while (true) {
      uint64_t slot = Hash(key) & mask_;
      int64_t first_tombstone = -1;
      while (true) {
        int64_t k = keys_[slot];
        if (k == key) return PayloadAt(slot);
        if (k == kEmpty) {
          if (first_tombstone >= 0) {
            slot = static_cast<uint64_t>(first_tombstone);
            --tombstones_;
          } else if (SWOLE_UNLIKELY((size_ + tombstones_ + 1) * 10 >=
                                    capacity_ * 7)) {
            Rehash(capacity_ * 2);
            break;  // re-probe against the grown table
          }
          keys_[slot] = key;
          ++size_;
          return PayloadAt(slot);
        }
        if (k == kTombstone && first_tombstone < 0) {
          first_tombstone = static_cast<int64_t>(slot);
        }
        slot = (slot + 1) & mask_;
      }
    }
  }

  /// Grows (if needed) so that `additional` inserts cannot trigger a rehash
  /// — i.e. payload pointers handed out during the next `additional`
  /// GetOrInsert calls stay valid for the whole batch.
  void ReserveFor(int64_t additional) {
    int64_t needed = size_ + tombstones_ + additional;
    int64_t cap = capacity_;
    while (needed * 10 >= cap * 7) cap *= 2;
    if (cap != capacity_) Rehash(cap);
  }

  /// Payload for `key`, or nullptr if absent.
  SWOLE_ALWAYS_INLINE int64_t* Find(int64_t key) {
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      int64_t k = keys_[slot];
      if (k == key) return PayloadAt(slot);
      if (k == kEmpty) return nullptr;
      slot = (slot + 1) & mask_;
    }
  }

  SWOLE_ALWAYS_INLINE const int64_t* Find(int64_t key) const {
    return const_cast<HashTable*>(this)->Find(key);
  }

  SWOLE_ALWAYS_INLINE bool Contains(int64_t key) const {
    return Find(key) != nullptr;
  }

  /// Removes `key` (tombstone). Returns true if it was present. Used by the
  /// eager-aggregation rewrite's deletion scan (§III-E).
  bool Erase(int64_t key) {
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      int64_t k = keys_[slot];
      if (k == key) {
        keys_[slot] = kTombstone;
        if (payload_width_ > 0) {
          std::memset(&payload_[slot * payload_width_], 0,
                      payload_width_ * sizeof(int64_t));
        }
        --size_;
        ++tombstones_;
        return true;
      }
      if (k == kEmpty) return false;
      slot = (slot + 1) & mask_;
    }
  }

  /// Prefetches the home slot of `key` (ROF's explicit prefetching).
  SWOLE_ALWAYS_INLINE void PrefetchSlot(int64_t key) const {
    uint64_t slot = Hash(key) & mask_;
    __builtin_prefetch(&keys_[slot], 0, 1);
    if (payload_width_ > 0) {
      __builtin_prefetch(&payload_[slot * payload_width_], 1, 1);
    }
  }

  /// Probe distance of the software-pipelined batch loops below (ROF
  /// §II-A.3): the home slot of key k+kProbeLookahead is prefetched while
  /// key k is probed, overlapping the cache misses of up to that many
  /// independent probes.
  static constexpr int32_t kProbeLookahead = 8;

  /// Batched Find: out[k] = payload pointer for keys[k], or nullptr.
  /// With `prefetch`, probes are software-pipelined.
  void FindBatch(const int64_t* SWOLE_RESTRICT keys, int32_t n,
                 int64_t** SWOLE_RESTRICT out, bool prefetch) {
    int32_t k = 0;
    if (prefetch) {
      const int32_t head = std::min(n, kProbeLookahead);
      for (; k < head; ++k) PrefetchSlot(keys[k]);
      for (k = 0; k + kProbeLookahead < n; ++k) {
        PrefetchSlot(keys[k + kProbeLookahead]);
        out[k] = Find(keys[k]);
      }
    }
    for (; k < n; ++k) out[k] = Find(keys[k]);
  }

  /// Batched membership probe: out[k] = keys[k] present ? 1 : 0 (a cmp
  /// byte array, composable with the mask kernels).
  void ContainsBatch(const int64_t* SWOLE_RESTRICT keys, int32_t n,
                     uint8_t* SWOLE_RESTRICT out, bool prefetch) const {
    int32_t k = 0;
    if (prefetch) {
      const int32_t head = std::min(n, kProbeLookahead);
      for (; k < head; ++k) PrefetchSlot(keys[k]);
      for (k = 0; k + kProbeLookahead < n; ++k) {
        PrefetchSlot(keys[k + kProbeLookahead]);
        out[k] = Contains(keys[k]) ? 1 : 0;
      }
    }
    for (; k < n; ++k) out[k] = Contains(keys[k]) ? 1 : 0;
  }

  /// Batched GetOrInsert. Capacity is reserved up front, so — unlike
  /// repeated GetOrInsert calls — every out[k] stays valid for the whole
  /// batch.
  void GetOrInsertBatch(const int64_t* SWOLE_RESTRICT keys, int32_t n,
                        int64_t** SWOLE_RESTRICT out, bool prefetch) {
    ReserveFor(n);
    int32_t k = 0;
    if (prefetch) {
      const int32_t head = std::min(n, kProbeLookahead);
      for (; k < head; ++k) PrefetchSlot(keys[k]);
      for (k = 0; k + kProbeLookahead < n; ++k) {
        PrefetchSlot(keys[k + kProbeLookahead]);
        out[k] = GetOrInsert(keys[k]);
      }
    }
    for (; k < n; ++k) out[k] = GetOrInsert(keys[k]);
  }

  /// Batched set insert (width-0 tables / key-set builds): like
  /// GetOrInsertBatch but without materializing payload pointers.
  void InsertBatch(const int64_t* SWOLE_RESTRICT keys, int32_t n,
                   bool prefetch) {
    ReserveFor(n);
    int32_t k = 0;
    if (prefetch) {
      const int32_t head = std::min(n, kProbeLookahead);
      for (; k < head; ++k) PrefetchSlot(keys[k]);
      for (k = 0; k + kProbeLookahead < n; ++k) {
        PrefetchSlot(keys[k + kProbeLookahead]);
        GetOrInsert(keys[k]);
      }
    }
    for (; k < n; ++k) GetOrInsert(keys[k]);
  }

  // ---- Shared insert (phase 2 of the two-phase build, DESIGN.md §7) ----

  /// Inserts `key` while other threads insert into the same table. Only
  /// for a table already at its final size (constructed or ReserveFor'd
  /// for every key of the phase): the call never grows the table, never
  /// reuses a tombstone, and leaves size() alone — the caller adds the
  /// claimed count once with AddClaimed after the inserting threads have
  /// joined. A CAS claims an empty slot; the claiming call gets the key's
  /// payload pointer and is the only one that may write it, every other
  /// call for that key gets nullptr. No other operation may run on the
  /// table during the phase.
  SWOLE_ALWAYS_INLINE int64_t* InsertShared(int64_t key) {
    SWOLE_DCHECK(key != kEmpty && key != kTombstone);
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      std::atomic_ref<int64_t> cell(keys_[slot]);
      int64_t k = cell.load(std::memory_order_relaxed);
      if (k == kEmpty &&
          cell.compare_exchange_strong(k, key, std::memory_order_relaxed)) {
        return PayloadAt(slot);
      }
      // `k` is the slot's key — a lost CAS reloads the winner's.
      if (k == key) return nullptr;
      slot = (slot + 1) & mask_;
    }
  }

  /// Batched InsertShared. With `payload`, the claiming call stores
  /// payload[k] into key k's first payload word. Returns the number of
  /// keys this call claimed.
  int64_t InsertSharedBatch(const int64_t* SWOLE_RESTRICT keys,
                            const int64_t* SWOLE_RESTRICT payload, int64_t n,
                            bool prefetch) {
    int64_t claimed = 0;
    auto insert = [&](int64_t k) {
      int64_t* p = InsertShared(keys[k]);
      if (p == nullptr) return;
      ++claimed;
      if (payload != nullptr) *p = payload[k];
    };
    int64_t k = 0;
    if (prefetch) {
      const int64_t head = std::min<int64_t>(n, kProbeLookahead);
      for (; k < head; ++k) PrefetchSlot(keys[k]);
      for (k = 0; k + kProbeLookahead < n; ++k) {
        PrefetchSlot(keys[k + kProbeLookahead]);
        insert(k);
      }
    }
    for (; k < n; ++k) insert(k);
    return claimed;
  }

  /// Empties the table and shrinks it to a default-constructed table's
  /// capacity. The charge moves by the difference in one step (a release
  /// for any grown table), so the restart never asks the budget for bytes
  /// that other charges could have taken in between.
  void Clear() {
    const int64_t capacity = CapacityFor(16);
    const int64_t delta =
        capacity * 8 * (1 + payload_width_) - ByteSize();
    if (delta > 0) ChargeDelta(delta);  // only a table below the default
    keys_ = std::vector<int64_t>();
    payload_ = std::vector<int64_t>();
    capacity_ = capacity;
    mask_ = static_cast<uint64_t>(capacity - 1);
    keys_.assign(capacity, kEmpty);
    payload_.assign(static_cast<size_t>(capacity) * payload_width_, 0);
    size_ = 0;
    tombstones_ = 0;
    if (delta < 0) ChargeDelta(delta);
  }

  /// Adds the keys claimed by a finished shared-insert phase to size().
  void AddClaimed(int64_t claimed) { size_ += claimed; }

  /// A table with this one's capacity, key slots and size, and zeroed
  /// payloads (join-mode probes give every worker the build's key set).
  /// With a `hook`, the copy charges `site` before it allocates.
  HashTable CloneKeys(MemHookFn hook, void* ctx, const char* site) const {
    HashTable copy(payload_width_);
    copy.SetMemHook(hook, ctx, site);
    copy.Rehash(capacity_);
    std::copy(keys_.begin(), keys_.end(), copy.keys_.begin());
    copy.size_ = size_;
    copy.tombstones_ = tombstones_;
    return copy;
  }

  /// Adds every entry of `other` into this table element-wise: absent keys
  /// are inserted, payload slots are summed. This is the merge step of
  /// per-thread group states — additive because every aggregation payload
  /// in this codebase is a plain int64 running sum/count (min/max live in
  /// scalar accumulators, merged by kind). Width-0 tables merge as a set
  /// union.
  void MergeAdd(const HashTable& other) {
    SWOLE_CHECK_EQ(payload_width_, other.payload_width_);
    other.ForEach([&](int64_t key, const int64_t* src) {
      int64_t* dst = GetOrInsert(key);
      for (int w = 0; w < payload_width_; ++w) dst[w] += src[w];
    });
  }

  /// Adds the payload words of `other`'s slots [begin, end) into the same
  /// slots of this table: one sequential pass, no probing. Only for two
  /// tables whose key slots are identical — a CloneKeys copy and its
  /// source, after nothing but Find ran on either — where slot i holds the
  /// same key in both and an empty slot's payload is zero in both. Calls
  /// over disjoint slot ranges may run concurrently.
  void AddPayloadSlots(const HashTable& other, int64_t begin, int64_t end) {
    SWOLE_DCHECK(other.capacity_ == capacity_ &&
                 other.payload_width_ == payload_width_);
    const int64_t from = begin * payload_width_;
    const int64_t to = end * payload_width_;
    int64_t* SWOLE_RESTRICT dst = payload_.data();
    const int64_t* SWOLE_RESTRICT src = other.payload_.data();
    for (int64_t i = from; i < to; ++i) dst[i] += src[i];
  }

  /// Visits every live entry: fn(key, payload pointer).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int64_t slot = 0; slot < capacity_; ++slot) {
      int64_t k = keys_[slot];
      if (k != kEmpty && k != kTombstone) {
        fn(k, payload_width_ > 0 ? &payload_[slot * payload_width_] : nullptr);
      }
    }
  }

  static uint64_t Hash(int64_t key) {
    // Fibonacci-multiply + xor-shift finalizer; cheap and well-spread for
    // the dense integer keys used everywhere in this workload.
    uint64_t x = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return x ^ (x >> 32);
  }

 private:
  static constexpr int64_t kEmpty = INT64_MIN;
  static constexpr int64_t kTombstone = INT64_MIN + 1;

  // Capacity for `expected_keys` below the 0.7 load limit.
  static int64_t CapacityFor(int64_t expected_keys) {
    return static_cast<int64_t>(bit_util::NextPowerOfTwo(
        std::max<int64_t>(16, expected_keys * 10 / 7 + 1)));
  }

  SWOLE_ALWAYS_INLINE int64_t* PayloadAt(uint64_t slot) {
    // Width-0 tables still return a stable non-null sentinel address.
    return payload_width_ > 0 ? &payload_[slot * payload_width_]
                              : sentinel_;
  }

  // Asks the memory hook for `delta` more bytes (releases when negative).
  // Throws QueryAbort on refusal *before* anything is allocated, leaving
  // the table fully usable at its current size.
  void ChargeDelta(int64_t delta) {
    if (mem_hook_ == nullptr || delta == 0) return;
    int rc = mem_hook_(mem_ctx_, delta, mem_site_);
    if (SWOLE_UNLIKELY(delta > 0 && rc != 0)) {
      throw QueryAbort(static_cast<AbortReason>(rc), mem_site_, delta);
    }
    tracked_bytes_ += delta;
  }

  void ReleaseTracked() noexcept {
    if (mem_hook_ != nullptr && tracked_bytes_ > 0) {
      mem_hook_(mem_ctx_, -tracked_bytes_, mem_site_);
    }
    tracked_bytes_ = 0;
  }

  void DropHook() noexcept {
    mem_hook_ = nullptr;
    mem_ctx_ = nullptr;
    tracked_bytes_ = 0;
  }

  void Rehash(int64_t new_capacity) {
    SWOLE_CHECK(bit_util::IsPowerOfTwo(static_cast<uint64_t>(new_capacity)));
    // Charge the new buffers before allocating them. Both generations are
    // live during the re-insert scan, so the tracker sees the true peak;
    // the old generation's bytes are released once it is freed below.
    const int64_t new_bytes = new_capacity * 8 * (1 + payload_width_);
    ChargeDelta(new_bytes);
    std::vector<int64_t> old_keys = std::move(keys_);
    std::vector<int64_t> old_payload = std::move(payload_);
    int64_t old_capacity = capacity_;
    const int64_t old_bytes =
        static_cast<int64_t>(old_keys.size() + old_payload.size()) * 8;

    capacity_ = new_capacity;
    mask_ = static_cast<uint64_t>(new_capacity - 1);
    keys_.assign(new_capacity, kEmpty);
    payload_.assign(static_cast<size_t>(new_capacity) * payload_width_, 0);
    size_ = 0;
    tombstones_ = 0;

    for (int64_t slot = 0; slot < old_capacity; ++slot) {
      int64_t k = old_keys[slot];
      if (k == kEmpty || k == kTombstone) continue;
      int64_t* dst = GetOrInsert(k);
      if (payload_width_ > 0) {
        std::memcpy(dst, &old_payload[slot * payload_width_],
                    payload_width_ * sizeof(int64_t));
      }
    }

    old_keys = std::vector<int64_t>();
    old_payload = std::vector<int64_t>();
    ChargeDelta(-old_bytes);
  }

  int payload_width_;
  int64_t capacity_ = 0;
  uint64_t mask_ = 0;
  int64_t size_ = 0;
  int64_t tombstones_ = 0;
  std::vector<int64_t> keys_;
  std::vector<int64_t> payload_;
  int64_t sentinel_[1] = {0};

  // Query-lifecycle memory accounting (see SetMemHook).
  MemHookFn mem_hook_ = nullptr;
  void* mem_ctx_ = nullptr;
  const char* mem_site_ = "";
  int64_t tracked_bytes_ = 0;
};

}  // namespace swole

#endif  // SWOLE_EXEC_HASH_TABLE_H_

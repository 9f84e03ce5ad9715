#ifndef SWOLE_STORAGE_BITMAP_H_
#define SWOLE_STORAGE_BITMAP_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/query_abort.h"

// Positional bitmap (§III-D): one bit per row of the build-side table,
// bit[i] == 1 iff row i qualifies. Probing is a positional lookup through the
// foreign-key offset index; building is a purely sequential write. Even a
// 100M-row table needs only ~12.5MB, so the bitmap is cache-friendly where a
// hash table of the same keys is not.

namespace swole {

class PositionalBitmap {
 public:
  PositionalBitmap() = default;
  explicit PositionalBitmap(int64_t num_bits) { Resize(num_bits); }

  // Copies duplicate the bits but not the memory-hook registration: the
  // copy starts untracked (call SetMemHook on it to charge it), while a
  // hooked copy-assignment target re-charges to the incoming size.
  PositionalBitmap(const PositionalBitmap& other)
      : num_bits_(other.num_bits_), words_(other.words_) {}
  PositionalBitmap& operator=(const PositionalBitmap& other) {
    if (this != &other) {
      ChargeDelta(static_cast<int64_t>(other.words_.size()) * 8 -
                  tracked_bytes_);
      num_bits_ = other.num_bits_;
      words_ = other.words_;
    }
    return *this;
  }

  // Custom moves: the memory-hook registration and the charged byte count
  // travel with the buffer (see exec/hash_table.h for the same pattern).
  PositionalBitmap(PositionalBitmap&& other) noexcept
      : num_bits_(other.num_bits_),
        words_(std::move(other.words_)),
        mem_hook_(other.mem_hook_),
        mem_ctx_(other.mem_ctx_),
        mem_site_(other.mem_site_),
        tracked_bytes_(other.tracked_bytes_) {
    other.DropHook();
  }
  PositionalBitmap& operator=(PositionalBitmap&& other) noexcept {
    if (this != &other) {
      ReleaseTracked();
      num_bits_ = other.num_bits_;
      words_ = std::move(other.words_);
      mem_hook_ = other.mem_hook_;
      mem_ctx_ = other.mem_ctx_;
      mem_site_ = other.mem_site_;
      tracked_bytes_ = other.tracked_bytes_;
      other.DropHook();
    }
    return *this;
  }

  ~PositionalBitmap() { ReleaseTracked(); }

  /// Registers the query-lifecycle memory hook (exec/query_context.h):
  /// Resize charges the tracker *before* allocating and throws QueryAbort
  /// when refused. `site` must have static storage duration. The current
  /// footprint is charged on attachment.
  void SetMemHook(MemHookFn hook, void* ctx, const char* site) {
    ReleaseTracked();
    mem_hook_ = hook;
    mem_ctx_ = ctx;
    mem_site_ = site;
    if (mem_hook_ != nullptr) ChargeDelta(ByteSize());
  }

  /// Resizes to `num_bits`, clearing all bits.
  void Resize(int64_t num_bits) {
    const int64_t new_bytes =
        static_cast<int64_t>(bit_util::WordsForBits(num_bits)) * 8;
    ChargeDelta(new_bytes - tracked_bytes_);
    num_bits_ = num_bits;
    words_.assign(bit_util::WordsForBits(num_bits), 0);
  }

  int64_t num_bits() const { return num_bits_; }
  int64_t ByteSize() const { return static_cast<int64_t>(words_.size()) * 8; }

  bool Test(int64_t i) const {
    SWOLE_DCHECK_LT(i, num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(int64_t i) {
    SWOLE_DCHECK_LT(i, num_bits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Clear(int64_t i) {
    SWOLE_DCHECK_LT(i, num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Unconditional store of the predicate result (value-masking style build:
  /// "set the corresponding bit at the tuple offset to the value of the
  /// predicate result").
  void SetTo(int64_t i, bool value) {
    SWOLE_DCHECK_LT(i, num_bits_);
    uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t word = words_[i >> 6];
    words_[i >> 6] = value ? (word | mask) : (word & ~mask);
  }

  /// Branch-free OR-store: sets bit i if `value`, leaves it otherwise.
  /// Used when several source rows map to the same bit (reverse semijoin
  /// builds, §III-D applied to TPC-H Q4).
  void OrTo(int64_t i, bool value) {
    SWOLE_DCHECK_LT(i, num_bits_);
    words_[i >> 6] |= static_cast<uint64_t>(value) << (i & 63);
  }

  /// Atomically ORs `bits` into word `word`: the store of a parallel build
  /// whose workers scatter into shared words (the reverse bitmap).
  void OrWordAtomic(int64_t word, uint64_t bits) {
    SWOLE_DCHECK_LT(word, static_cast<int64_t>(words_.size()));
    std::atomic_ref<uint64_t>(words_[word]).fetch_or(
        bits, std::memory_order_relaxed);
  }

  /// Packs a tile of byte-wide predicate results (0/1) into bits starting at
  /// bit offset `start`. Preconditions: start is a multiple of 64, or
  /// len small enough that the tail path is acceptable.
  void PackBytes(int64_t start, const uint8_t* cmp, int64_t len);

  int64_t CountSetBits() const;

  /// this &= other. Preconditions: equal size.
  void And(const PositionalBitmap& other);
  /// this |= other. Preconditions: equal size.
  void Or(const PositionalBitmap& other);

  const uint64_t* words() const { return words_.data(); }

 private:
  // Asks the memory hook for `delta` more bytes (releases when negative).
  // Throws QueryAbort on refusal before anything is allocated.
  void ChargeDelta(int64_t delta) {
    if (mem_hook_ == nullptr || delta == 0) return;
    int rc = mem_hook_(mem_ctx_, delta, mem_site_);
    if (delta > 0 && rc != 0) {
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

  int64_t num_bits_ = 0;
  std::vector<uint64_t> words_;

  MemHookFn mem_hook_ = nullptr;
  void* mem_ctx_ = nullptr;
  const char* mem_site_ = "";
  int64_t tracked_bytes_ = 0;
};

/// Block-compressed bitmap (the paper's §III-D note: "replace entire blocks
/// of repeated values"). Blocks of 512 bits that are all-zero or all-one are
/// elided; mixed blocks store their words verbatim. Probe cost is one extra
/// indirection — the size/overhead trade-off §III-D describes.
class CompressedBitmap {
 public:
  static constexpr int64_t kBlockBits = 512;
  static constexpr int64_t kBlockWords = kBlockBits / 64;

  /// Compresses a plain bitmap.
  static CompressedBitmap Compress(const PositionalBitmap& bitmap);

  bool Test(int64_t i) const {
    SWOLE_DCHECK_LT(i, num_bits_);
    int64_t block = i / kBlockBits;
    int32_t slot = block_slots_[block];
    if (slot == kAllZero) return false;
    if (slot == kAllOne) return true;
    int64_t bit_in_block = i % kBlockBits;
    return (payload_[slot * kBlockWords + (bit_in_block >> 6)] >>
            (bit_in_block & 63)) &
           1;
  }

  int64_t num_bits() const { return num_bits_; }
  int64_t ByteSize() const;
  int64_t num_mixed_blocks() const {
    return static_cast<int64_t>(payload_.size()) / kBlockWords;
  }

 private:
  static constexpr int32_t kAllZero = -1;
  static constexpr int32_t kAllOne = -2;

  int64_t num_bits_ = 0;
  std::vector<int32_t> block_slots_;  // per block: kAllZero/kAllOne/payload ix
  std::vector<uint64_t> payload_;     // words of mixed blocks
};

}  // namespace swole

#endif  // SWOLE_STORAGE_BITMAP_H_

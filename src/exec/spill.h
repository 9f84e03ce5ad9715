#ifndef SWOLE_EXEC_SPILL_H_
#define SWOLE_EXEC_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/scratch_dir.h"
#include "common/status.h"
#include "exec/hash_table.h"

// Grace-style partitioned spill for group-by aggregation (DESIGN.md §14).
//
// When a QueryContext refuses a group-table growth charge and spill is
// enabled (SWOLE_SPILL=auto), the accumulated groups are partitioned by the
// top radix digits of HashTable::Hash(key) into append-only runs on disk
// and the in-memory table restarts empty. Rows move in blocks: a spilling
// call stages them per partition (SpillManager::Batch) and appends each
// full stage to its partition writer under one lock acquisition. Because
// every grouped payload is additive (hash_table.h MergeAdd), a group's
// final value is the sum of its spilled fragments plus its in-memory
// remainder — independent of when spills happened, how they were staged,
// or which worker wrote which fragment. The merge phase rebuilds one
// partition at a time under the same budget (site "spill_merge"),
// recursively repartitioning any partition that still does not fit
// (bounded depth, then a structured kSpillFailed), so the degradation
// ladder is: in-memory → spill → repartition → structured abort. Results
// stay bit-identical to the in-memory path at every thread count:
// partitions hold disjoint key sets, and the caller sorts the final group
// list exactly as the in-memory extract does.
//
// On-disk format: each run file starts with a 16-byte header {magic
// "SWSPILL1", payload_width:int32, reserved:int32}, followed by
// self-contained blocks {xxh64 checksum of the row bytes : uint64,
// num_rows:uint32, row_width:uint32, rows...}. A row is (key, payload[
// payload_width]) as int64s. Checksums are verified on read-back; a
// mismatch is a structured IOError, never a crash. All I/O goes through
// deterministic fault sites (spill_create / spill_write / spill_flush /
// spill_read / spill_unlink / spill_enospc / spill_checksum), and every
// file lives in a ScratchDir so abort/cancel/deadline paths never strand
// temp files.

namespace swole::exec {

class QueryContext;

struct SpillConfig {
  // SWOLE_SPILL: "off" (default) or "auto". Engines may also force it via
  // StrategyOptions::spill.
  bool enabled = false;
  // Base directory for spill scratch dirs: SWOLE_SPILL_DIR > TMPDIR > /tmp
  // (ScratchDir::ResolveBase policy, including the exec-unsafe refusal).
  std::string dir;
  // Fan-out per level; SWOLE_SPILL_PARTITIONS, rounded up to a power of
  // two and clamped to [2, 256].
  int num_partitions = 16;
  // Maximum repartition depth before a structured kSpillFailed;
  // SWOLE_SPILL_DEPTH, clamped to [1, 8].
  int max_depth = 4;

  static SpillConfig FromEnv();
};

/// Combines two partial payloads for the same key during partition
/// rebuild. Engines pass element-wise addition; the reference oracle
/// merges by aggregate kind (min/max/sum).
using SpillMergeFn = std::function<void(int64_t* dst, const int64_t* src)>;

/// One query's spill state: shared by every worker-local group table of
/// that query. Thread-safe appends (per-partition locks, self-contained
/// blocks); the merge phase is driven per-partition, typically as morsels
/// on the shared scheduler pool.
class SpillManager {
 public:
  /// `payload_width` is the per-key int64 payload width of spilled rows
  /// (group tables: 1 + num_aggs). `ctx` provides the budget the merge
  /// phase charges against; may be null (merge then runs unbudgeted).
  SpillManager(SpillConfig config, int payload_width, QueryContext* ctx);
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  class Batch;

  /// Spills every live entry of `table` except `skip_key` (the key-masking
  /// throwaway) to the depth-0 partition runs through one Batch: one spill
  /// event. Thread-safe.
  Status SpillTable(const HashTable& table, int64_t skip_key);

  /// Flushes and closes every partition writer. Call once, after the last
  /// spill and before the first MergePartition.
  Status Flush();

  /// Rebuilds partition `index` (0 .. num_partitions-1) and appends its
  /// merged rows — (key, payload[payload_width]) int64 tuples — to
  /// `out_rows`. Keys are unique within a partition and disjoint across
  /// partitions, so partitions may be merged concurrently; deterministic
  /// output only requires the caller to concatenate in ascending partition
  /// order or sort, exactly as the in-memory extract already does. Budget
  /// refusals at "spill_merge" trigger recursive repartitioning; past
  /// config.max_depth the partition fails with kSpillFailed. Deadline and
  /// cancellation aborts propagate as QueryAbort (the scheduler converts
  /// them to structured Statuses).
  Status MergePartition(int index, const SpillMergeFn& merge_fn,
                        std::vector<int64_t>* out_rows);

  bool spilled() const {
    return spill_events_.load(std::memory_order_acquire) > 0;
  }
  int64_t spill_events() const {
    return spill_events_.load(std::memory_order_acquire);
  }
  int64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_acquire);
  }
  int64_t rows_spilled() const {
    return rows_spilled_.load(std::memory_order_acquire);
  }
  /// Deepest repartition level reached during merge (0 = no repartition).
  int max_depth_reached() const {
    return max_depth_reached_.load(std::memory_order_acquire);
  }
  int num_partitions() const { return config_.num_partitions; }
  int payload_width() const { return payload_width_; }

 private:
  struct PartitionWriter {
    std::mutex mu;
    std::string path;
    std::FILE* file = nullptr;
    std::vector<int64_t> buffer;  // pending rows of one block, row-major
    std::string failed_error;     // first I/O error wins; appends stop
  };
  using Writers = std::vector<std::unique_ptr<PartitionWriter>>;

  // log2(num_partitions); the radix digit at depth d is
  // (Hash(key) >> (64 - bits*(d+1))) & (num_partitions-1).
  int RadixDigit(int64_t key, int depth) const;

  Status EnsureScratchDir();
  // Appends `num_rows` row-major rows to `writer` under one acquisition of
  // writer.mu, writing each block as it reaches kBlockRows rows.
  Status AppendStaged(PartitionWriter& writer, const int64_t* rows,
                      int64_t num_rows);
  Status FlushBlock(PartitionWriter& writer);  // writer.mu held
  Status CloseWriter(PartitionWriter& writer);

  // Recursive merge of one run file. Emits merged rows into out_rows.
  Status MergeRun(const std::string& path, int depth,
                  const SpillMergeFn& merge_fn,
                  std::vector<int64_t>* out_rows);
  // One rebuild attempt of `path` under the budget. On a budget refusal
  // sets *over_budget and returns OK without emitting; the run file is
  // only removed on a successful rebuild.
  Status RebuildRun(const std::string& path, const SpillMergeFn& merge_fn,
                    std::vector<int64_t>* out_rows, bool* over_budget);
  // Streams `path` into num_partitions child runs at depth+1.
  Status Repartition(const std::string& path, int depth,
                     std::vector<std::string>* child_paths);

  // Reads every block of `path`, verifying checksums, and hands each
  // verified block to block_fn(rows, num_rows) — row-major (key,
  // payload[payload_width]) rows. Missing file = empty run (OK).
  Status ReadRun(
      const std::string& path,
      const std::function<Status(const int64_t*, int64_t)>& block_fn);

  Status RemoveRun(const std::string& path);

  SpillConfig config_;
  int payload_width_;
  int radix_bits_;
  QueryContext* ctx_;

  // Serializes last-resort merges at repartition-depth exhaustion: a
  // partition that fits the budget on its own must not fail just because
  // sibling merges transiently held the budget on the way down.
  std::mutex solo_merge_mu_;

  std::mutex dir_mu_;
  ScratchDir scratch_;
  Writers writers_;

  std::atomic<int64_t> spill_events_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> rows_spilled_{0};
  std::atomic<int> max_depth_reached_{0};
};

/// One spilling call's staging. Rows wait per radix partition in a fixed
/// stage of kStageRows rows; a full stage is appended to its partition
/// writer under one lock acquisition, so concurrent spillers contend once
/// per stage, not once per row. A Batch is single-threaded: each spilling
/// worker uses its own, and any number of Batches may feed one manager at
/// once. Staging memory is num_partitions x kStageRows x (1 +
/// payload_width) int64s, whatever the size of the spilled state. Rows
/// still staged when a Batch is destroyed without Finish() are dropped;
/// that only happens on a failing spill.
class SpillManager::Batch {
 public:
  static constexpr int64_t kStageRows = 256;

  explicit Batch(SpillManager& manager);

  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  /// Stages one row. Fails with the partition writer's I/O error once a
  /// stage append meets it; a partition's first error wins, and every
  /// later append to it reports that it already failed.
  Status Add(int64_t key, const int64_t* payload);

  /// Appends every partially filled stage and counts one spill event.
  Status Finish();

 private:
  friend class SpillManager;

  // Stages rows for `writers` (already created) at radix depth `depth`;
  // Repartition's child runs.
  Batch(SpillManager& manager, Writers* writers, int depth);

  Status AppendStage(int partition);
  // Appends every non-empty stage.
  Status Drain();

  SpillManager& manager_;
  Writers* writers_;  // null until the manager's scratch dir exists
  int depth_;
  int width_;
  std::vector<int64_t> stage_;  // num_partitions x kStageRows rows
  std::vector<int64_t> staged_;  // rows staged per partition
};

}  // namespace swole::exec

#endif  // SWOLE_EXEC_SPILL_H_

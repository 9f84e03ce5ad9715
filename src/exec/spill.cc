#include "exec/spill.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/bit_util.h"
#include "common/checksum.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "exec/query_context.h"
#include "obs/metrics.h"

namespace swole::exec {

SWOLE_REGISTER_FAULT_SITE("spill_create",
                          "creating a spill run file (fopen)")
SWOLE_REGISTER_FAULT_SITE("spill_write",
                          "writing a spill block (fwrite)")
SWOLE_REGISTER_FAULT_SITE("spill_flush",
                          "flushing/closing a spill run (fflush/fclose)")
SWOLE_REGISTER_FAULT_SITE("spill_read",
                          "reading a spill run back (fopen/fread)")
SWOLE_REGISTER_FAULT_SITE("spill_unlink",
                          "removing a merged spill run (unlink)")
SWOLE_REGISTER_FAULT_SITE("spill_enospc",
                          "simulated ENOSPC on the spill write path")
SWOLE_REGISTER_FAULT_SITE("spill_checksum",
                          "spill block checksum mismatch on read-back")

namespace {

constexpr uint64_t kSpillMagic = 0x53575350494C4C31ULL;  // "SWSPILL1"
constexpr int64_t kBlockRows = 4096;
constexpr int64_t kMaxBlockRows = int64_t{1} << 22;
constexpr const char* kMergeSite = "spill_merge";
// Serialized rebuild attempts at depth exhaustion before kSpillFailed.
constexpr int kSoloMergeRetries = 16;

struct FileHeader {
  uint64_t magic;
  int32_t payload_width;
  int32_t reserved;
};

struct BlockHeader {
  uint64_t checksum;
  uint32_t num_rows;
  uint32_t row_width;
};

struct SpillMetrics {
  obs::Counter& spills;
  obs::Counter& bytes_written;
  obs::Counter& blocks_written;
  obs::Counter& rows;
  obs::Counter& merge_rows;
  obs::Counter& partitions_merged;
  obs::Counter& repartitions;
  obs::Counter& checksum_failures;
};

SpillMetrics& Metrics() {
  static SpillMetrics* metrics = new SpillMetrics{
      obs::MetricsRegistry::Global().GetCounter("spill.spills"),
      obs::MetricsRegistry::Global().GetCounter("spill.bytes_written"),
      obs::MetricsRegistry::Global().GetCounter("spill.blocks_written"),
      obs::MetricsRegistry::Global().GetCounter("spill.rows"),
      obs::MetricsRegistry::Global().GetCounter("spill.merge_rows"),
      obs::MetricsRegistry::Global().GetCounter("spill.partitions_merged"),
      obs::MetricsRegistry::Global().GetCounter("spill.repartitions"),
      obs::MetricsRegistry::Global().GetCounter("spill.checksum_failures"),
  };
  return *metrics;
}

// A partition writer's first I/O error wins: every later append or close
// reports it.
Status AlreadyFailed(const std::string& path, const std::string& error) {
  return Status::IOError(StringFormat("spill run %s already failed: %s",
                                      path.c_str(), error.c_str()));
}

}  // namespace

SpillConfig SpillConfig::FromEnv() {
  SpillConfig config;
  std::string mode = GetEnvString("SWOLE_SPILL", "off");
  config.enabled = mode == "auto" || mode == "on" || mode == "1";
  config.dir = ScratchDir::ResolveBase("SWOLE_SPILL_DIR", "spill");
  int64_t partitions = GetEnvInt64("SWOLE_SPILL_PARTITIONS", 16);
  partitions = std::clamp<int64_t>(partitions, 2, 256);
  config.num_partitions =
      static_cast<int>(bit_util::NextPowerOfTwo(partitions));
  int64_t depth = GetEnvInt64("SWOLE_SPILL_DEPTH", 4);
  config.max_depth = static_cast<int>(std::clamp<int64_t>(depth, 1, 8));
  return config;
}

SpillManager::SpillManager(SpillConfig config, int payload_width,
                           QueryContext* ctx)
    : config_(std::move(config)), payload_width_(payload_width), ctx_(ctx) {
  SWOLE_CHECK_GE(payload_width_, 0);
  radix_bits_ = __builtin_ctz(static_cast<unsigned>(config_.num_partitions));
  // Every repartition level consumes radix_bits_ more hash bits; cap the
  // depth so the deepest digit still comes from real hash bits.
  config_.max_depth =
      std::min(config_.max_depth, 64 / radix_bits_ - 1);
}

SpillManager::~SpillManager() {
  for (auto& writer : writers_) {
    if (writer != nullptr && writer->file != nullptr) {
      std::fclose(writer->file);
      writer->file = nullptr;
    }
  }
  // scratch_ destructor removes every tracked run file (and sweeps the
  // directory) — the abort/cancel/deadline cleanup path.
}

int SpillManager::RadixDigit(int64_t key, int depth) const {
  uint64_t hash = HashTable::Hash(key);
  int shift = 64 - radix_bits_ * (depth + 1);
  return static_cast<int>((hash >> shift) &
                          static_cast<uint64_t>(config_.num_partitions - 1));
}

Status SpillManager::EnsureScratchDir() {
  std::lock_guard<std::mutex> lock(dir_mu_);
  if (!writers_.empty()) return Status::OK();
  SWOLE_ASSIGN_OR_RETURN(ScratchDir dir,
                         ScratchDir::CreateUnder(config_.dir, "swole_spill_"));
  scratch_ = std::move(dir);
  writers_.resize(config_.num_partitions);
  for (int p = 0; p < config_.num_partitions; ++p) {
    writers_[p] = std::make_unique<PartitionWriter>();
    writers_[p]->path =
        StringFormat("%s/p%03d.run", scratch_.path().c_str(), p);
    scratch_.Track(writers_[p]->path);
  }
  return Status::OK();
}

Status SpillManager::FlushBlock(PartitionWriter& writer) {
  if (writer.buffer.empty()) return Status::OK();
  if (writer.file == nullptr) {
    SWOLE_FAULT_POINT("spill_create",
                      Status::IOError("injected fault: spill_create"));
    writer.file = std::fopen(writer.path.c_str(), "wb");
    if (writer.file == nullptr) {
      return Status::IOError(StringFormat("cannot create spill run %s: %s",
                                          writer.path.c_str(),
                                          std::strerror(errno)));
    }
    FileHeader header{kSpillMagic, payload_width_, 0};
    if (std::fwrite(&header, sizeof(header), 1, writer.file) != 1) {
      return Status::IOError(StringFormat("cannot write spill header to %s",
                                          writer.path.c_str()));
    }
    bytes_written_.fetch_add(sizeof(header), std::memory_order_relaxed);
  }
  SWOLE_FAULT_POINT(
      "spill_enospc",
      Status::IOError("injected fault: spill_enospc (no space left on "
                      "device)"));
  SWOLE_FAULT_POINT("spill_write",
                    Status::IOError("injected fault: spill_write"));
  const int row_width = 1 + payload_width_;
  const size_t num_rows = writer.buffer.size() / row_width;
  const size_t data_bytes = writer.buffer.size() * sizeof(int64_t);
  BlockHeader block;
  block.checksum = Xxh64(writer.buffer.data(), data_bytes);
  block.num_rows = static_cast<uint32_t>(num_rows);
  block.row_width = static_cast<uint32_t>(row_width);
  if (std::fwrite(&block, sizeof(block), 1, writer.file) != 1 ||
      std::fwrite(writer.buffer.data(), sizeof(int64_t),
                  writer.buffer.size(), writer.file) != writer.buffer.size()) {
    return Status::IOError(StringFormat("short write to spill run %s: %s",
                                        writer.path.c_str(),
                                        std::strerror(errno)));
  }
  bytes_written_.fetch_add(
      static_cast<int64_t>(sizeof(block) + data_bytes),
      std::memory_order_relaxed);
  rows_spilled_.fetch_add(static_cast<int64_t>(num_rows),
                          std::memory_order_relaxed);
  Metrics().blocks_written.Add(1);
  Metrics().bytes_written.Add(static_cast<int64_t>(sizeof(block) + data_bytes));
  Metrics().rows.Add(static_cast<int64_t>(num_rows));
  writer.buffer.clear();
  return Status::OK();
}

Status SpillManager::AppendStaged(PartitionWriter& writer,
                                  const int64_t* rows, int64_t num_rows) {
  std::lock_guard<std::mutex> lock(writer.mu);
  if (!writer.failed_error.empty()) {
    return AlreadyFailed(writer.path, writer.failed_error);
  }
  const int64_t row_width = 1 + payload_width_;
  const size_t block_words = static_cast<size_t>(kBlockRows * row_width);
  writer.buffer.reserve(block_words);
  // Blocks stay kBlockRows rows whatever the stage size: a stage that
  // straddles a block boundary completes one block and starts the next.
  while (num_rows > 0) {
    const int64_t room =
        kBlockRows - static_cast<int64_t>(writer.buffer.size()) / row_width;
    const int64_t take = std::min(num_rows, room);
    writer.buffer.insert(writer.buffer.end(), rows, rows + take * row_width);
    rows += take * row_width;
    num_rows -= take;
    if (writer.buffer.size() == block_words) {
      Status st = FlushBlock(writer);
      if (!st.ok()) {
        writer.failed_error = std::string(st.message());
        return st;
      }
    }
  }
  return Status::OK();
}

SpillManager::Batch::Batch(SpillManager& manager)
    : Batch(manager, /*writers=*/nullptr, /*depth=*/0) {}

SpillManager::Batch::Batch(SpillManager& manager, Writers* writers, int depth)
    : manager_(manager),
      writers_(writers),
      depth_(depth),
      width_(1 + manager.payload_width_),
      stage_(static_cast<size_t>(manager.config_.num_partitions) *
             kStageRows * width_),
      staged_(manager.config_.num_partitions, 0) {}

Status SpillManager::Batch::Add(int64_t key, const int64_t* payload) {
  const int p = manager_.RadixDigit(key, depth_);
  int64_t* row = stage_.data() + (p * kStageRows + staged_[p]) * width_;
  row[0] = key;
  std::memcpy(row + 1, payload, (width_ - 1) * sizeof(int64_t));
  if (++staged_[p] < kStageRows) return Status::OK();
  return AppendStage(p);
}

Status SpillManager::Batch::AppendStage(int partition) {
  if (writers_ == nullptr) {
    // The first append of a depth-0 batch creates the scratch dir; after
    // it, manager_.writers_ never changes until the manager dies.
    SWOLE_RETURN_NOT_OK(manager_.EnsureScratchDir());
    writers_ = &manager_.writers_;
  }
  const int64_t rows = staged_[partition];
  staged_[partition] = 0;
  return manager_.AppendStaged(
      *(*writers_)[partition], stage_.data() + partition * kStageRows * width_,
      rows);
}

Status SpillManager::Batch::Drain() {
  for (int p = 0; p < static_cast<int>(staged_.size()); ++p) {
    if (staged_[p] > 0) SWOLE_RETURN_NOT_OK(AppendStage(p));
  }
  return Status::OK();
}

Status SpillManager::Batch::Finish() {
  SWOLE_RETURN_NOT_OK(Drain());
  // An empty batch still counts as a spill, and MergePartition expects the
  // partition writers of a manager that spilled.
  SWOLE_RETURN_NOT_OK(manager_.EnsureScratchDir());
  manager_.spill_events_.fetch_add(1, std::memory_order_acq_rel);
  Metrics().spills.Add(1);
  return Status::OK();
}

Status SpillManager::SpillTable(const HashTable& table, int64_t skip_key) {
  Batch batch(*this);
  Status status;
  table.ForEach([&](int64_t key, const int64_t* payload) {
    if (key == skip_key || !status.ok()) return;
    status = batch.Add(key, payload);
  });
  SWOLE_RETURN_NOT_OK(status);
  return batch.Finish();
}

Status SpillManager::CloseWriter(PartitionWriter& writer) {
  std::lock_guard<std::mutex> lock(writer.mu);
  if (!writer.failed_error.empty()) {
    return AlreadyFailed(writer.path, writer.failed_error);
  }
  SWOLE_RETURN_NOT_OK(FlushBlock(writer));
  if (writer.file == nullptr) return Status::OK();
  SWOLE_FAULT_POINT("spill_flush",
                    Status::IOError("injected fault: spill_flush"));
  int rc = std::fflush(writer.file);
  rc |= std::fclose(writer.file);
  writer.file = nullptr;
  if (rc != 0) {
    return Status::IOError(StringFormat("cannot flush spill run %s: %s",
                                        writer.path.c_str(),
                                        std::strerror(errno)));
  }
  return Status::OK();
}

Status SpillManager::Flush() {
  Status status;
  for (auto& writer : writers_) {
    if (writer == nullptr) continue;
    Status st = CloseWriter(*writer);
    // Close every writer even after a failure so no FILE* leaks; report
    // the first error.
    if (!st.ok() && status.ok()) status = st;
    if (!st.ok() && writer->file != nullptr) {
      std::fclose(writer->file);
      writer->file = nullptr;
    }
  }
  return status;
}

Status SpillManager::ReadRun(
    const std::string& path,
    const std::function<Status(const int64_t*, int64_t)>& block_fn) {
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::OK();  // partition never received a row
  }
  SWOLE_FAULT_POINT("spill_read",
                    Status::IOError("injected fault: spill_read"));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(StringFormat("cannot open spill run %s: %s",
                                        path.c_str(), std::strerror(errno)));
  }
  auto fail = [&](std::string msg) {
    std::fclose(file);
    return Status::IOError(std::move(msg));
  };
  FileHeader header;
  if (std::fread(&header, sizeof(header), 1, file) != 1 ||
      header.magic != kSpillMagic ||
      header.payload_width != payload_width_) {
    return fail(StringFormat("corrupt spill run header in %s", path.c_str()));
  }
  std::vector<int64_t> rows;
  while (true) {
    BlockHeader block;
    size_t n = std::fread(&block, sizeof(block), 1, file);
    if (n == 0) {
      if (std::feof(file)) break;
      return fail(StringFormat("read failed on spill run %s", path.c_str()));
    }
    if (block.row_width != static_cast<uint32_t>(1 + payload_width_) ||
        block.num_rows == 0 ||
        block.num_rows > static_cast<uint32_t>(kMaxBlockRows)) {
      return fail(
          StringFormat("corrupt spill block header in %s", path.c_str()));
    }
    rows.resize(static_cast<size_t>(block.num_rows) * block.row_width);
    if (std::fread(rows.data(), sizeof(int64_t), rows.size(), file) !=
        rows.size()) {
      return fail(
          StringFormat("truncated spill block in %s", path.c_str()));
    }
    uint64_t computed = Xxh64(rows.data(), rows.size() * sizeof(int64_t));
    if (FaultInjector::Global().ShouldFail("spill_checksum")) {
      computed ^= 1;  // deterministic corruption for the fault sweep
    }
    if (computed != block.checksum) {
      Metrics().checksum_failures.Add(1);
      return fail(StringFormat(
          "spill block checksum mismatch in %s (stored %016llx, computed "
          "%016llx)",
          path.c_str(), static_cast<unsigned long long>(block.checksum),
          static_cast<unsigned long long>(computed)));
    }
    Status st = block_fn(rows.data(), block.num_rows);
    if (!st.ok()) {
      std::fclose(file);
      return st;
    }
  }
  std::fclose(file);
  return Status::OK();
}

Status SpillManager::RemoveRun(const std::string& path) {
  SWOLE_FAULT_POINT("spill_unlink",
                    Status::IOError("injected fault: spill_unlink"));
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(StringFormat("cannot remove spill run %s: %s",
                                        path.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

Status SpillManager::Repartition(const std::string& path, int depth,
                                 std::vector<std::string>* child_paths) {
  Metrics().repartitions.Add(1);
  Writers children(config_.num_partitions);
  for (int p = 0; p < config_.num_partitions; ++p) {
    children[p] = std::make_unique<PartitionWriter>();
    children[p]->path = StringFormat("%s.%03d", path.c_str(), p);
    scratch_.Track(children[p]->path);
  }
  const int row_width = 1 + payload_width_;
  Batch batch(*this, &children, depth + 1);
  Status status = ReadRun(path, [&](const int64_t* rows, int64_t num_rows) {
    for (int64_t r = 0; r < num_rows; ++r) {
      const int64_t* row = rows + r * row_width;
      SWOLE_RETURN_NOT_OK(batch.Add(row[0], row + 1));
    }
    return Status::OK();
  });
  if (status.ok()) status = batch.Drain();
  for (auto& child : children) {
    Status st = CloseWriter(*child);
    if (!st.ok() && status.ok()) status = st;
    if (child->file != nullptr) {
      std::fclose(child->file);
      child->file = nullptr;
    }
  }
  SWOLE_RETURN_NOT_OK(status);
  SWOLE_RETURN_NOT_OK(RemoveRun(path));
  child_paths->clear();
  for (auto& child : children) child_paths->push_back(child->path);
  return Status::OK();
}

Status SpillManager::RebuildRun(const std::string& path,
                                const SpillMergeFn& merge_fn,
                                std::vector<int64_t>* out_rows,
                                bool* over_budget) {
  // Rebuild this run's groups under the query budget. The table charges
  // at "spill_merge"; a refusal abandons the partial rebuild (the table's
  // destructor releases its charge) and reports over_budget to the caller.
  *over_budget = false;
  HashTable table(payload_width_, 16);
  try {
    if (ctx_ != nullptr) {
      table.SetMemHook(QueryContext::MemHookThunk, ctx_, kMergeSite);
    }
    const int row_width = 1 + payload_width_;
    Status st = ReadRun(path, [&](const int64_t* rows, int64_t num_rows) {
      for (int64_t r = 0; r < num_rows; ++r) {
        const int64_t* row = rows + r * row_width;
        int64_t before = table.size();
        int64_t* dst = table.GetOrInsert(row[0]);
        if (table.size() > before) {
          std::memcpy(dst, row + 1, payload_width_ * sizeof(int64_t));
        } else {
          merge_fn(dst, row + 1);
        }
      }
      return Status::OK();
    });
    if (!st.ok()) return st;
    SWOLE_RETURN_NOT_OK(RemoveRun(path));
    out_rows->reserve(out_rows->size() +
                      static_cast<size_t>(table.size()) *
                          (1 + payload_width_));
    table.ForEach([&](int64_t key, const int64_t* payload) {
      out_rows->push_back(key);
      out_rows->insert(out_rows->end(), payload, payload + payload_width_);
    });
    Metrics().merge_rows.Add(table.size());
    return Status::OK();
  } catch (const QueryAbort& abort) {
    // Budget refusals start the next rung of the ladder; deadline and
    // cancellation propagate (the caller's governed region converts
    // them to structured Statuses).
    if (abort.reason != AbortReason::kBudget) throw;
    // Recovered: the refusal's pending-abort record must not reclassify
    // the structured Status this ladder produces (e.g. kSpillFailed at
    // depth exhaustion) back into kBudgetExceeded.
    if (ctx_ != nullptr) ctx_->ClearRecoveredBudgetAbort();
    *over_budget = true;
    return Status::OK();
  }
}

Status SpillManager::MergeRun(const std::string& path, int depth,
                              const SpillMergeFn& merge_fn,
                              std::vector<int64_t>* out_rows) {
  bool over_budget = false;
  SWOLE_RETURN_NOT_OK(RebuildRun(path, merge_fn, out_rows, &over_budget));
  if (!over_budget) return Status::OK();
  if (depth >= config_.max_depth) {
    // Last resort before failing: partitions are merged concurrently, so
    // the refusals that burned every repartition level may have come from
    // sibling merges' transient charges, not this partition's own size.
    // Retry serialized behind the solo lock — siblings keep draining and
    // releasing their rebuild tables — so kSpillFailed is only returned
    // for a partition that does not fit the budget largely on its own.
    std::lock_guard<std::mutex> solo(solo_merge_mu_);
    for (int attempt = 0; attempt < kSoloMergeRetries; ++attempt) {
      SWOLE_RETURN_NOT_OK(RebuildRun(path, merge_fn, out_rows, &over_budget));
      if (!over_budget) return Status::OK();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::SpillFailed(StringFormat(
        "spill partition %s still exceeds the memory budget at repartition "
        "depth %d (SWOLE_SPILL_DEPTH=%d, SWOLE_SPILL_PARTITIONS=%d); raise "
        "mem_limit_bytes or the partition fan-out",
        path.c_str(), depth, config_.max_depth, config_.num_partitions));
  }
  int new_depth = depth + 1;
  int seen = max_depth_reached_.load(std::memory_order_relaxed);
  while (seen < new_depth &&
         !max_depth_reached_.compare_exchange_weak(
             seen, new_depth, std::memory_order_acq_rel)) {
  }
  std::vector<std::string> children;
  SWOLE_RETURN_NOT_OK(Repartition(path, depth, &children));
  for (const std::string& child : children) {
    SWOLE_RETURN_NOT_OK(MergeRun(child, new_depth, merge_fn, out_rows));
  }
  return Status::OK();
}

Status SpillManager::MergePartition(int index, const SpillMergeFn& merge_fn,
                                    std::vector<int64_t>* out_rows) {
  SWOLE_CHECK(index >= 0 && index < config_.num_partitions);
  if (writers_.empty()) return Status::OK();  // nothing ever spilled
  Metrics().partitions_merged.Add(1);
  return MergeRun(writers_[index]->path, 0, merge_fn, out_rows);
}

}  // namespace swole::exec

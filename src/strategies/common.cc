#include "strategies/common.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <map>
#include <set>

#include "common/logging.h"
#include "cost/estimates.h"
#include "exec/scheduler.h"
#include "exec/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swole::pipeline {

namespace {

// One count per filter tile. Host-side only: kernels.h stays free of obs
// so JIT-compiled objects keep their minimal link surface.
void CountScanTile() {
  static obs::Counter& tiles =
      obs::MetricsRegistry::Global().GetCounter("simd.tiles_native");
  tiles.Add(1);
}

kernels::CmpOp ToCmpOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return kernels::CmpOp::kLt;
    case BinaryOp::kLe:
      return kernels::CmpOp::kLe;
    case BinaryOp::kGt:
      return kernels::CmpOp::kGt;
    case BinaryOp::kGe:
      return kernels::CmpOp::kGe;
    case BinaryOp::kEq:
      return kernels::CmpOp::kEq;
    case BinaryOp::kNe:
      return kernels::CmpOp::kNe;
    default:
      SWOLE_CHECK(false);
      return kernels::CmpOp::kEq;
  }
}

// True for `col OP lit` / `lit OP col` conjuncts; extracts the pieces.
bool AsSimpleComparison(const Expr& expr, const Table& table,
                        const Column** col, kernels::CmpOp* op,
                        int64_t* lit) {
  if (expr.kind != ExprKind::kBinary || !IsComparisonOp(expr.op)) {
    return false;
  }
  const Expr& lhs = *expr.children[0];
  const Expr& rhs = *expr.children[1];
  if (lhs.kind == ExprKind::kColumnRef && rhs.kind == ExprKind::kLiteral) {
    *col = &table.ColumnRef(lhs.column);
    *op = ToCmpOp(expr.op);
    *lit = rhs.literal;
    return true;
  }
  if (lhs.kind == ExprKind::kLiteral && rhs.kind == ExprKind::kColumnRef) {
    *col = &table.ColumnRef(rhs.column);
    switch (ToCmpOp(expr.op)) {
      case kernels::CmpOp::kLt:
        *op = kernels::CmpOp::kGt;
        break;
      case kernels::CmpOp::kLe:
        *op = kernels::CmpOp::kGe;
        break;
      case kernels::CmpOp::kGt:
        *op = kernels::CmpOp::kLt;
        break;
      case kernels::CmpOp::kGe:
        *op = kernels::CmpOp::kLe;
        break;
      default:
        *op = ToCmpOp(expr.op);
        break;
    }
    *lit = lhs.literal;
    return true;
  }
  return false;
}

void IotaSel(int32_t* sel, int64_t len) {
  for (int64_t j = 0; j < len; ++j) sel[j] = static_cast<int32_t>(j);
}

// Typed gather of a storage column through a selection vector.
void GatherColumnSel(const Column& col, int64_t start, const int32_t* sel,
                     int32_t n, int64_t* out) {
  DispatchPhysical(col.type().physical, [&]<typename T>() {
    kernels::Gather<T>(col.Data<T>() + start, sel, n, out);
  });
}

void WidenColumn(const Column& col, int64_t start, int64_t len,
                 int64_t* out) {
  DispatchPhysical(col.type().physical, [&]<typename T>() {
    kernels::Widen<T>(col.Data<T>() + start, len, out);
  });
}

}  // namespace

Scratch::Scratch(int64_t tile_size)
    : tile(tile_size),
      cmp(tile_size),
      cmp2(tile_size),
      sel(tile_size),
      sel2(tile_size),
      keys(tile_size),
      vals(tile_size),
      vals2(tile_size),
      offs(tile_size),
      ptrs(tile_size) {}

void FilterToMask(VectorEvaluator* eval, const Expr* filter, int64_t start,
                  int64_t len, uint8_t* cmp) {
  CountScanTile();
  if (filter == nullptr) {
    std::memset(cmp, 1, len);
    return;
  }
  eval->EvalBool(*filter, start, len, cmp);
}

int32_t CompactSel(StrategyKind kind, int32_t* sel, const uint8_t* flags,
                   int32_t n) {
  int32_t m = 0;
  if (kind == StrategyKind::kDataCentric) {
    for (int32_t k = 0; k < n; ++k) {
      if (flags[k]) sel[m++] = sel[k];
    }
  } else {
    for (int32_t k = 0; k < n; ++k) {
      sel[m] = sel[k];
      m += flags[k] != 0;
    }
  }
  return m;
}

int32_t FilterToSelVec(StrategyKind kind, VectorEvaluator* eval,
                       const Table& table, const Expr* filter, int64_t start,
                       int64_t len, Scratch* scratch, int32_t* out_sel) {
  CountScanTile();
  if (filter == nullptr) {
    IotaSel(out_sel, len);
    return static_cast<int32_t>(len);
  }

  if (kind == StrategyKind::kDataCentric) {
    // Branching, conjunct by conjunct (the fused if-chain of Fig. 1 top).
    std::vector<const Expr*> conjuncts = SplitConjuncts(*filter);
    int32_t n = 0;
    bool first = true;
    for (const Expr* conjunct : conjuncts) {
      const Column* col = nullptr;
      kernels::CmpOp op;
      int64_t lit = 0;
      if (AsSimpleComparison(*conjunct, table, &col, &op, &lit)) {
        if (first) {
          DispatchPhysical(col->type().physical, [&]<typename T>() {
            n = kernels::SelectLitBranch<T>(op, col->Data<T>() + start, lit,
                                            out_sel, len);
          });
        } else {
          DispatchPhysical(col->type().physical, [&]<typename T>() {
            n = kernels::RefineLitBranch<T>(op, col->Data<T>() + start, lit,
                                            out_sel, n, scratch->sel2.data());
          });
          std::memcpy(out_sel, scratch->sel2.data(), n * sizeof(int32_t));
        }
      } else {
        // Complex conjunct (LIKE, OR, ...): evaluate its mask, then take a
        // per-tuple branch on it — the data-centric control dependency is
        // preserved even though the mask itself is computed vectorized.
        eval->EvalBool(*conjunct, start, len, scratch->cmp.data());
        if (first) {
          n = kernels::SelVecFromCmpBranch(scratch->cmp.data(), len, out_sel);
        } else {
          n = kernels::RefineMaskBranch(scratch->cmp.data(), out_sel, n,
                                        scratch->sel2.data());
          std::memcpy(out_sel, scratch->sel2.data(), n * sizeof(int32_t));
        }
      }
      first = false;
      if (n == 0) break;
    }
    return n;
  }

  // Hybrid / ROF / SWOLE-fallback: full prepass into cmp, then selection
  // vector construction (no-branch for hybrid, lookup table for ROF).
  eval->EvalBool(*filter, start, len, scratch->cmp.data());
  if (kind == StrategyKind::kRof) {
    return kernels::SelVecFromCmpLut(scratch->cmp.data(), len, out_sel);
  }
  return kernels::SelVecFromCmpNoBranch(scratch->cmp.data(), len, out_sel);
}

KeyRuns::KeyRuns(int num_workers, bool with_payload,
                 exec::QueryContext* ctx, const char* site)
    : runs_(num_workers),
      with_payload_(with_payload),
      ctx_(ctx),
      site_(site) {}

KeyRuns::~KeyRuns() {
  if (ctx_ == nullptr) return;
  for (const Run& run : runs_) {
    if (run.charged > 0) ctx_->TryCharge(-run.charged, site_);
  }
}

void KeyRuns::Reserve(Run* run, size_t needed) {
  if (needed <= run->keys.capacity()) return;
  const size_t capacity =
      std::max({needed, 2 * run->keys.capacity(), size_t{1024}});
  const int64_t bytes_per_entry = with_payload_ ? 16 : 8;
  const int64_t new_bytes = static_cast<int64_t>(capacity) * bytes_per_entry;
  // Charge the grown buffers before allocating them; both generations are
  // live while reserve() copies, so the old ones are released only after.
  if (ctx_ != nullptr) {
    AbortReason reason = ctx_->TryCharge(new_bytes, site_);
    if (reason != AbortReason::kNone) {
      throw QueryAbort(reason, site_, new_bytes);
    }
    run->charged += new_bytes;
  }
  const int64_t old_bytes =
      static_cast<int64_t>(run->keys.capacity()) * bytes_per_entry;
  run->keys.reserve(capacity);
  if (with_payload_) run->payload.reserve(capacity);
  if (ctx_ != nullptr && old_bytes > 0) {
    ctx_->TryCharge(-old_bytes, site_);
    run->charged -= old_bytes;
  }
}

void KeyRuns::Append(int worker, const int64_t* keys, const int64_t* payload,
                     int32_t n) {
  Run& run = runs_[worker];
  Reserve(&run, run.keys.size() + n);
  // INT64_MIN is HashTable's empty marker, never a key.
  int64_t prev = run.keys.empty() ? INT64_MIN : run.keys.back();
  for (int32_t k = 0; k < n; ++k) {
    if (keys[k] == prev) continue;
    prev = keys[k];
    run.keys.push_back(keys[k]);
    if (with_payload_) run.payload.push_back(payload[k]);
  }
}

int64_t KeyRuns::total() const {
  int64_t total = 0;
  for (const Run& run : runs_) total += static_cast<int64_t>(run.keys.size());
  return total;
}

namespace {

// One morsel-parallel shared-insert phase into `table`, which must already
// have room for every key: insert(worker, begin, end) inserts entries
// [begin, end) of `total` and returns how many keys it claimed. The claims
// reach the table's size once, after the region joins.
template <typename InsertFn>
void SharedInsertPhase(HashTable* table, exec::QueryContext* ctx,
                       int num_threads, int64_t total, int64_t tile_size,
                       InsertFn&& insert) {
  std::vector<int64_t> claimed(num_threads, 0);
  exec::MorselStats stats = exec::ParallelMorsels(
      ctx, num_threads, total, exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t begin, int64_t end) {
        claimed[worker] += insert(worker, begin, end);
      });
  exec::ThrowIfError(stats.status);
  int64_t claimed_total = 0;
  for (int64_t c : claimed) claimed_total += c;
  table->AddClaimed(claimed_total);
}

}  // namespace

void KeyRuns::InsertInto(HashTable* table, int64_t max_keys, bool prefetch,
                         int num_threads, int64_t tile_size) const {
  const int64_t total_entries = total();
  table->ReserveFor(std::min(total_entries, max_keys));
  // starts[r] = global index of run r's first entry.
  std::vector<int64_t> starts(runs_.size() + 1, 0);
  for (size_t r = 0; r < runs_.size(); ++r) {
    starts[r + 1] = starts[r] + static_cast<int64_t>(runs_[r].keys.size());
  }
  SharedInsertPhase(
      table, ctx_, num_threads, total_entries, tile_size,
      [&](int /*worker*/, int64_t begin, int64_t end) {
        size_t r = std::upper_bound(starts.begin(), starts.end(), begin) -
                   starts.begin() - 1;
        int64_t claimed = 0;
        for (; begin < end; ++r) {
          const Run& run = runs_[r];
          const int64_t offset = begin - starts[r];
          const int64_t n = std::min(end, starts[r + 1]) - begin;
          claimed += table->InsertSharedBatch(
              run.keys.data() + offset,
              with_payload_ ? run.payload.data() + offset : nullptr, n,
              prefetch);
          begin += n;
        }
        return claimed;
      });
}

std::unique_ptr<HashTable> KeyRuns::BuildTable(int payload_width,
                                               int64_t max_keys,
                                               bool prefetch, int num_threads,
                                               int64_t tile_size) const {
  // Hook first, so the table's one sizing charge precedes its allocation.
  auto table = std::make_unique<HashTable>(payload_width);
  if (ctx_ != nullptr) {
    table->SetMemHook(exec::QueryContext::MemHookThunk, ctx_, site_);
  }
  InsertInto(table.get(), max_keys, prefetch, num_threads, tile_size);
  return table;
}

namespace {

// A build scan's per-worker state.
struct ScanWorker {
  ScanWorker(const Table& table, int64_t tile_size)
      : eval(table, tile_size), scratch(tile_size) {}
  VectorEvaluator eval;
  Scratch scratch;
};

std::vector<std::unique_ptr<ScanWorker>> MakeScanWorkers(const Table& table,
                                                         int64_t tile_size,
                                                         int num_threads) {
  std::vector<std::unique_ptr<ScanWorker>> workers(num_threads);
  for (auto& worker : workers) {
    worker = std::make_unique<ScanWorker>(table, tile_size);
  }
  return workers;
}

// Fk offset arrays of `dim`'s children on the dim table (positional
// qualification reads them sequentially during the dim scan).
std::vector<const uint32_t*> ChildOffsets(const Table& table,
                                          const DimJoin& dim) {
  std::vector<const uint32_t*> offsets;
  for (const DimJoin& child : dim.children) {
    const FkIndex* index =
        table.GetFkIndex(child.hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    offsets.push_back(index->offsets());
  }
  return offsets;
}

// cmp[j] &= child qualification of row start + j, for every child bitmap.
void AndChildBitmaps(const std::vector<PositionalBitmap>& child_bitmaps,
                     const std::vector<const uint32_t*>& child_offsets,
                     int64_t start, int64_t len, uint8_t* cmp) {
  for (size_t c = 0; c < child_bitmaps.size(); ++c) {
    const uint32_t* offs = child_offsets[c] + start;
    const PositionalBitmap& child = child_bitmaps[c];
    for (int64_t j = 0; j < len; ++j) {
      cmp[j] &= static_cast<uint8_t>(child.Test(offs[j]));
    }
  }
}

}  // namespace

KeyRuns CollectDimKeyRuns(StrategyKind kind, const Catalog& catalog,
                          const DimJoin& dim, int64_t tile_size,
                          int num_threads, exec::QueryContext* ctx) {
  // Children first (bottom-up through the snowflake).
  std::vector<std::unique_ptr<HashTable>> child_sets;
  child_sets.reserve(dim.children.size());
  for (const DimJoin& child : dim.children) {
    child_sets.push_back(
        BuildDimKeySet(kind, catalog, child, tile_size, num_threads, ctx));
  }

  const Table& table = catalog.TableRef(dim.hop.to_table);
  const Column& pk = table.ColumnRef(dim.hop.to_pk_column);
  KeyRuns runs(num_threads, /*with_payload=*/false, ctx, "dim_keyset");
  auto workers = MakeScanWorkers(table, tile_size, num_threads);
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      ctx, num_threads, table.num_rows(), exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t range_begin, int64_t range_end) {
        VectorEvaluator& eval = workers[worker]->eval;
        Scratch& scratch = workers[worker]->scratch;
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          int32_t n = FilterToSelVec(kind, &eval, table, dim.filter.get(),
                                     start, len, &scratch,
                                     scratch.sel.data());

          for (size_t c = 0; c < dim.children.size(); ++c) {
            if (n == 0) break;
            const Column& fk =
                table.ColumnRef(dim.children[c].hop.fk_column);
            GatherColumnSel(fk, start, scratch.sel.data(), n,
                            scratch.keys.data());
            HashTable& child = *child_sets[c];
            child.ContainsBatch(scratch.keys.data(), n, scratch.cmp2.data(),
                                /*prefetch=*/kind == StrategyKind::kRof);
            n = CompactSel(kind, scratch.sel.data(), scratch.cmp2.data(), n);
          }

          GatherColumnSel(pk, start, scratch.sel.data(), n,
                          scratch.keys.data());
          runs.Append(worker, scratch.keys.data(), nullptr, n);
        }
      });
  exec::ThrowIfError(scan_stats.status);
  return runs;
}

KeyRuns CollectDimKeyRunsPositional(const Catalog& catalog,
                                    const DimJoin& dim, int64_t tile_size,
                                    int num_threads, exec::QueryContext* ctx,
                                    const char* site) {
  std::vector<PositionalBitmap> child_bitmaps;
  for (const DimJoin& child : dim.children) {
    child_bitmaps.push_back(
        BuildDimBitmap(catalog, child, tile_size, num_threads, ctx));
  }
  const Table& table = catalog.TableRef(dim.hop.to_table);
  const std::vector<const uint32_t*> child_offsets = ChildOffsets(table, dim);
  const Column& pk = table.ColumnRef(dim.hop.to_pk_column);
  KeyRuns runs(num_threads, /*with_payload=*/false, ctx, site);
  auto workers = MakeScanWorkers(table, tile_size, num_threads);
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      ctx, num_threads, table.num_rows(), exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t range_begin, int64_t range_end) {
        VectorEvaluator& eval = workers[worker]->eval;
        Scratch& scratch = workers[worker]->scratch;
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          FilterToMask(&eval, dim.filter.get(), start, len,
                       scratch.cmp.data());
          AndChildBitmaps(child_bitmaps, child_offsets, start, len,
                          scratch.cmp.data());
          int32_t n = kernels::SelVecFromCmpNoBranch(scratch.cmp.data(), len,
                                                     scratch.sel.data());
          GatherColumnSel(pk, start, scratch.sel.data(), n,
                          scratch.keys.data());
          runs.Append(worker, scratch.keys.data(), nullptr, n);
        }
      });
  exec::ThrowIfError(scan_stats.status);
  return runs;
}

std::unique_ptr<HashTable> BuildDimKeySet(StrategyKind kind,
                                          const Catalog& catalog,
                                          const DimJoin& dim,
                                          int64_t tile_size, int num_threads,
                                          exec::QueryContext* ctx) {
  const int64_t dim_rows = catalog.TableRef(dim.hop.to_table).num_rows();
  return CollectDimKeyRuns(kind, catalog, dim, tile_size, num_threads, ctx)
      .BuildTable(/*payload_width=*/0, dim_rows,
                  /*prefetch=*/kind == StrategyKind::kRof, num_threads,
                  tile_size);
}

PositionalBitmap BuildDimBitmap(const Catalog& catalog, const DimJoin& dim,
                                int64_t tile_size, int num_threads,
                                exec::QueryContext* ctx) {
  std::vector<PositionalBitmap> child_bitmaps;
  child_bitmaps.reserve(dim.children.size());
  for (const DimJoin& child : dim.children) {
    child_bitmaps.push_back(
        BuildDimBitmap(catalog, child, tile_size, num_threads, ctx));
  }

  const Table& table = catalog.TableRef(dim.hop.to_table);
  PositionalBitmap bitmap(table.num_rows());
  if (ctx != nullptr) {
    bitmap.SetMemHook(exec::QueryContext::MemHookThunk, ctx, "dim_bitmap");
  }
  const std::vector<const uint32_t*> child_offsets = ChildOffsets(table, dim);

  // Workers fill disjoint row ranges of the shared bitmap. Morsels are
  // 64-row aligned (DefaultMorselSize), so PackBytes never touches a word
  // another worker writes.
  auto workers = MakeScanWorkers(table, tile_size, num_threads);
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      ctx, num_threads, table.num_rows(), exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t range_begin, int64_t range_end) {
        VectorEvaluator& eval = workers[worker]->eval;
        Scratch& scratch = workers[worker]->scratch;
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          FilterToMask(&eval, dim.filter.get(), start, len,
                       scratch.cmp.data());
          AndChildBitmaps(child_bitmaps, child_offsets, start, len,
                          scratch.cmp.data());
          // Unconditional store of the predicate result (§III-D option 1).
          bitmap.PackBytes(start, scratch.cmp.data(), len);
        }
      });
  exec::ThrowIfError(scan_stats.status);
  return bitmap;
}

std::unique_ptr<HashTable> BuildReverseKeySet(StrategyKind kind,
                                              const Catalog& catalog,
                                              const ReverseDim& rdim,
                                              int64_t tile_size,
                                              int num_threads,
                                              exec::QueryContext* ctx) {
  const Table& table = catalog.TableRef(rdim.table);
  const Column& fk = table.ColumnRef(rdim.fk_column);

  // fk values repeat across rows; Append drops adjacent repeats and the
  // shared insert unions the rest, so the set is order-independent.
  KeyRuns runs(num_threads, /*with_payload=*/false, ctx, "reverse_keyset");
  auto workers = MakeScanWorkers(table, tile_size, num_threads);
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      ctx, num_threads, table.num_rows(), exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t range_begin, int64_t range_end) {
        VectorEvaluator& eval = workers[worker]->eval;
        Scratch& scratch = workers[worker]->scratch;
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          int32_t n = FilterToSelVec(kind, &eval, table, rdim.filter.get(),
                                     start, len, &scratch,
                                     scratch.sel.data());
          GatherColumnSel(fk, start, scratch.sel.data(), n,
                          scratch.keys.data());
          runs.Append(worker, scratch.keys.data(), nullptr, n);
        }
      });
  exec::ThrowIfError(scan_stats.status);
  workers.clear();

  // At most one distinct key per row the fk references.
  const FkIndex* index = table.GetFkIndex(rdim.fk_column).ValueOr(nullptr);
  const int64_t max_keys =
      index != nullptr ? index->referenced_size() : runs.total();
  return runs.BuildTable(/*payload_width=*/0, max_keys,
                         /*prefetch=*/kind == StrategyKind::kRof, num_threads,
                         tile_size);
}

PositionalBitmap BuildReverseBitmap(const Catalog& catalog,
                                    const ReverseDim& rdim,
                                    int64_t fact_rows, int64_t tile_size,
                                    int num_threads,
                                    exec::QueryContext* ctx) {
  const Table& table = catalog.TableRef(rdim.table);
  const FkIndex* index = table.GetFkIndex(rdim.fk_column).ValueOr(nullptr);
  SWOLE_CHECK(index != nullptr);
  SWOLE_CHECK_EQ(index->referenced_size(), fact_rows);
  const uint32_t* offsets = index->offsets();

  PositionalBitmap bitmap(fact_rows);
  if (ctx != nullptr) {
    bitmap.SetMemHook(exec::QueryContext::MemHookThunk, ctx,
                      "reverse_bitmap");
  }

  auto workers = MakeScanWorkers(table, tile_size, num_threads);
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      ctx, num_threads, table.num_rows(), exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t range_begin, int64_t range_end) {
        VectorEvaluator& eval = workers[worker]->eval;
        uint8_t* cmp = workers[worker]->scratch.cmp.data();
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          FilterToMask(&eval, rdim.filter.get(), start, len, cmp);
          // OR-store: several rdim rows can reference one fact row, and
          // rows of other morsels can land in the same word. Bits collect
          // locally while consecutive offsets stay in one word; each
          // stretch costs one atomic fetch_or.
          const uint32_t* offs = offsets + start;
          int64_t word = -1;
          uint64_t bits = 0;
          for (int64_t j = 0; j < len; ++j) {
            const int64_t w = offs[j] >> 6;
            if (w != word) {
              if (bits != 0) bitmap.OrWordAtomic(word, bits);
              word = w;
              bits = 0;
            }
            bits |= static_cast<uint64_t>(cmp[j]) << (offs[j] & 63);
          }
          if (bits != 0) bitmap.OrWordAtomic(word, bits);
        }
      });
  exec::ThrowIfError(scan_stats.status);
  return bitmap;
}

std::unique_ptr<HashTable> BuildDisjunctiveHt(StrategyKind kind,
                                              const Catalog& catalog,
                                              const DisjunctiveJoin& dj,
                                              int64_t tile_size,
                                              int num_threads,
                                              exec::QueryContext* ctx) {
  (void)kind;  // the clause masks are prepass-evaluated for every strategy
  const Table& table = catalog.TableRef(dj.hop.to_table);
  const Column& pk = table.ColumnRef(dj.hop.to_pk_column);

  // Each qualifying pk key carries its clause bitmask through the runs; pk
  // keys are unique, so exactly one insert claims each key and writes it.
  KeyRuns runs(num_threads, /*with_payload=*/true, ctx, "disjunctive_ht");
  auto workers = MakeScanWorkers(table, tile_size, num_threads);
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      ctx, num_threads, table.num_rows(), exec::DefaultMorselSize(tile_size),
      [&](int worker, int64_t range_begin, int64_t range_end) {
        VectorEvaluator& eval = workers[worker]->eval;
        Scratch& scratch = workers[worker]->scratch;
        int64_t* bits = scratch.vals.data();
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          std::fill(bits, bits + len, 0);
          for (size_t c = 0; c < dj.clauses.size(); ++c) {
            FilterToMask(&eval, dj.clauses[c].dim_filter.get(), start, len,
                         scratch.cmp.data());
            for (int64_t j = 0; j < len; ++j) {
              bits[j] |= static_cast<int64_t>(scratch.cmp[j]) << c;
            }
          }
          WidenColumn(pk, start, len, scratch.keys.data());
          // Compact the qualifying lanes, then append as one batch.
          int32_t m = 0;
          for (int64_t j = 0; j < len; ++j) {
            scratch.keys[m] = scratch.keys[j];
            bits[m] = bits[j];
            m += bits[j] != 0;
          }
          runs.Append(worker, scratch.keys.data(), bits, m);
        }
      });
  exec::ThrowIfError(scan_stats.status);
  workers.clear();
  return runs.BuildTable(/*payload_width=*/1, table.num_rows(),
                         /*prefetch=*/false, num_threads, tile_size);
}

std::vector<PositionalBitmap> BuildDisjunctiveBitmaps(
    const Catalog& catalog, const DisjunctiveJoin& dj, int64_t tile_size,
    int num_threads, exec::QueryContext* ctx) {
  const Table& table = catalog.TableRef(dj.hop.to_table);
  auto workers = MakeScanWorkers(table, tile_size, num_threads);

  std::vector<PositionalBitmap> bitmaps;
  bitmaps.reserve(dj.clauses.size());
  for (const DisjunctiveJoin::Clause& clause : dj.clauses) {
    PositionalBitmap bitmap(table.num_rows());
    if (ctx != nullptr) {
      bitmap.SetMemHook(exec::QueryContext::MemHookThunk, ctx,
                        "disjunctive_bitmap");
    }
    exec::MorselStats scan_stats = exec::ParallelMorsels(
        ctx, num_threads, table.num_rows(),
        exec::DefaultMorselSize(tile_size),
        [&](int worker, int64_t range_begin, int64_t range_end) {
          VectorEvaluator& eval = workers[worker]->eval;
          uint8_t* cmp = workers[worker]->scratch.cmp.data();
          for (int64_t start = range_begin; start < range_end;
               start += tile_size) {
            int64_t len = std::min(tile_size, range_end - start);
            FilterToMask(&eval, clause.dim_filter.get(), start, len, cmp);
            bitmap.PackBytes(start, cmp, len);
          }
        });
    exec::ThrowIfError(scan_stats.status);
    bitmaps.push_back(std::move(bitmap));
  }
  return bitmaps;
}

ResolvedPath ResolvePath(const Catalog& catalog, const Table& fact,
                         const ColumnPath& path) {
  ResolvedPath resolved;
  const Table* current = &fact;
  for (const Hop& hop : path.hops) {
    const FkIndex* index =
        current->GetFkIndex(hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    resolved.indexes.push_back(index);
    current = &catalog.TableRef(hop.to_table);
  }
  resolved.column = &current->ColumnRef(path.column);
  if (!path.like_pattern.empty()) {
    SWOLE_CHECK(resolved.column->dictionary() != nullptr);
    resolved.like_mask =
        resolved.column->dictionary()->LikeMask(path.like_pattern);
  }
  return resolved;
}

void GatherPathSel(const ResolvedPath& path, int64_t start,
                   const int32_t* sel, int32_t n, Scratch* scratch,
                   int64_t* out) {
  int64_t* offs = scratch->offs.data();
  for (int32_t k = 0; k < n; ++k) offs[k] = start + sel[k];
  for (const FkIndex* index : path.indexes) {
    const uint32_t* table_offsets = index->offsets();
    for (int32_t k = 0; k < n; ++k) offs[k] = table_offsets[offs[k]];
  }
  DispatchPhysical(path.column->type().physical, [&]<typename T>() {
    const T* data = path.column->Data<T>();
    for (int32_t k = 0; k < n; ++k) out[k] = static_cast<int64_t>(data[offs[k]]);
  });
  if (!path.like_mask.empty()) {
    for (int32_t k = 0; k < n; ++k) out[k] = path.like_mask[out[k]];
  }
}

void GatherPathAll(const ResolvedPath& path, int64_t start, int64_t len,
                   Scratch* scratch, int64_t* out) {
  int64_t* offs = scratch->offs.data();
  // First hop reads its offset array sequentially (pullup advantage).
  const uint32_t* first = path.indexes[0]->offsets() + start;
  for (int64_t j = 0; j < len; ++j) offs[j] = first[j];
  for (size_t h = 1; h < path.indexes.size(); ++h) {
    const uint32_t* table_offsets = path.indexes[h]->offsets();
    for (int64_t j = 0; j < len; ++j) offs[j] = table_offsets[offs[j]];
  }
  DispatchPhysical(path.column->type().physical, [&]<typename T>() {
    const T* data = path.column->Data<T>();
    for (int64_t j = 0; j < len; ++j) out[j] = static_cast<int64_t>(data[offs[j]]);
  });
  if (!path.like_mask.empty()) {
    for (int64_t j = 0; j < len; ++j) out[j] = path.like_mask[out[j]];
  }
}

AggShape DetectAggShape(const Table& fact, const AggSpec& agg) {
  AggShape shape;
  if (agg.kind != AggKind::kSum || !agg.path_factor.empty()) return shape;
  const Expr& e = *agg.expr;
  if (e.kind == ExprKind::kColumnRef) {
    shape.kind = AggShape::Kind::kCol;
    shape.a = &fact.ColumnRef(e.column);
    return shape;
  }
  if (e.kind == ExprKind::kBinary &&
      (e.op == BinaryOp::kMul || e.op == BinaryOp::kDiv) &&
      e.children[0]->kind == ExprKind::kColumnRef &&
      e.children[1]->kind == ExprKind::kColumnRef) {
    shape.kind = e.op == BinaryOp::kMul ? AggShape::Kind::kProduct
                                        : AggShape::Kind::kQuotient;
    shape.a = &fact.ColumnRef(e.children[0]->column);
    shape.b = &fact.ColumnRef(e.children[1]->column);
  }
  return shape;
}

namespace {

std::vector<AggShape> DetectAggShapes(const Table& fact,
                                      const QueryPlan& plan) {
  std::vector<AggShape> shapes;
  for (const AggSpec& agg : plan.aggs) {
    shapes.push_back(DetectAggShape(fact, agg));
  }
  return shapes;
}

// A COUNT the scalar accumulators add up without per-lane values.
bool IsPlainCount(const AggSpec& agg) {
  return agg.kind == AggKind::kCount && agg.path_factor.empty();
}

// Output 0: the key expression; output 1 + a: aggregate a's input. A
// scalar plan leaves out what the fused kernels or the caller sum.
TileProgram CompileAggInputs(const Table& fact, const QueryPlan& plan,
                             const std::vector<AggShape>& shapes,
                             const std::vector<uint8_t>& skip) {
  static const ExprPtr kCountInput = Lit(1);
  std::vector<const Expr*> outputs = {plan.group_by.get()};
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    const AggSpec& agg = plan.aggs[a];
    const bool fused = !plan.HasGroupBy() &&
                       ((!skip.empty() && skip[a]) ||
                        shapes[a].kind != AggShape::Kind::kGeneral ||
                        IsPlainCount(agg));
    outputs.push_back(fused ? nullptr
                      : agg.expr != nullptr ? agg.expr.get()
                                            : kCountInput.get());
  }
  return TileProgram(fact, outputs);
}

ResolvedPath ResolvePathAlias(const Catalog& catalog, const Table& fact,
                              const QueryPlan& plan,
                              const std::string& alias) {
  if (alias.empty()) return ResolvedPath{};
  return ResolvePath(catalog, fact, *plan.FindPath(alias));
}

std::vector<ResolvedPath> ResolveFactorPaths(const Catalog& catalog,
                                             const Table& fact,
                                             const QueryPlan& plan) {
  std::vector<ResolvedPath> paths;
  for (const AggSpec& agg : plan.aggs) {
    paths.push_back(ResolvePathAlias(catalog, fact, plan, agg.path_factor));
  }
  return paths;
}

}  // namespace

AggProgram::AggProgram(const Catalog& catalog, const Table& fact,
                       const QueryPlan& plan,
                       const std::vector<uint8_t>& skip)
    : plan(plan),
      shapes(DetectAggShapes(fact, plan)),
      skip(skip),
      group_path(ResolvePathAlias(catalog, fact, plan, plan.group_by_path)),
      factor_paths(ResolveFactorPaths(catalog, fact, plan)),
      program(CompileAggInputs(fact, plan, shapes, skip)) {}

AggLanes::AggLanes(const AggProgram& program, int64_t tile_size)
    : program_(program), regs_(program.program.NewRegisters(tile_size)) {
  const QueryPlan& plan = program.plan;
  if (!plan.group_by_path.empty()) {
    path_keys_.resize(tile_size);
    keys_ = path_keys_.data();
  } else {
    keys_ = program.program.Output(regs_, 0);
  }
  factor_values_.resize(plan.aggs.size());
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    const int64_t* input =
        program.program.Output(regs_, 1 + static_cast<int>(a));
    if (input != nullptr && !plan.aggs[a].path_factor.empty()) {
      factor_values_[a].resize(tile_size);
      input = factor_values_[a].data();
    }
    values_.push_back(input);
  }
}

void AggLanes::ComputeSel(int64_t start, const int32_t* sel, int32_t n,
                          bool lanes_kept, Scratch* scratch) {
  program_.program.EvalSel(start, sel, n, lanes_kept, &regs_);
  if (!path_keys_.empty()) {
    GatherPathSel(program_.group_path, start, sel, n, scratch,
                  path_keys_.data());
  }
  for (size_t a = 0; a < factor_values_.size(); ++a) {
    if (factor_values_[a].empty()) continue;
    GatherPathSel(program_.factor_paths[a], start, sel, n, scratch,
                  scratch->vals2.data());
    const int64_t* input =
        program_.program.Output(regs_, 1 + static_cast<int>(a));
    for (int32_t k = 0; k < n; ++k) {
      factor_values_[a][k] = input[k] * scratch->vals2[k];
    }
  }
}

void AggLanes::ComputeAll(int64_t start, int64_t len, const uint8_t* keep,
                          Scratch* scratch) {
  program_.program.EvalAll(start, len, keep, &regs_);
  if (!path_keys_.empty()) {
    GatherPathAll(program_.group_path, start, len, scratch,
                  path_keys_.data());
  }
  for (size_t a = 0; a < factor_values_.size(); ++a) {
    if (factor_values_[a].empty()) continue;
    GatherPathAll(program_.factor_paths[a], start, len, scratch,
                  scratch->vals2.data());
    const int64_t* input =
        program_.program.Output(regs_, 1 + static_cast<int>(a));
    for (int64_t j = 0; j < len; ++j) {
      factor_values_[a][j] = input[j] * scratch->vals2[j];
    }
  }
}

namespace {

int64_t SumProductSelDispatch(const Column& a, const Column& b, int64_t start,
                              const int32_t* sel, int32_t n, bool quotient) {
  return DispatchPhysical(a.type().physical, [&]<typename TA>() {
    return DispatchPhysical(b.type().physical, [&]<typename TB>() {
      if (quotient) {
        return kernels::SumQuotientSel<TA, TB>(a.Data<TA>() + start,
                                               b.Data<TB>() + start, sel, n);
      }
      return kernels::SumProductSel<TA, TB>(a.Data<TA>() + start,
                                            b.Data<TB>() + start, sel, n);
    });
  });
}

int64_t SumProductMaskedDispatch(const Column& a, const Column& b,
                                 int64_t start, const uint8_t* cmp,
                                 int64_t len, bool quotient) {
  return DispatchPhysical(a.type().physical, [&]<typename TA>() {
    return DispatchPhysical(b.type().physical, [&]<typename TB>() {
      if (quotient) {
        return kernels::SumQuotientMasked<TA, TB>(
            a.Data<TA>() + start, b.Data<TB>() + start, cmp, len);
      }
      return kernels::SumProductMasked<TA, TB>(a.Data<TA>() + start,
                                               b.Data<TB>() + start, cmp,
                                               len);
    });
  });
}

// True when a row the mask keeps has a zero in `divisor`.
bool KeptZeroDivisor(const Column& divisor, int64_t start, const uint8_t* cmp,
                     int64_t len) {
  return DispatchPhysical(divisor.type().physical, [&]<typename T>() {
    const T* d = divisor.Data<T>() + start;
    int64_t bad = 0;
    for (int64_t j = 0; j < len; ++j) bad |= (d[j] == 0) & (cmp[j] != 0);
    return bad != 0;
  });
}

void AccumulateMinMax(AggKind kind, const int64_t* values, int32_t n,
                      int64_t* acc) {
  if (kind == AggKind::kMin) {
    for (int32_t k = 0; k < n; ++k) {
      if (values[k] < *acc) *acc = values[k];
    }
  } else {
    for (int32_t k = 0; k < n; ++k) {
      if (values[k] > *acc) *acc = values[k];
    }
  }
}

}  // namespace

void AccumulateScalarSel(const AggProgram& program, AggLanes* lanes,
                         int64_t start, const int32_t* sel, int32_t n,
                         Scratch* scratch, int64_t* acc) {
  if (n == 0) return;
  lanes->ComputeSel(start, sel, n, /*lanes_kept=*/true, scratch);
  const QueryPlan& plan = program.plan;
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    const AggSpec& agg = plan.aggs[a];
    const AggShape& shape = program.shapes[a];
    // Fused fast paths (the paper's hand-written aggregation loops).
    switch (shape.kind) {
      case AggShape::Kind::kCol:
        acc[a] += DispatchPhysical(shape.a->type().physical,
                                   [&]<typename T>() {
                                     return kernels::SumSel<T>(
                                         shape.a->Data<T>() + start, sel, n);
                                   });
        continue;
      case AggShape::Kind::kProduct:
        acc[a] += SumProductSelDispatch(*shape.a, *shape.b, start, sel, n,
                                        /*quotient=*/false);
        continue;
      case AggShape::Kind::kQuotient:
        acc[a] += SumProductSelDispatch(*shape.a, *shape.b, start, sel, n,
                                        /*quotient=*/true);
        continue;
      case AggShape::Kind::kGeneral:
        break;
    }
    if (IsPlainCount(agg)) {
      acc[a] += n;
      continue;
    }
    const int64_t* values = lanes->values()[a];
    switch (agg.kind) {
      case AggKind::kSum:
      case AggKind::kCount:
        for (int32_t k = 0; k < n; ++k) acc[a] += values[k];
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        AccumulateMinMax(agg.kind, values, n, &acc[a]);
        break;
    }
  }
}

void AccumulateScalarMasked(const AggProgram& program, AggLanes* lanes,
                            int64_t start, const uint8_t* cmp, int64_t len,
                            Scratch* scratch, int64_t* acc) {
  lanes->ComputeAll(start, len, cmp, scratch);
  const QueryPlan& plan = program.plan;
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    if (!program.skip.empty() && program.skip[a]) continue;
    const AggSpec& agg = plan.aggs[a];
    const AggShape& shape = program.shapes[a];
    switch (shape.kind) {
      case AggShape::Kind::kCol:
        acc[a] += DispatchPhysical(shape.a->type().physical,
                                   [&]<typename T>() {
                                     return kernels::SumMasked<T>(
                                         shape.a->Data<T>() + start, cmp,
                                         len);
                                   });
        continue;
      case AggShape::Kind::kProduct:
        acc[a] += SumProductMaskedDispatch(*shape.a, *shape.b, start, cmp,
                                           len, /*quotient=*/false);
        continue;
      case AggShape::Kind::kQuotient:
        // The mask is final: a kept row keeps the oracle's division check.
        SWOLE_DCHECK(!KeptZeroDivisor(*shape.b, start, cmp, len))
            << "division by zero";
        acc[a] += SumProductMaskedDispatch(*shape.a, *shape.b, start, cmp,
                                           len, /*quotient=*/true);
        continue;
      case AggShape::Kind::kGeneral:
        break;
    }
    if (IsPlainCount(agg)) {
      acc[a] += kernels::CountBytes(cmp, len);
      continue;
    }
    // General masked path: every lane computed (wasted work by design).
    const int64_t* values = lanes->values()[a];
    switch (agg.kind) {
      case AggKind::kSum:
      case AggKind::kCount:
        for (int64_t j = 0; j < len; ++j) acc[a] += values[j] * cmp[j];
        break;
      case AggKind::kMin:
        // Masked lanes contribute the identity (branch-free select).
        for (int64_t j = 0; j < len; ++j) {
          int64_t m = -static_cast<int64_t>(cmp[j]);
          int64_t v = (values[j] & m) | (QueryResult::kMinIdentity & ~m);
          if (v < acc[a]) acc[a] = v;
        }
        break;
      case AggKind::kMax:
        for (int64_t j = 0; j < len; ++j) {
          int64_t m = -static_cast<int64_t>(cmp[j]);
          int64_t v = (values[j] & m) | (QueryResult::kMaxIdentity & ~m);
          if (v > acc[a]) acc[a] = v;
        }
        break;
    }
  }
}

GroupTable::GroupTable(const QueryPlan& plan, int64_t expected_keys,
                       exec::QueryContext* ctx, const char* site)
    : plan_(plan),
      num_aggs_(static_cast<int>(plan.aggs.size())),
      ctx_(ctx),
      site_(site),
      table_(/*payload_width=*/1 + static_cast<int>(plan.aggs.size()),
             std::max<int64_t>(expected_keys, 16)) {
  if (ctx_ != nullptr) {
    table_.SetMemHook(exec::QueryContext::MemHookThunk, ctx_, site_);
  }
  // Always provision the throwaway entry for masked updates (§III-B).
  table_.GetOrInsert(HashTable::kMaskKey);
}

// Budget refusals during a spill retry can be transient: sibling workers
// charge the same QueryContext and release their tables the next time they
// are themselves refused. A handful of retries rides out that contention;
// refusals past the bound mean the budget genuinely cannot hold the
// working set of one batch.
constexpr int kSpillRetries = 4;

int64_t SpillSoftCap(const exec::QueryContext* ctx, int num_threads) {
  if (ctx == nullptr) return 0;
  const int64_t limit = ctx->limit_bytes();
  if (limit <= 0) return 0;
  return std::max<int64_t>(1, limit / (2 * std::max(num_threads, 1)));
}

void GroupTable::SpillAndReset() {
  SWOLE_DCHECK(spill_ != nullptr);
  // A budget refusal that routed here left a pending-abort record. Clear it
  // before attempting the spill: we are handling that refusal, so any
  // exception from this point on (including an I/O failure during the spill
  // itself) must classify on its own, not as the recovered budget abort.
  if (ctx_ != nullptr) ctx_->ClearRecoveredBudgetAbort();
  exec::ThrowIfError(spill_->SpillTable(table_, HashTable::kMaskKey));
  // Clear shrinks the charge in one step: a restart that re-charged its
  // minimum footprint could be refused by siblings holding the budget,
  // and that refusal would escape the retry loop this runs in.
  table_.Clear();
  if (ctx_ != nullptr) ctx_->CountSpill();
  table_.GetOrInsert(HashTable::kMaskKey);
}

template <typename Fn>
void GroupTable::RunSpillable(Fn&& fn) {
  if (spill_ == nullptr) {
    fn();
    return;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      fn();
      break;
    } catch (const QueryAbort& abort) {
      // Only a budget refusal is recoverable by spilling. Deadline and
      // cancellation aborts propagate. Retries are bounded: a refusal can
      // come from sibling workers transiently holding the budget (they
      // release on their own next refused charge), so a single retry gives
      // up too early — but kSpillRetries consecutive refusals of a batch
      // probing an emptied table means the budget itself cannot hold one
      // batch, and spilling again would loop forever without progress.
      if (abort.reason != AbortReason::kBudget ||
          attempt >= kSpillRetries) {
        throw;
      }
      SpillAndReset();
      // Back off before re-applying: the refusal usually means a sibling
      // worker's table is mid-batch at its transient peak, and its
      // proactive spill releases the budget within its batch window —
      // immediate retries would all land inside that window and give up.
      if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  // Proactive spill at the per-worker soft quota: siblings sharing the
  // budget stay refusal-free, so no worker ever depends on another
  // releasing memory to make progress. Outside the retry loop — a throw
  // from here must propagate, never re-run the (already applied) batch.
  if (spill_soft_cap_ > 0 && table_.ByteSize() > spill_soft_cap_) {
    SpillAndReset();
  }
}

namespace {

// Aggregate inputs of a group update for a compile-time count kN, held in
// locals so the per-lane payload adds unroll; kN == -1 is the runtime
// count of the generic loop.
template <int kN>
class LaneInputs {
 public:
  LaneInputs(const int64_t* const* values, int /*count*/) {
    for (int a = 0; a < kN; ++a) v_[a] = values[a];
  }
  static constexpr int size() { return kN; }
  int64_t at(int a, int64_t lane) const { return v_[a][lane]; }

 private:
  const int64_t* v_[kN > 0 ? kN : 1];
};

template <>
class LaneInputs<-1> {
 public:
  LaneInputs(const int64_t* const* values, int count)
      : v_(values), count_(count) {}
  int size() const { return count_; }
  int64_t at(int a, int64_t lane) const { return v_[a][lane]; }

 private:
  const int64_t* const* v_;
  int count_;
};

// Calls fn with the LaneInputs for `count` aggregates: a compile-time
// count up to 8, the generic loop above.
template <typename Fn>
void WithLaneInputs(int count, const int64_t* const* values, Fn&& fn) {
  switch (count) {
    case 0:
      return fn(LaneInputs<0>(values, count));
    case 1:
      return fn(LaneInputs<1>(values, count));
    case 2:
      return fn(LaneInputs<2>(values, count));
    case 3:
      return fn(LaneInputs<3>(values, count));
    case 4:
      return fn(LaneInputs<4>(values, count));
    case 5:
      return fn(LaneInputs<5>(values, count));
    case 6:
      return fn(LaneInputs<6>(values, count));
    case 7:
      return fn(LaneInputs<7>(values, count));
    case 8:
      return fn(LaneInputs<8>(values, count));
    default:
      return fn(LaneInputs<-1>(values, count));
  }
}

// payload = [touched, agg0, agg1, ...]: touched += m, agg a += input * m.
template <typename Inputs>
SWOLE_ALWAYS_INLINE void AddMasked(int64_t* payload, const Inputs& in,
                                   int64_t lane, int64_t m) {
  payload[0] += m;
  for (int a = 0; a < in.size(); ++a) payload[1 + a] += in.at(a, lane) * m;
}

// The unmasked form: touched += 1, agg a += input.
template <typename Inputs>
SWOLE_ALWAYS_INLINE void Add(int64_t* payload, const Inputs& in,
                             int64_t lane) {
  payload[0] += 1;
  for (int a = 0; a < in.size(); ++a) payload[1 + a] += in.at(a, lane);
}

}  // namespace

void GroupTable::UpdateSel(const int64_t* keys, const int64_t* const* values,
                           int32_t n, bool prefetch) {
  RunSpillable([&] {
    int64_t** p = ProbeScratch(n);
    table_.GetOrInsertBatch(keys, n, p, prefetch);
    WithLaneInputs(num_aggs_, values, [&](const auto& in) {
      for (int32_t k = 0; k < n; ++k) Add(p[k], in, k);
    });
  });
}

void GroupTable::UpdateMaskedValues(const int64_t* keys,
                                    const int64_t* const* values,
                                    const uint8_t* cmp, int64_t len) {
  RunSpillable([&] {
    const int32_t n = static_cast<int32_t>(len);
    int64_t** p = ProbeScratch(n);
    table_.GetOrInsertBatch(keys, n, p, /*prefetch=*/true);
    WithLaneInputs(num_aggs_, values, [&](const auto& in) {
      for (int32_t j = 0; j < n; ++j) AddMasked(p[j], in, j, cmp[j]);
    });
  });
}

void GroupTable::UpdateMaskedKeys(const int64_t* masked_keys,
                                  const int64_t* const* values, int64_t len) {
  RunSpillable([&] {
    const int32_t n = static_cast<int32_t>(len);
    int64_t** p = ProbeScratch(n);
    table_.GetOrInsertBatch(masked_keys, n, p, /*prefetch=*/true);
    WithLaneInputs(num_aggs_, values, [&](const auto& in) {
      for (int32_t j = 0; j < n; ++j) Add(p[j], in, j);
    });
  });
}

void GroupTable::MergeFrom(const GroupTable& other) {
  if (spill_ == nullptr) {
    table_.MergeAdd(other.table_);
    return;
  }
  // Per-entry merge: GetOrInsert charges before inserting and the payload
  // adds cannot throw, so each source entry is applied exactly once even
  // when a refusal spills the destination mid-merge. The loop continues
  // from the same entry, never restarts the merge.
  const int width = 1 + num_aggs_;
  other.table_.ForEach([&](int64_t key, const int64_t* payload) {
    for (int attempt = 0;; ++attempt) {
      try {
        int64_t* dst = table_.GetOrInsert(key);
        for (int w = 0; w < width; ++w) dst[w] += payload[w];
        return;
      } catch (const QueryAbort& abort) {
        if (abort.reason != AbortReason::kBudget ||
            attempt >= kSpillRetries) {
          throw;
        }
        SpillAndReset();
        if (attempt > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
  });
}

exec::MorselStats GroupTable::MergeJoinSlots(
    const std::vector<const GroupTable*>& workers, int num_threads,
    int64_t tile_size) {
  if (workers.empty()) return exec::MorselStats{};
  // Each range is a destination stretch every worker table adds into in
  // turn; ranges are disjoint, so participants never share a slot.
  return exec::ParallelMorsels(
      ctx_, num_threads, table_.capacity(),
      exec::DefaultMorselSize(tile_size),
      [&](int /*worker*/, int64_t begin, int64_t end) {
        for (const GroupTable* other : workers) {
          table_.AddPayloadSlots(other->table_, begin, end);
        }
      });
}

void GroupTable::UpdateJoinMasked(const int64_t* keys,
                                  const int64_t* const* values,
                                  const uint8_t* extra_mask, int64_t len) {
  int64_t* throwaway = table_.Find(HashTable::kMaskKey);
  SWOLE_DCHECK(throwaway != nullptr);
  const int32_t n = static_cast<int32_t>(len);
  int64_t** ptrs = ProbeScratch(n);
  table_.FindBatch(keys, n, ptrs, /*prefetch=*/true);
  WithLaneInputs(num_aggs_, values, [&](const auto& in) {
    for (int32_t j = 0; j < n; ++j) {
      int64_t found = ptrs[j] != nullptr ? 1 : 0;
      int64_t* p = found ? ptrs[j] : throwaway;  // branch-free-ish select
      int64_t m = found & (extra_mask != nullptr ? extra_mask[j] : 1);
      AddMasked(p, in, j, m);
    }
  });
}

void GroupTable::UpdateJoinSel(const int64_t* keys,
                               const int64_t* const* values, int32_t n,
                               bool prefetch) {
  int64_t** ptrs = ProbeScratch(n);
  table_.FindBatch(keys, n, ptrs, prefetch);
  WithLaneInputs(num_aggs_, values, [&](const auto& in) {
    for (int32_t k = 0; k < n; ++k) {
      if (ptrs[k] == nullptr) continue;  // traditional probe miss: skip
      Add(ptrs[k], in, k);
    }
  });
}

std::unique_ptr<GroupTable> GroupTable::CloneKeysOnly() const {
  auto clone = std::make_unique<GroupTable>(plan_, 16, ctx_, site_);
  clone->table_ = table_.CloneKeys(
      ctx_ != nullptr ? exec::QueryContext::MemHookThunk : nullptr, ctx_,
      site_);
  return clone;
}

namespace {

// Q13's histogram post-step: the number of groups per value of agg 0, in
// ascending value order. Built straight from the unsorted groups — the
// counts do not depend on group order, so the key sort is skipped.
class Agg0Histogram {
 public:
  void Add(const int64_t* aggs) { ++counts_[aggs[0]]; }

  QueryResult Finish() const {
    QueryResult result;
    result.grouped = true;
    result.num_aggs = 1;
    result.agg_names = {"group_count"};
    for (const auto& [value, count] : counts_) result.AddGroup(value, &count);
    return result;
  }

 private:
  std::map<int64_t, int64_t> counts_;
};

QueryResult EmptyGroupedResult(const QueryPlan& plan) {
  QueryResult result;
  result.grouped = true;
  result.num_aggs = static_cast<int>(plan.aggs.size());
  for (const AggSpec& agg : plan.aggs) result.agg_names.push_back(agg.name);
  return result;
}

}  // namespace

QueryResult GroupTable::Extract(const QueryPlan& plan,
                                bool keep_untouched) const {
  auto live = [&](int64_t key, const int64_t* payload) {
    return key != HashTable::kMaskKey && (keep_untouched || payload[0] != 0);
  };
  if (plan.histogram_of_agg0) {
    Agg0Histogram histogram;
    table_.ForEach([&](int64_t key, const int64_t* payload) {
      if (live(key, payload)) histogram.Add(payload + 1);
    });
    return histogram.Finish();
  }
  QueryResult result = EmptyGroupedResult(plan);
  result.group_keys.reserve(table_.size());
  result.group_aggs.reserve(table_.size() * num_aggs_);
  table_.ForEach([&](int64_t key, const int64_t* payload) {
    if (live(key, payload)) result.AddGroup(key, payload + 1);
  });
  result.SortGroups();
  return result;
}

Result<QueryResult> GroupTable::ExtractSpilled(const QueryPlan& plan,
                                               int num_threads) {
  SWOLE_DCHECK(spill_ != nullptr);
  obs::QueryTrace* trace = ctx_ != nullptr ? ctx_->trace() : nullptr;
  obs::SpanScope span(trace, "spill-merge");

  // Drain the in-memory remainder so every group lives wholly in the
  // partition its hash prefix names, then release the table's charge — the
  // merge phase wants the budget headroom for its rebuild tables.
  SWOLE_RETURN_NOT_OK(spill_->SpillTable(table_, HashTable::kMaskKey));
  table_.Clear();
  table_.GetOrInsert(HashTable::kMaskKey);
  SWOLE_RETURN_NOT_OK(spill_->Flush());

  const int width = 1 + num_aggs_;
  const int partitions = spill_->num_partitions();
  std::vector<std::vector<int64_t>> partition_rows(partitions);
  const exec::SpillMergeFn merge_fn = [width](int64_t* dst,
                                              const int64_t* src) {
    for (int w = 0; w < width; ++w) dst[w] += src[w];
  };
  // One morsel per partition on the shared pool. Partitions hold disjoint
  // key sets, so rebuild order doesn't matter; the ascending concatenation
  // below plus the same key sort Extract uses keeps the result
  // bit-identical at every thread count.
  exec::MorselStats stats = exec::ParallelMorsels(
      ctx_, num_threads, partitions, /*morsel_size=*/1,
      [&](int /*worker*/, int64_t begin, int64_t end) {
        for (int64_t p = begin; p < end; ++p) {
          exec::ThrowIfError(spill_->MergePartition(
              static_cast<int>(p), merge_fn, &partition_rows[p]));
        }
      });
  SWOLE_RETURN_NOT_OK(stats.status);

  QueryResult result = EmptyGroupedResult(plan);
  Agg0Histogram histogram;
  int64_t merged_groups = 0;
  const size_t stride = 1 + static_cast<size_t>(width);
  if (!plan.histogram_of_agg0) {
    size_t total = 0;
    for (const std::vector<int64_t>& rows : partition_rows) {
      total += rows.size() / stride;
    }
    result.group_keys.reserve(total);
    result.group_aggs.reserve(total * num_aggs_);
  }
  for (int p = 0; p < partitions; ++p) {
    const std::vector<int64_t>& rows = partition_rows[p];
    for (size_t i = 0; i < rows.size(); i += stride) {
      const int64_t* row = rows.data() + i;  // [key, touched, agg0, ...]
      // Untouched entries are batch-probe artifacts with zero
      // contributions — dropped exactly as the in-memory Extract does.
      if (row[1] == 0) continue;
      if (plan.histogram_of_agg0) {
        histogram.Add(row + 2);
      } else {
        result.AddGroup(row[0], row + 2);
      }
    }
    merged_groups += static_cast<int64_t>(rows.size() / stride);
  }
  span.Attr("spill.bytes_written", spill_->bytes_written());
  span.Attr("spill.partitions", static_cast<int64_t>(partitions));
  span.Attr("spill.max_depth", spill_->max_depth_reached());
  span.Attr("spill.events", spill_->spill_events());
  span.Attr("spill.merged_groups", merged_groups);
  if (plan.histogram_of_agg0) return histogram.Finish();
  result.SortGroups();
  return result;
}

void InitScalarAcc(const QueryPlan& plan, int64_t* acc) {
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    switch (plan.aggs[a].kind) {
      case AggKind::kMin:
        acc[a] = QueryResult::kMinIdentity;
        break;
      case AggKind::kMax:
        acc[a] = QueryResult::kMaxIdentity;
        break;
      default:
        acc[a] = 0;
        break;
    }
  }
}

void MergeScalarAcc(const QueryPlan& plan, int64_t* into,
                    const int64_t* from) {
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    switch (plan.aggs[a].kind) {
      case AggKind::kSum:
      case AggKind::kCount:
        into[a] += from[a];
        break;
      case AggKind::kMin:
        if (from[a] < into[a]) into[a] = from[a];
        break;
      case AggKind::kMax:
        if (from[a] > into[a]) into[a] = from[a];
        break;
    }
  }
}

QueryResult MakeScalarResult(const QueryPlan& plan, const int64_t* acc) {
  QueryResult result;
  result.grouped = false;
  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    result.agg_names.push_back(plan.aggs[a].name);
    result.scalar.push_back(acc[a]);
  }
  return result;
}

double AvgFactReadWidthBytes(const Table& fact, const QueryPlan& plan) {
  std::set<std::string> refs;
  for (const AggSpec& agg : plan.aggs) {
    if (agg.expr == nullptr) continue;
    for (const std::string& ref : CollectColumnRefs(*agg.expr)) {
      refs.insert(ref);
    }
  }
  if (plan.group_by != nullptr) {
    for (const std::string& ref : CollectColumnRefs(*plan.group_by)) {
      refs.insert(ref);
    }
  }
  if (refs.empty()) return 8.0;
  int64_t bytes = 0;
  for (const std::string& ref : refs) {
    bytes += PhysicalTypeSize(fact.ColumnRef(ref).type().physical);
  }
  return static_cast<double>(bytes) / static_cast<double>(refs.size());
}

int FindGroupjoinDim(const QueryPlan& plan) {
  if (plan.group_by == nullptr ||
      plan.group_by->kind != ExprKind::kColumnRef) {
    return -1;
  }
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (plan.dims[d].hop.fk_column == plan.group_by->column) {
      return static_cast<int>(d);
    }
  }
  return -1;
}

bool GroupSeedCoversDim(const QueryPlan& plan, const DimJoin& dim) {
  return plan.group_seed.has_value() &&
         plan.group_seed->table == dim.hop.to_table &&
         plan.group_seed->key_column == dim.hop.to_pk_column;
}

int64_t GroupjoinTableKeys(const Catalog& catalog, const QueryPlan& plan,
                           const KeyRuns* runs) {
  int64_t keys = runs != nullptr ? runs->total() : 0;
  if (plan.group_seed.has_value()) {
    keys += catalog.TableRef(plan.group_seed->table).num_rows();
  }
  return std::max(keys, ExpectedGroups(catalog, plan));
}

void SeedGroups(const Catalog& catalog, const QueryPlan& plan,
                GroupTable* groups, int64_t tile_size, int num_threads,
                exec::QueryContext* ctx) {
  if (!plan.group_seed.has_value()) return;
  const Table& table = catalog.TableRef(plan.group_seed->table);
  const Column& key_col = table.ColumnRef(plan.group_seed->key_column);
  HashTable& ht = groups->table();
  ht.ReserveFor(table.num_rows());
  std::vector<std::vector<int64_t>> keys(num_threads,
                                         std::vector<int64_t>(tile_size));
  SharedInsertPhase(
      &ht, ctx, num_threads, table.num_rows(), tile_size,
      [&](int worker, int64_t range_begin, int64_t range_end) {
        int64_t* buffer = keys[worker].data();
        int64_t claimed = 0;
        for (int64_t start = range_begin; start < range_end;
             start += tile_size) {
          int64_t len = std::min(tile_size, range_end - start);
          WidenColumn(key_col, start, len, buffer);
          claimed += ht.InsertSharedBatch(buffer, nullptr, len,
                                          /*prefetch=*/false);
        }
        return claimed;
      });
}

int64_t ExpectedGroups(const Catalog& catalog, const QueryPlan& plan) {
  if (plan.group_cardinality_hint > 0) return plan.group_cardinality_hint;
  if (plan.group_by != nullptr) {
    return EstimateDistinctCount(catalog.TableRef(plan.fact_table),
                                 *plan.group_by);
  }
  return 1024;
}

}  // namespace swole::pipeline

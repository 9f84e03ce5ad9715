#ifndef SWOLE_STRATEGIES_COMMON_H_
#define SWOLE_STRATEGIES_COMMON_H_

#include <memory>
#include <vector>

#include "exec/hash_table.h"
#include "exec/kernels.h"
#include "exec/query_context.h"
#include "exec/scheduler.h"
#include "expr/tile_program.h"
#include "expr/vector_eval.h"
#include "plan/plan.h"
#include "plan/result.h"
#include "storage/bitmap.h"
#include "storage/table.h"
#include "strategies/strategy.h"

// Shared pipeline machinery for the four strategy engines. Everything here
// is strategy-parameterized only where the paper's strategies genuinely
// differ (branching vs prepass filters, hash vs positional probes,
// prefetching); the rest is the common "library code".

namespace swole::exec {
class SpillManager;
}  // namespace swole::exec

namespace swole::pipeline {

/// Per-engine scratch buffers, sized for one tile.
struct Scratch {
  explicit Scratch(int64_t tile_size);

  int64_t tile;
  std::vector<uint8_t> cmp;    // predicate bytes (0/1)
  std::vector<uint8_t> cmp2;   // secondary mask
  std::vector<int32_t> sel;    // selection vector (tile-local indices)
  std::vector<int32_t> sel2;   // refined selection vector
  std::vector<int64_t> keys;   // group/join keys per lane
  std::vector<int64_t> vals;   // aggregate values per lane
  std::vector<int64_t> vals2;  // second operand / path factors
  std::vector<int64_t> offs;   // fk offset chain work buffer
  std::vector<int64_t*> ptrs;  // batched hash-probe payload pointers
};

// ---- Filter evaluation (the strategies' defining difference) ----

/// Evaluates `filter` over tile [start, start+len) into `out_sel` as a
/// selection vector; returns the count.
///  * kDataCentric: branching, conjunct by conjunct (fused typed loops) —
///    the if-statement control dependency of Fig. 1 top.
///  * kHybrid: branch-free prepass into cmp, then no-branch construction.
///  * kRof: prepass + lookup-table construction (Data Blocks style).
/// A null filter selects every lane.
int32_t FilterToSelVec(StrategyKind kind, VectorEvaluator* eval,
                       const Table& table, const Expr* filter, int64_t start,
                       int64_t len, Scratch* scratch, int32_t* out_sel);

/// Evaluates `filter` into a byte mask (predicate pullup form). A null
/// filter yields all ones.
void FilterToMask(VectorEvaluator* eval, const Expr* filter, int64_t start,
                  int64_t len, uint8_t* cmp);

/// Compacts `sel` in place, keeping lanes whose flag is set. `flags[k]`
/// corresponds to sel[k]. No-branch for hybrid/ROF, branching for DC.
int32_t CompactSel(StrategyKind kind, int32_t* sel, const uint8_t* flags,
                   int32_t n);

/// Average physical width (bytes) of the fact columns the plan's
/// aggregation reads (aggregate inputs + group key); 8.0 when nothing is
/// referenced. The kernels execute at this width, so scan-phase trace
/// spans stamp it and the SWOLE cost model scales sequential bandwidth by
/// it.
double AvgFactReadWidthBytes(const Table& fact, const QueryPlan& plan);

// ---- Build-side structures ----
//
// Every build-side hash structure is built in two phases (DESIGN.md §7).
// Phase 1 is the morsel-parallel dim scan: each worker appends the keys
// that qualify in its morsels to its own run (KeyRuns). Phase 2 sizes one
// table from the exact run total and fills it with a morsel-parallel
// shared insert (HashTable::InsertShared). The built set, and each key's
// payload, do not depend on insert order; only slot placement does.
//
// All build-side constructors below take an optional QueryContext: when
// set, the structures they build — runs included — charge the memory
// tracker (per-operator sites "dim_keyset" / "dim_bitmap" /
// "reverse_keyset" / "reverse_bitmap" / "disjunctive_ht" /
// "disjunctive_bitmap") and their parallel scans are governed. A refused
// charge or fired checkpoint propagates by exception (QueryAbort /
// ThrownStatus), caught at the engine's Execute boundary.

/// Phase-1 output of a two-phase build: one append-only run per worker of
/// the keys that qualified in its morsels, in scan order, plus one int64
/// payload word per key for payload builds (whose keys must be unique).
/// Append drops a key equal to the previous key of its run, which removes
/// most duplicates of a clustered fk at no cost. Runs charge the tracker
/// at `site` before they grow and release the charge on destruction.
class KeyRuns {
 public:
  KeyRuns(int num_workers, bool with_payload, exec::QueryContext* ctx,
          const char* site);
  KeyRuns(KeyRuns&& other) noexcept = default;
  KeyRuns& operator=(KeyRuns&&) = delete;
  ~KeyRuns();

  /// Appends keys[0..n) (and payload[0..n) for payload runs) to `worker`'s
  /// run. Only `worker` may append to its run.
  void Append(int worker, const int64_t* keys, const int64_t* payload,
              int32_t n);

  /// Entries over all runs: an upper bound on the distinct keys.
  int64_t total() const;

  /// Phase 2: reserves room in `table` for min(total(), max_keys) more
  /// keys, inserts every run entry with one morsel-parallel shared insert,
  /// then adds the claimed count once. A payload run's entry stores its
  /// payload word into the key's first payload slot.
  void InsertInto(HashTable* table, int64_t max_keys, bool prefetch,
                  int num_threads, int64_t tile_size) const;

  /// A table charged at the runs' site, sized for min(total(), max_keys)
  /// keys and filled by InsertInto.
  std::unique_ptr<HashTable> BuildTable(int payload_width, int64_t max_keys,
                                        bool prefetch, int num_threads,
                                        int64_t tile_size) const;

 private:
  struct Run {
    std::vector<int64_t> keys;
    std::vector<int64_t> payload;
    int64_t charged = 0;  // bytes charged for this run's capacity
  };

  void Reserve(Run* run, size_t needed);

  std::vector<Run> runs_;
  bool with_payload_;
  exec::QueryContext* ctx_;
  const char* site_;
};

/// Phase 1 of BuildDimKeySet: the pk values of `dim`'s qualifying rows —
/// the dim scan uses the strategy's filter style and probes child key
/// sets (built first, bottom-up through the snowflake, and freed on
/// return), which ROF prefetches. Runs charge "dim_keyset".
KeyRuns CollectDimKeyRuns(StrategyKind kind, const Catalog& catalog,
                          const DimJoin& dim, int64_t tile_size,
                          int num_threads = 1,
                          exec::QueryContext* ctx = nullptr);

/// Positional phase 1 (SWOLE's groupjoin build): the pk values of `dim`'s
/// rows that pass its filter and whose child dims qualify through
/// positional bitmaps. Runs charge `site`.
KeyRuns CollectDimKeyRunsPositional(const Catalog& catalog,
                                    const DimJoin& dim, int64_t tile_size,
                                    int num_threads, exec::QueryContext* ctx,
                                    const char* site);

/// Hash-based qualifying key set for a dimension subtree (width-0 table of
/// dim pk values). Used by data-centric, hybrid, and ROF: CollectDimKeyRuns
/// then a table sized for the runs (ROF prefetches the shared insert).
std::unique_ptr<HashTable> BuildDimKeySet(StrategyKind kind,
                                          const Catalog& catalog,
                                          const DimJoin& dim,
                                          int64_t tile_size,
                                          int num_threads = 1,
                                          exec::QueryContext* ctx = nullptr);

/// Positional qualification bitmap for a dimension subtree (SWOLE §III-D):
/// bit i == 1 iff dim row i passes the filter and all child dims qualify.
/// Sequential scan per worker; with num_threads > 1 workers fill disjoint
/// 64-bit-aligned row ranges of the same bitmap (no merge needed).
PositionalBitmap BuildDimBitmap(const Catalog& catalog, const DimJoin& dim,
                                int64_t tile_size, int num_threads = 1,
                                exec::QueryContext* ctx = nullptr);

/// Hash set of fk *values* for a reverse dim (Q4's EXISTS): the keys are
/// rdim.fk_column values of qualifying rdim rows; the fact probes with its
/// pk value. The table is sized for min(run total, rows the fk
/// references).
std::unique_ptr<HashTable> BuildReverseKeySet(
    StrategyKind kind, const Catalog& catalog, const ReverseDim& rdim,
    int64_t tile_size, int num_threads = 1, exec::QueryContext* ctx = nullptr);

/// Positional bitmap over *fact* offsets for a reverse dim: scanning the
/// rdim table morsel-parallel, OR the predicate result into the bit at the
/// fk offset (multiple rdim rows may map to one fact row). Fk offsets land
/// at arbitrary fact positions, so workers share words: each issues one
/// atomic fetch_or per stretch of rows whose offsets fall in one word.
PositionalBitmap BuildReverseBitmap(const Catalog& catalog,
                                    const ReverseDim& rdim,
                                    int64_t fact_rows, int64_t tile_size,
                                    int num_threads = 1,
                                    exec::QueryContext* ctx = nullptr);

/// Hash table for a disjunctive join (Q19): keys are dim pk values of rows
/// matching at least one clause; payload[0] is the bitmask of matching
/// clauses, carried through the runs beside each key.
std::unique_ptr<HashTable> BuildDisjunctiveHt(
    StrategyKind kind, const Catalog& catalog, const DisjunctiveJoin& dj,
    int64_t tile_size, int num_threads = 1, exec::QueryContext* ctx = nullptr);

/// One qualification bitmap per clause over the dim table (SWOLE, Q19:
/// "builds a total of three bitmaps in a purely sequential scan").
std::vector<PositionalBitmap> BuildDisjunctiveBitmaps(
    const Catalog& catalog, const DisjunctiveJoin& dj, int64_t tile_size,
    int num_threads = 1, exec::QueryContext* ctx = nullptr);

/// Index of the dimension whose join key doubles as the group-by key (the
/// groupjoin fusion of §III-E / TPC-H Q3, Q13), or -1.
int FindGroupjoinDim(const QueryPlan& plan);

/// True when the plan's group seed inserts every pk of `dim` (Q13 seeds
/// customer.c_custkey and groupjoins customer), so the dim's qualifying
/// keys are already in a seeded group table.
bool GroupSeedCoversDim(const QueryPlan& plan, const DimJoin& dim);

/// Keys to size a groupjoin table for: the group-seed rows plus the fused
/// dim's run entries (`runs` is null when the seed covers the dim), but no
/// fewer than ExpectedGroups — a join-mode probe that misses walks a longer
/// slot run in a fuller table, so a larger expected count keeps its load.
int64_t GroupjoinTableKeys(const Catalog& catalog, const QueryPlan& plan,
                           const KeyRuns* runs);

// ---- Column paths (late materialization, §III-D) ----

/// A path pre-resolved to fk index pointers + the target column. When the
/// path carries a LIKE pattern, `like_mask` maps dictionary codes to 0/1
/// flags (built once per execution — "computed on the fly").
struct ResolvedPath {
  std::vector<const FkIndex*> indexes;
  const Column* column = nullptr;
  std::vector<uint8_t> like_mask;
};

ResolvedPath ResolvePath(const Catalog& catalog, const Table& fact,
                         const ColumnPath& path);

/// Gathers path values for selected lanes: out[k] = value at fact row
/// start + sel[k] through the fk chain.
void GatherPathSel(const ResolvedPath& path, int64_t start,
                   const int32_t* sel, int32_t n, Scratch* scratch,
                   int64_t* out);

/// Gathers path values for every lane of the tile (pullup form).
void GatherPathAll(const ResolvedPath& path, int64_t start, int64_t len,
                   Scratch* scratch, int64_t* out);

// ---- Aggregate evaluation ----

/// The aggregate shapes the fused scalar-sum kernels take: SUM of a column,
/// of a product or of a quotient of two columns, without a path factor.
/// Everything else is kGeneral and runs through the plan's AggProgram.
struct AggShape {
  enum class Kind : uint8_t { kCol, kProduct, kQuotient, kGeneral };
  Kind kind = Kind::kGeneral;
  const Column* a = nullptr;
  const Column* b = nullptr;
};

AggShape DetectAggShape(const Table& fact, const AggSpec& agg);

/// The plan's per-lane numeric work, compiled once per execution: the group
/// key and every aggregate input in one TileProgram (structurally equal
/// subtrees share a register), plus the resolved paths of a path group key
/// and of path factors. Output 0 is the key expression (absent when the
/// plan groups by a path or not at all); output 1 + a is aggregate a's
/// input, the literal 1 for COUNT. A scalar plan leaves out the aggregates
/// the fused kernels take, and those in `skip` (SWOLE's access-merged
/// aggregates, summed at the call site).
struct AggProgram {
  AggProgram(const Catalog& catalog, const Table& fact, const QueryPlan& plan,
             const std::vector<uint8_t>& skip = {});

  const QueryPlan& plan;
  std::vector<AggShape> shapes;
  std::vector<uint8_t> skip;
  ResolvedPath group_path;
  std::vector<ResolvedPath> factor_paths;
  TileProgram program;
};

/// A worker's lanes of an AggProgram: the program's registers, the buffers
/// for path keys and path-factor products, and the per-aggregate value
/// pointers the group updates read, fixed for the worker's lifetime.
class AggLanes {
 public:
  AggLanes(const AggProgram& program, int64_t tile_size);
  AggLanes(const AggLanes&) = delete;  // values() points into regs_

  /// Key and aggregate inputs for lanes start + sel[k], k < n. `lanes_kept`
  /// says the plan keeps every selected row (no later probe drops one),
  /// which keeps the oracle's division check on them.
  void ComputeSel(int64_t start, const int32_t* sel, int32_t n,
                  bool lanes_kept, Scratch* scratch);

  /// Key and aggregate inputs for every lane of [start, start+len) (pullup
  /// form — wasted work on masked lanes by design). `keep`, when set, is a
  /// final mask: its rows keep the division check.
  void ComputeAll(int64_t start, int64_t len, const uint8_t* keep,
                  Scratch* scratch);

  const int64_t* keys() const { return keys_; }
  const int64_t* const* values() const { return values_.data(); }

 private:
  const AggProgram& program_;
  TileProgram::Registers regs_;
  std::vector<int64_t> path_keys_;
  std::vector<std::vector<int64_t>> factor_values_;  // per aggregate
  const int64_t* keys_ = nullptr;
  std::vector<const int64_t*> values_;
};

/// Accumulates scalar aggregates over a selection vector, using fused
/// kernels where the shape allows. The lanes are final.
void AccumulateScalarSel(const AggProgram& program, AggLanes* lanes,
                         int64_t start, const int32_t* sel, int32_t n,
                         Scratch* scratch, int64_t* acc);

/// Accumulates scalar aggregates with value masking (§III-A): every lane is
/// computed, the final mask `cmp` multiplies the contribution. Skipped
/// aggregates are left untouched.
void AccumulateScalarMasked(const AggProgram& program, AggLanes* lanes,
                            int64_t start, const uint8_t* cmp, int64_t len,
                            Scratch* scratch, int64_t* acc);

// ---- Grouped aggregation ----

/// Wraps the group hash table. Payload layout: [touched, agg0, agg1, ...].
/// `touched` counts contributing fact rows so extraction can drop groups
/// that exist only structurally (groupjoin build keys, VM-masked inserts).
class GroupTable {
 public:
  /// When `ctx` is set, the backing hash table charges the memory tracker
  /// under `site` (default "group_table"); growth past the budget throws
  /// QueryAbort. `site` must have static storage duration.
  GroupTable(const QueryPlan& plan, int64_t expected_keys,
             exec::QueryContext* ctx = nullptr,
             const char* site = "group_table");

  // The five updates take `values[a]`, aggregate a's per-lane inputs, and
  // are specialized on the aggregate count: counts up to 8 unroll the
  // per-lane payload adds, larger counts run one generic loop. The adds and
  // their order are the same either way.

  /// Insert-mode update for compacted lanes (plain group-by).
  /// keys[k] / values[a][k] refer to the k-th selected lane.
  void UpdateSel(const int64_t* keys, const int64_t* const* values,
                 int32_t n, bool prefetch);

  /// Insert-mode masked update over all lanes: contribution multiplied by
  /// cmp[j] (value masking: keys are real, values masked).
  void UpdateMaskedValues(const int64_t* keys, const int64_t* const* values,
                          const uint8_t* cmp, int64_t len);

  /// Insert-mode update over all lanes with pre-masked keys (key masking:
  /// non-qualifying lanes carry HashTable::kMaskKey; values unmasked).
  void UpdateMaskedKeys(const int64_t* masked_keys,
                        const int64_t* const* values, int64_t len);

  /// Join-mode (groupjoin probe): lanes whose key is absent fall through to
  /// the throwaway entry with a zero mask. `extra_mask` may be null.
  void UpdateJoinMasked(const int64_t* keys, const int64_t* const* values,
                        const uint8_t* extra_mask, int64_t len);

  /// Join-mode over compacted lanes (hash strategies): lanes with no match
  /// are skipped by branching, matching the traditional probe loop.
  void UpdateJoinSel(const int64_t* keys, const int64_t* const* values,
                     int32_t n, bool prefetch);

  /// Deletes `key` (eager aggregation's non-qualifying key removal).
  void EraseKey(int64_t key) { table_.Erase(key); }

  /// The insert-mode merge of a worker-local partial state: payloads added
  /// element-wise ([touched, sums/counts] — all additive). Called in worker
  /// order (the ordered merge); Extract sorts by key, so results are
  /// bit-exact with single-thread runs regardless of steal order. Join-mode
  /// tables merge with MergeJoinSlots instead. Spill-aware: with a
  /// manager attached, a budget refusal mid-merge spills the destination
  /// and continues from the same source entry (additive payloads make the
  /// fragment split exact; a blind retry of the whole merge would
  /// double-count entries applied before the refusal).
  void MergeFrom(const GroupTable& other);

  /// The join-mode merge: adds the payloads of `workers` into this table
  /// slot by slot, over morsel-parallel ranges of DefaultMorselSize(tile)
  /// slots on the query's governed scheduler. Each worker table must be a
  /// CloneKeysOnly copy of this one on which, as on this one, only
  /// join-mode updates ran, so slot i holds the same key in every table.
  /// Payloads are integer sums, so the result equals the serial MergeFrom
  /// in worker order bit for bit. Never inserts: no growth, no spill.
  exec::MorselStats MergeJoinSlots(
      const std::vector<const GroupTable*>& workers, int num_threads,
      int64_t tile_size);

  /// A worker-local copy with the same key set and zeroed payloads.
  /// Join-mode probes (UpdateJoinMasked/UpdateJoinSel) only Find keys, so
  /// every worker's table must be pre-populated with the seeded build keys.
  std::unique_ptr<GroupTable> CloneKeysOnly() const;

  HashTable& table() { return table_; }
  const HashTable& table() const { return table_; }

  /// Extracts the final result, sorted by key. Drops the throwaway entry;
  /// drops untouched groups unless `keep_untouched` (Q13's left-outer zero
  /// counts). A `histogram_of_agg0` plan gets the histogram of agg 0 over
  /// the kept groups, built from them unsorted.
  QueryResult Extract(const QueryPlan& plan, bool keep_untouched) const;

  // ---- Spill-to-disk (DESIGN.md §14) ----

  /// Attaches the query's spill manager: insert-mode updates
  /// (UpdateSel/UpdateMaskedValues/UpdateMaskedKeys) that hit a budget
  /// refusal at this table's site spill the accumulated groups to disk and
  /// retry the batch instead of aborting. Only valid for unseeded
  /// insert-mode tables — join-mode probes (Find-only) and group-seeded
  /// tables need their key set resident, so engines never enable spill for
  /// them. Worker-local tables of one query share one manager.
  /// `soft_cap_bytes` (0 = none) proactively spills this table once its own
  /// footprint crosses the cap, keeping concurrent workers' combined charge
  /// well under the budget. Without it a refused worker can starve: its
  /// retries only succeed after siblings release, and siblings holding
  /// stable tables never charge — so never spill — again.
  void EnableSpill(exec::SpillManager* spill, int64_t soft_cap_bytes = 0) {
    spill_ = spill;
    spill_soft_cap_ = soft_cap_bytes;
  }
  exec::SpillManager* spill() const { return spill_; }

  /// Extracts the final result for a query that spilled: drains this
  /// table's in-memory remainder, then merges every partition — as morsels
  /// on the shared pool — and concatenates in ascending partition order
  /// before the same key sort Extract uses, so the result is bit-identical
  /// to the in-memory path at every thread count. Untouched groups are
  /// always dropped (spill is never enabled for group-seeded plans).
  Result<QueryResult> ExtractSpilled(const QueryPlan& plan, int num_threads);

 private:
  /// Spills every accumulated group to spill_ and restarts the table empty
  /// at its minimum footprint (HashTable::Clear: the charge only shrinks,
  /// so the restart cannot be refused). Throws exec::ThrownStatus on spill
  /// I/O failure.
  void SpillAndReset();

  /// Runs one batch update, spilling and retrying once on a budget refusal
  /// when a manager is attached. Safe because every insert-mode update
  /// batch-probes all pointers before the first payload add: a refusal can
  /// only fire during the probe, so no contribution is applied twice.
  template <typename Fn>
  void RunSpillable(Fn&& fn);

  /// Resizes the batched-probe pointer scratch to at least n entries.
  int64_t** ProbeScratch(int64_t n) {
    if (static_cast<int64_t>(probe_.size()) < n) probe_.resize(n);
    return probe_.data();
  }

  const QueryPlan& plan_;
  int num_aggs_;
  exec::QueryContext* ctx_;  // governance context (may be null); CloneKeysOnly
  const char* site_;         // propagates both to worker-local copies
  HashTable table_;
  std::vector<int64_t*> probe_;  // batched-probe payload pointers
  exec::SpillManager* spill_ = nullptr;  // non-owning; null = no spill
  int64_t spill_soft_cap_ = 0;           // per-table quota; 0 = uncapped
};

/// Inserts every key of the plan's group seed (Q13's groups without fact
/// rows) into `groups` with zeroed aggregates: room for them is reserved,
/// then one morsel-parallel shared insert fills it.
void SeedGroups(const Catalog& catalog, const QueryPlan& plan,
                GroupTable* groups, int64_t tile_size, int num_threads,
                exec::QueryContext* ctx);

/// Initializes a scalar accumulator to each aggregate's identity (0 for
/// sum/count, +inf/-inf sentinels for min/max).
void InitScalarAcc(const QueryPlan& plan, int64_t* acc);

/// Ordered merge of a worker's scalar partial into `into`: sum/count add,
/// min/max compare. Workers start at identities, so merging in worker
/// order reproduces the single-thread accumulator bit-exactly.
void MergeScalarAcc(const QueryPlan& plan, int64_t* into,
                    const int64_t* from);

/// Builds the final result for a scalar aggregation.
QueryResult MakeScalarResult(const QueryPlan& plan, const int64_t* acc);

/// Expected group count: plan hint, or a sampled estimate.
int64_t ExpectedGroups(const Catalog& catalog, const QueryPlan& plan);

/// Per-worker group-table quota under spill (GroupTable::EnableSpill): half
/// the context's byte budget split across workers, so the workers' combined
/// steady-state footprint stays near 50% of the limit and growth transients
/// cannot exhaust it. 0 (uncapped) when the context has no byte limit.
int64_t SpillSoftCap(const exec::QueryContext* ctx, int num_threads);

}  // namespace swole::pipeline

#endif  // SWOLE_STRATEGIES_COMMON_H_

#include "engine/reference_engine.h"

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "cost/string_placement.h"
#include "exec/query_context.h"
#include "exec/scheduler.h"
#include "exec/spill.h"
#include "expr/scalar_eval.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "strategies/strategy.h"

namespace swole {

namespace {

// Per-table scalar evaluators, created lazily (LIKE masks cached inside).
class EvaluatorPool {
 public:
  explicit EvaluatorPool(const Catalog& catalog) : catalog_(catalog) {}

  ScalarEvaluator& For(const std::string& table_name) {
    auto it = evaluators_.find(table_name);
    if (it == evaluators_.end()) {
      it = evaluators_
               .emplace(table_name,
                        std::make_unique<ScalarEvaluator>(
                            catalog_.TableRef(table_name)))
               .first;
    }
    return *it->second;
  }

 private:
  const Catalog& catalog_;
  std::map<std::string, std::unique_ptr<ScalarEvaluator>> evaluators_;
};

// Recursively decides whether dimension row `row` of `dim` qualifies.
bool DimRowQualifies(const DimJoin& dim, const Catalog& catalog,
                     EvaluatorPool* pool, int64_t row) {
  const Table& table = catalog.TableRef(dim.hop.to_table);
  if (dim.filter != nullptr &&
      pool->For(dim.hop.to_table).Eval(*dim.filter, row) == 0) {
    return false;
  }
  for (const DimJoin& child : dim.children) {
    const FkIndex* index =
        table.GetFkIndex(child.hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    if (!DimRowQualifies(child, catalog, pool,
                         index->OffsetAt(row))) {
      return false;
    }
  }
  return true;
}

// Follows a path's hops from fact row `row` to the final row offset and
// table, returning the column value at the end (or the 0/1 LIKE flag when
// the path carries a pattern).
int64_t ResolvePath(const ColumnPath& path, const Catalog& catalog,
                    const std::string& fact_table, int64_t row) {
  const Table* current = &catalog.TableRef(fact_table);
  int64_t offset = row;
  for (const Hop& hop : path.hops) {
    const FkIndex* index =
        current->GetFkIndex(hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    offset = index->OffsetAt(offset);
    current = &catalog.TableRef(hop.to_table);
  }
  const Column& column = current->ColumnRef(path.column);
  int64_t value = column.ValueAt(offset);
  if (!path.like_pattern.empty()) {
    const Dictionary* dict = column.dictionary();
    SWOLE_CHECK(dict != nullptr);
    return LikeMatch(dict->At(static_cast<int32_t>(value)),
                     path.like_pattern)
               ? 1
               : 0;
  }
  return value;
}

void UpdateAgg(AggKind kind, int64_t* slot, int64_t value) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount:
      *slot += value;
      return;
    case AggKind::kMin:
      if (value < *slot) *slot = value;
      return;
    case AggKind::kMax:
      if (value > *slot) *slot = value;
      return;
  }
}

int64_t AggIdentity(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return QueryResult::kMinIdentity;
    case AggKind::kMax:
      return QueryResult::kMaxIdentity;
    default:
      return 0;
  }
}

}  // namespace

Result<QueryResult> ReferenceEngine::Execute(const QueryPlan& plan) {
  SWOLE_RETURN_NOT_OK(ValidatePlan(plan, catalog_));
  // The oracle serves through the same entry sequence as the strategy
  // engines: correctness-checking traffic is still traffic.
  StrategyOptions options;
  options.query_ctx = query_ctx_;
  options.tenant = tenant_;
  return RunQuery("reference", options, [&](exec::QueryContext* qctx) {
    return ExecuteGoverned(plan, qctx);
  });
}

Result<QueryResult> ReferenceEngine::ExecuteGoverned(
    const QueryPlan& plan, exec::QueryContext* qctx) {
  const Table& fact = catalog_.TableRef(plan.fact_table);
  const int num_threads = exec::ResolveNumThreads(num_threads_);

  // Raw-string predicate placement (cost/string_placement.h): the oracle
  // honors the same split as the strategy engines — scan_filter first,
  // pulled conjuncts after every other qualification — through a fully
  // independent evaluator (ScalarEvaluator's LikeMatch, not the kernels).
  // AND commutes, so this changes evaluation order only; what it buys is a
  // second implementation of the split for the differential tests to pin
  // the engines against.
  const StringPredSplit str_split =
      DecideStringPlacement(plan, catalog_, CostProfile::Default());

  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  obs::SpanScope engine_span(trace, "reference");
  engine_span.Attr("threads", static_cast<int64_t>(num_threads));
  std::optional<obs::SpanScope> phase;
  phase.emplace(trace, "build");

  // Reverse dims: precompute the set of qualifying fact offsets (on the
  // caller thread, before the parallel fact scan — shards read them).
  std::vector<std::vector<bool>> reverse_marks;
  {
    EvaluatorPool build_pool(catalog_);
    for (const ReverseDim& rdim : plan.reverse_dims) {
      const Table& rtable = catalog_.TableRef(rdim.table);
      const FkIndex* index =
          rtable.GetFkIndex(rdim.fk_column).ValueOr(nullptr);
      SWOLE_CHECK(index != nullptr);
      std::vector<bool> marks(fact.num_rows(), false);
      ScalarEvaluator& reval = build_pool.For(rdim.table);
      for (int64_t row = 0; row < rtable.num_rows(); ++row) {
        // Sequential scan: a per-tile liveness check stands in for the
        // morsel-boundary checkpoint of the parallel path.
        if (qctx != nullptr && (row & 4095) == 0) {
          exec::ThrowIfError(qctx->CheckLive());
        }
        if (rdim.filter == nullptr || reval.Eval(*rdim.filter, row) != 0) {
          marks[index->OffsetAt(row)] = true;
        }
      }
      reverse_marks.push_back(std::move(marks));
    }
  }

  const int num_aggs = static_cast<int>(plan.aggs.size());
  std::vector<int64_t> identities(num_aggs);
  for (int a = 0; a < num_aggs; ++a) {
    identities[a] = AggIdentity(plan.aggs[a].kind);
  }

  // One shard per worker: private evaluator pool (LIKE caches are not
  // shared), private group map and scalar slots. Shards are merged in
  // worker order below; all merges are order-insensitive on int64, so the
  // result is bit-exact with the single-threaded scan.
  struct Shard {
    EvaluatorPool pool;
    std::map<int64_t, std::vector<int64_t>> groups;
    std::vector<int64_t> scalar;
    int64_t charged = 0;  // groups charged at "reference_groups"
    explicit Shard(const Catalog& catalog) : pool(catalog) {}
  };
  std::vector<std::unique_ptr<Shard>> shards;
  for (int w = 0; w < num_threads; ++w) {
    shards.push_back(std::make_unique<Shard>(catalog_));
    shards.back()->scalar = identities;
  }

  // Spill engagement (DESIGN.md §14). Historically the oracle charged
  // nothing — it exists to check answers, not budgets — so group charging
  // at "reference_groups" only turns on together with spill: a
  // budget-constrained oracle then degrades the same ladder as the
  // strategy engines instead of silently ignoring the limit. Spilled
  // payloads are the raw aggregate values; the merge combines them by
  // aggregate kind (sum/count add, min/max compare — all associative and
  // commutative, so fragment order cannot change the result).
  std::unique_ptr<exec::SpillManager> spill;
  if (plan.HasGroupBy() && !plan.group_seed.has_value() && qctx != nullptr &&
      qctx->spill_enabled() && num_aggs > 0) {
    exec::SpillConfig spill_cfg = exec::SpillConfig::FromEnv();
    spill_cfg.enabled = true;
    spill = std::make_unique<exec::SpillManager>(spill_cfg, num_aggs, qctx);
  }
  // Approximate footprint of one group: red-black node overhead + key +
  // vector header + aggregate slots.
  const int64_t group_bytes = 64 + 8 * static_cast<int64_t>(num_aggs);
  struct ChargeRelease {
    exec::QueryContext* ctx = nullptr;
    std::vector<std::unique_ptr<Shard>>* shards = nullptr;
    int64_t group_bytes = 0;
    ~ChargeRelease() {
      if (ctx == nullptr) return;
      for (auto& shard : *shards) {
        if (shard->charged > 0) {
          ctx->TryCharge(-shard->charged * group_bytes, "reference_groups");
          shard->charged = 0;
        }
      }
    }
  } charge_release{spill != nullptr ? qctx : nullptr, &shards, group_bytes};

  // Drains a shard's accumulated groups to disk and releases their charge.
  auto spill_shard = [&](Shard& shard) {
    exec::SpillManager::Batch batch(*spill);
    for (const auto& [key, aggs] : shard.groups) {
      exec::ThrowIfError(batch.Add(key, aggs.data()));
    }
    exec::ThrowIfError(batch.Finish());
    if (shard.charged > 0) {
      qctx->TryCharge(-shard.charged * group_bytes, "reference_groups");
      shard.charged = 0;
    }
    shard.groups.clear();
    qctx->CountSpill();
  };

  // Group-slot lookup with budget charging: a refused insert spills the
  // shard (including the just-inserted identity entry, whose real updates
  // follow the re-insert — identities merge neutrally) and retries once.
  auto locate_group = [&](Shard& shard, int64_t key) -> std::vector<int64_t>* {
    auto [it, inserted] = shard.groups.try_emplace(key, identities);
    if (!inserted || spill == nullptr) return &it->second;
    AbortReason reason = qctx->TryCharge(group_bytes, "reference_groups");
    if (reason == AbortReason::kNone) {
      ++shard.charged;
      return &it->second;
    }
    if (reason != AbortReason::kBudget) {
      throw QueryAbort(reason, "reference_groups", group_bytes);
    }
    // Recovering from the refusal: drop its pending-abort record first so a
    // failure inside the spill itself classifies as its own error.
    qctx->ClearRecoveredBudgetAbort();
    spill_shard(shard);
    it = shard.groups.try_emplace(key, identities).first;
    reason = qctx->TryCharge(group_bytes, "reference_groups");
    if (reason != AbortReason::kNone) {
      // One group from an empty shard still refused: the budget itself is
      // too small, and spilling again would loop without progress.
      throw QueryAbort(reason, "reference_groups", group_bytes);
    }
    ++shard.charged;
    return &it->second;
  };

  if (plan.group_seed.has_value()) {
    const Table& seed_table = catalog_.TableRef(plan.group_seed->table);
    const Column& key_col = seed_table.ColumnRef(plan.group_seed->key_column);
    for (int64_t row = 0; row < seed_table.num_rows(); ++row) {
      shards[0]->groups.emplace(key_col.ValueAt(row), identities);
    }
  }

  auto process_row = [&](Shard& shard, int64_t row) {
    EvaluatorPool& pool = shard.pool;
    ScalarEvaluator& fact_eval = pool.For(plan.fact_table);

    if (str_split.scan_filter != nullptr &&
        fact_eval.Eval(*str_split.scan_filter, row) == 0) {
      return;
    }

    bool qualified = true;
    for (const DimJoin& dim : plan.dims) {
      const FkIndex* index =
          fact.GetFkIndex(dim.hop.fk_column).ValueOr(nullptr);
      SWOLE_CHECK(index != nullptr);
      if (!DimRowQualifies(dim, catalog_, &pool, index->OffsetAt(row))) {
        qualified = false;
        break;
      }
    }
    if (!qualified) return;

    for (const std::vector<bool>& marks : reverse_marks) {
      if (!marks[row]) {
        qualified = false;
        break;
      }
    }
    if (!qualified) return;

    if (plan.disjunctive.has_value()) {
      const DisjunctiveJoin& dj = *plan.disjunctive;
      const FkIndex* index =
          fact.GetFkIndex(dj.hop.fk_column).ValueOr(nullptr);
      SWOLE_CHECK(index != nullptr);
      int64_t dim_row = index->OffsetAt(row);
      ScalarEvaluator& dim_eval = pool.For(dj.hop.to_table);
      bool any = false;
      for (const DisjunctiveJoin::Clause& clause : dj.clauses) {
        bool dim_ok = clause.dim_filter == nullptr ||
                      dim_eval.Eval(*clause.dim_filter, dim_row) != 0;
        bool fact_ok = clause.fact_filter == nullptr ||
                       fact_eval.Eval(*clause.fact_filter, row) != 0;
        if (dim_ok && fact_ok) {
          any = true;
          break;
        }
      }
      if (!any) return;
    }

    bool equalities_hold = true;
    for (const PathEquality& eq : plan.path_equalities) {
      int64_t lhs = ResolvePath(*plan.FindPath(eq.left_alias), catalog_,
                                plan.fact_table, row);
      int64_t rhs = ResolvePath(*plan.FindPath(eq.right_alias), catalog_,
                                plan.fact_table, row);
      if (lhs != rhs) {
        equalities_hold = false;
        break;
      }
    }
    if (!equalities_hold) return;

    // Pulled raw-string predicates: last, as in the strategy engines.
    for (const Expr* pred : str_split.pulled) {
      if (fact_eval.Eval(*pred, row) == 0) return;
    }

    // Locate the aggregation slots for this row.
    std::vector<int64_t>* slots = &shard.scalar;
    if (plan.HasGroupBy()) {
      int64_t key =
          plan.group_by != nullptr
              ? fact_eval.Eval(*plan.group_by, row)
              : ResolvePath(*plan.FindPath(plan.group_by_path), catalog_,
                            plan.fact_table, row);
      slots = locate_group(shard, key);
    }

    for (int a = 0; a < num_aggs; ++a) {
      const AggSpec& agg = plan.aggs[a];
      int64_t value =
          agg.kind == AggKind::kCount ? 1 : fact_eval.Eval(*agg.expr, row);
      if (!agg.path_factor.empty()) {
        value *= ResolvePath(*plan.FindPath(agg.path_factor), catalog_,
                             plan.fact_table, row);
      }
      UpdateAgg(agg.kind, &(*slots)[a], value);
    }
  };

  phase.reset();  // build
  phase.emplace(trace, "scan");
  exec::MorselStats scan_stats = exec::ParallelMorsels(
      qctx, num_threads, fact.num_rows(), /*morsel_size=*/4096,
      [&](int worker, int64_t begin, int64_t end) {
        Shard& shard = *shards[worker];
        for (int64_t row = begin; row < end; ++row) {
          process_row(shard, row);
        }
      });
  phase->Attr("morsels", scan_stats.morsels);
  phase->Attr("steals", scan_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(scan_stats.workers));
  phase.reset();
  SWOLE_RETURN_NOT_OK(scan_stats.status);

  phase.emplace(trace, "merge");
  std::map<int64_t, std::vector<int64_t>>& groups = shards[0]->groups;
  std::vector<int64_t>& scalar = shards[0]->scalar;
  for (int w = 1; w < num_threads; ++w) {
    for (int a = 0; a < num_aggs; ++a) {
      UpdateAgg(plan.aggs[a].kind, &scalar[a], shards[w]->scalar[a]);
    }
    for (const auto& [key, partial] : shards[w]->groups) {
      // locate_group keeps the merge budget-honest too: a refused insert
      // spills shard 0 and continues from this same entry, so each partial
      // is applied exactly once across memory and disk fragments.
      std::vector<int64_t>* slots = locate_group(*shards[0], key);
      for (int a = 0; a < num_aggs; ++a) {
        UpdateAgg(plan.aggs[a].kind, &(*slots)[a], partial[a]);
      }
    }
  }
  phase.reset();

  phase.emplace(trace, "extract");
  QueryResult result;
  for (const AggSpec& agg : plan.aggs) result.agg_names.push_back(agg.name);

  if (!plan.HasGroupBy()) {
    result.grouped = false;
    result.scalar = std::move(scalar);
    return result;
  }

  result.grouped = true;
  if (spill != nullptr && spill->spilled()) {
    // Partitioned rebuild: drain the residual, then merge partitions as
    // morsels on the shared pool. Partitions hold disjoint key sets and
    // every per-kind combine is associative and commutative, so ordering
    // the merged groups through a std::map makes the result bit-identical
    // to the in-memory path. The oracle orders its groups without the
    // engines' radix sort, so a bug there cannot hide behind it.
    obs::SpanScope spill_span(trace, "spill-merge");
    spill_shard(*shards[0]);
    exec::ThrowIfError(spill->Flush());
    const int partitions = spill->num_partitions();
    std::vector<std::vector<int64_t>> partition_rows(partitions);
    const exec::SpillMergeFn merge_fn = [&](int64_t* dst,
                                            const int64_t* src) {
      for (int a = 0; a < num_aggs; ++a) {
        UpdateAgg(plan.aggs[a].kind, &dst[a], src[a]);
      }
    };
    exec::MorselStats merge_stats = exec::ParallelMorsels(
        qctx, num_threads, partitions, /*morsel_size=*/1,
        [&](int /*worker*/, int64_t begin, int64_t end) {
          for (int64_t p = begin; p < end; ++p) {
            exec::ThrowIfError(spill->MergePartition(
                static_cast<int>(p), merge_fn, &partition_rows[p]));
          }
        });
    SWOLE_RETURN_NOT_OK(merge_stats.status);
    spill_span.Attr("spill.bytes_written", spill->bytes_written());
    spill_span.Attr("spill.partitions", static_cast<int64_t>(partitions));
    spill_span.Attr("spill.max_depth", spill->max_depth_reached());
    spill_span.Attr("spill.events", spill->spill_events());
    const size_t stride = 1 + static_cast<size_t>(num_aggs);
    if (plan.histogram_of_agg0) {
      std::map<int64_t, int64_t> histogram;
      for (const auto& rows : partition_rows) {
        for (size_t i = 0; i < rows.size(); i += stride) {
          histogram[rows[i + 1]]++;
        }
      }
      result.num_aggs = 1;
      for (const auto& [value, count] : histogram) {
        result.AddGroup(value, &count);
      }
      result.agg_names = {"group_count"};
    } else {
      std::map<int64_t, const int64_t*> ordered;
      for (const auto& rows : partition_rows) {
        for (size_t i = 0; i < rows.size(); i += stride) {
          ordered.emplace(rows[i], rows.data() + i + 1);
        }
      }
      result.num_aggs = num_aggs;
      for (const auto& [key, aggs] : ordered) result.AddGroup(key, aggs);
    }
    return result;
  }
  if (plan.histogram_of_agg0) {
    // Second-level aggregation (Q13): count groups per value of agg 0.
    std::map<int64_t, int64_t> histogram;
    for (const auto& [key, aggs] : groups) histogram[aggs[0]]++;
    result.num_aggs = 1;
    for (const auto& [value, count] : histogram) {
      result.AddGroup(value, &count);
    }
    result.agg_names = {"group_count"};
  } else {
    result.num_aggs = num_aggs;
    for (const auto& [key, aggs] : groups) {
      result.AddGroup(key, aggs.data());
    }
  }
  // std::map iteration is already key-ordered.
  return result;
}

}  // namespace swole

#include "strategies/hash_engine.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"
#include "cost/string_placement.h"
#include "exec/scheduler.h"
#include "exec/spill.h"
#include "obs/trace.h"

namespace swole {

using pipeline::GroupTable;
using pipeline::ResolvedPath;
using pipeline::Scratch;

HashStrategyEngine::HashStrategyEngine(StrategyKind kind,
                                       const Catalog& catalog,
                                       StrategyOptions options)
    : kind_(kind), catalog_(catalog), options_(options) {
  SWOLE_CHECK(kind != StrategyKind::kSwole);
}

Result<QueryResult> HashStrategyEngine::Execute(const QueryPlan& plan) {
  SWOLE_RETURN_NOT_OK(ValidatePlan(plan, catalog_));
  return RunQuery(name(), options_, [&](exec::QueryContext* qctx) {
    return ExecuteGoverned(plan, qctx);
  });
}

Result<QueryResult> HashStrategyEngine::ExecuteGoverned(
    const QueryPlan& plan, exec::QueryContext* qctx) {
  const int64_t tile = options_.tile_size;
  const int num_threads = exec::ResolveNumThreads(options_.num_threads);
  const Table& fact = catalog_.TableRef(plan.fact_table);
  const bool rof = kind_ == StrategyKind::kRof;

  // Raw-string predicate placement (cost/string_placement.h): every
  // strategy honors the same split, so a strategy-vs-strategy comparison
  // on a string-heavy plan measures the strategy, not the placement. The
  // scan evaluates scan_filter; pulled conjuncts run per surviving lane
  // after all other qualifications.
  const StringPredSplit str_split = DecideStringPlacement(
      plan, catalog_,
      options_.cost_profile != nullptr ? *options_.cost_profile
                                       : CostProfile::Default());

  // Spans open/close only on this (driving) thread, so the tree shape is
  // identical at every thread count; worker rollups arrive as attributes.
  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  obs::SpanScope engine_span(trace, name());
  engine_span.Attr("threads", static_cast<int64_t>(num_threads));
  std::optional<obs::SpanScope> phase;
  phase.emplace(trace, "build");

  // ---- Build phase ----
  const int groupjoin_dim = pipeline::FindGroupjoinDim(plan);

  std::vector<std::unique_ptr<HashTable>> dim_sets(plan.dims.size());
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (static_cast<int>(d) == groupjoin_dim) continue;  // fused below
    dim_sets[d] = pipeline::BuildDimKeySet(kind_, catalog_, plan.dims[d],
                                           tile, num_threads, qctx);
  }

  std::vector<std::unique_ptr<HashTable>> reverse_sets;
  for (const ReverseDim& rdim : plan.reverse_dims) {
    reverse_sets.push_back(
        pipeline::BuildReverseKeySet(kind_, catalog_, rdim, tile,
                                     num_threads, qctx));
  }

  std::unique_ptr<HashTable> disjunctive_ht;
  if (plan.disjunctive.has_value()) {
    disjunctive_ht = pipeline::BuildDisjunctiveHt(
        kind_, catalog_, *plan.disjunctive, tile, num_threads, qctx);
  }

  // Group table. For the groupjoin fusion its keys ARE the qualifying
  // dimension keys (build side); probing uses join mode (Find, no insert).
  // Spill engagement (DESIGN.md §14): only unseeded insert-mode group
  // tables may spill — join-mode probes and seeded tables need their key
  // set resident. One manager is shared by every worker-local table.
  std::unique_ptr<exec::SpillManager> spill;
  std::unique_ptr<GroupTable> groups;
  const bool spillable = plan.HasGroupBy() && groupjoin_dim < 0 &&
                         !plan.group_seed.has_value() && qctx != nullptr &&
                         qctx->spill_enabled();
  if (plan.HasGroupBy()) {
    // Under spill, skip the cardinality-sized pre-allocation: charging the
    // full estimate upfront would breach the budget before a single row is
    // aggregated. The table starts minimal and grows (or spills) on demand.
    int64_t expected_groups =
        spillable ? 16 : pipeline::ExpectedGroups(catalog_, plan);
    // A groupjoin table holds exactly the fused dimension's qualifying keys
    // (so probe misses mean "join filtered") plus any seeds: the dim's runs
    // size it and seed it directly. A seed that covers the dim's pk already
    // inserts every such key.
    std::optional<pipeline::KeyRuns> groupjoin_runs;
    if (groupjoin_dim >= 0) {
      const DimJoin& dim = plan.dims[groupjoin_dim];
      if (!pipeline::GroupSeedCoversDim(plan, dim)) {
        groupjoin_runs.emplace(pipeline::CollectDimKeyRuns(
            kind_, catalog_, dim, tile, num_threads, qctx));
      }
      expected_groups = pipeline::GroupjoinTableKeys(
          catalog_, plan, groupjoin_runs ? &*groupjoin_runs : nullptr);
    }
    groups = std::make_unique<GroupTable>(plan, expected_groups, qctx);
    pipeline::SeedGroups(catalog_, plan, groups.get(), tile, num_threads,
                         qctx);
    if (groupjoin_runs.has_value()) {
      groupjoin_runs->InsertInto(
          &groups->table(),
          catalog_.TableRef(plan.dims[groupjoin_dim].hop.to_table).num_rows(),
          /*prefetch=*/rof, num_threads, tile);
    }
    if (spillable) {
      exec::SpillConfig spill_cfg = exec::SpillConfig::FromEnv();
      spill_cfg.enabled = true;
      spill = std::make_unique<exec::SpillManager>(
          spill_cfg, 1 + static_cast<int>(plan.aggs.size()), qctx);
      groups->EnableSpill(spill.get(),
                          pipeline::SpillSoftCap(qctx, num_threads));
    }
  }

  phase.reset();  // build

  // ---- Probe-phase metadata ----
  const pipeline::AggProgram agg_program(catalog_, fact, plan);

  std::vector<std::pair<ResolvedPath, ResolvedPath>> equality_paths;
  for (const PathEquality& eq : plan.path_equalities) {
    equality_paths.emplace_back(
        pipeline::ResolvePath(catalog_, fact, *plan.FindPath(eq.left_alias)),
        pipeline::ResolvePath(catalog_, fact,
                              *plan.FindPath(eq.right_alias)));
  }

  // ---- Per-worker probe context ----
  // Each scheduler participant owns one: scratch buffers, a private
  // aggregation state, and (for ROF) the carried selection vector. Worker 0
  // aggregates into the primary `groups`/accumulator; the others merge into
  // it in worker order after the scan.
  struct ProbeCtx {
    VectorEvaluator eval;
    Scratch scratch;
    pipeline::AggLanes lanes;
    std::vector<std::vector<uint8_t>> clause_masks;
    std::vector<int64_t> scalar_acc;
    std::unique_ptr<GroupTable> owned_groups;
    GroupTable* groups = nullptr;
    // ROF's carried FULL selection vector of GLOBAL fact indices — global
    // because one worker's morsels are not contiguous.
    std::vector<int32_t> carry;
    int32_t carry_n = 0;
    int64_t carry_mask_start = 0;  // tile start of the lanes in `carry`

    ProbeCtx(const Table& fact_table, const pipeline::AggProgram& program,
             int64_t tile_size)
        : eval(fact_table, tile_size),
          scratch(tile_size),
          lanes(program, tile_size),
          carry(tile_size) {}
  };

  const bool join_mode = groupjoin_dim >= 0;
  std::vector<std::unique_ptr<ProbeCtx>> ctxs(num_threads);
  for (int w = 0; w < num_threads; ++w) {
    auto ctx = std::make_unique<ProbeCtx>(fact, agg_program, tile);
    if (plan.disjunctive.has_value()) {
      ctx->clause_masks.assign(plan.disjunctive->clauses.size(),
                               std::vector<uint8_t>(tile));
    }
    ctx->scalar_acc.resize(plan.aggs.size());
    pipeline::InitScalarAcc(plan, ctx->scalar_acc.data());
    if (plan.HasGroupBy()) {
      if (w == 0) {
        ctx->groups = groups.get();
      } else if (join_mode) {
        // Join-mode probes only Find keys, so every worker needs the
        // seeded key set; payloads start at zero and merge additively.
        ctx->owned_groups = groups->CloneKeysOnly();
        ctx->groups = ctx->owned_groups.get();
      } else {
        ctx->owned_groups = std::make_unique<GroupTable>(
            plan,
            spill != nullptr ? 16 : pipeline::ExpectedGroups(catalog_, plan),
            qctx);
        if (spill != nullptr) {
          ctx->owned_groups->EnableSpill(
              spill.get(), pipeline::SpillSoftCap(qctx, num_threads));
        }
        ctx->groups = ctx->owned_groups.get();
      }
    }
    ctxs[w] = std::move(ctx);
  }

  // Processes one batch of selected lanes. For DC/hybrid the batch is the
  // tile's local selection vector (base == tile start); for ROF it is the
  // carried FULL selection vector of global indices (base == 0).
  auto process_batch = [&](ProbeCtx& ctx, int64_t base, int32_t* sel,
                           int32_t n, int64_t mask_tile_start) -> void {
    VectorEvaluator& eval = ctx.eval;
    Scratch& scratch = ctx.scratch;
    // Join qualification: probe each dimension's key set by fk value.
    for (size_t d = 0; d < plan.dims.size(); ++d) {
      if (n == 0) return;
      if (static_cast<int>(d) == groupjoin_dim) continue;  // at agg time
      const Column& fk = fact.ColumnRef(plan.dims[d].hop.fk_column);
      DispatchPhysical(fk.type().physical, [&]<typename T>() {
        kernels::Gather<T>(fk.Data<T>() + base, sel, n, scratch.keys.data());
      });
      HashTable& set = *dim_sets[d];
      set.ContainsBatch(scratch.keys.data(), n, scratch.cmp2.data(),
                        /*prefetch=*/rof);
      n = pipeline::CompactSel(kind_, sel, scratch.cmp2.data(), n);
    }

    // Reverse dims: probe by the fact's own pk value.
    for (size_t r = 0; r < plan.reverse_dims.size(); ++r) {
      if (n == 0) return;
      const Column& pk = fact.ColumnRef(plan.reverse_dims[r].fact_pk_column);
      DispatchPhysical(pk.type().physical, [&]<typename T>() {
        kernels::Gather<T>(pk.Data<T>() + base, sel, n, scratch.keys.data());
      });
      HashTable& set = *reverse_sets[r];
      set.ContainsBatch(scratch.keys.data(), n, scratch.cmp2.data(),
                        /*prefetch=*/rof);
      n = pipeline::CompactSel(kind_, sel, scratch.cmp2.data(), n);
    }

    // Disjunctive join (Q19): payload bit k set => dim row passes clause k;
    // the lane qualifies if some clause also passes its fact-side filter.
    if (plan.disjunctive.has_value() && n > 0) {
      const Column& fk = fact.ColumnRef(plan.disjunctive->hop.fk_column);
      DispatchPhysical(fk.type().physical, [&]<typename T>() {
        kernels::Gather<T>(fk.Data<T>() + base, sel, n, scratch.keys.data());
      });
      disjunctive_ht->FindBatch(scratch.keys.data(), n, scratch.ptrs.data(),
                                /*prefetch=*/rof);
      for (int32_t k = 0; k < n; ++k) {
        const int64_t* payload = scratch.ptrs[k];
        uint8_t dim_bits =
            payload != nullptr ? static_cast<uint8_t>(*payload) : 0;
        uint8_t ok = 0;
        for (size_t c = 0; c < plan.disjunctive->clauses.size(); ++c) {
          // clause_masks are tile-relative; translate the lane back.
          int64_t local = base + sel[k] - mask_tile_start;
          ok |= static_cast<uint8_t>(((dim_bits >> c) & 1) &
                                     ctx.clause_masks[c][local]);
        }
        scratch.cmp2[k] = ok;
      }
      n = pipeline::CompactSel(kind_, sel, scratch.cmp2.data(), n);
    }

    // Path equalities (Q5's s_nationkey = c_nationkey).
    for (const auto& [left, right] : equality_paths) {
      if (n == 0) return;
      pipeline::GatherPathSel(left, base, sel, n, &scratch,
                              scratch.vals.data());
      pipeline::GatherPathSel(right, base, sel, n, &scratch,
                              scratch.vals2.data());
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] = scratch.vals[k] == scratch.vals2[k] ? 1 : 0;
      }
      n = pipeline::CompactSel(kind_, sel, scratch.cmp2.data(), n);
    }

    // Pulled raw-string predicates: per-surviving-lane match. `base + sel`
    // is the global fact row for DC/hybrid (tile-local sel, base = tile
    // start) AND for ROF (global carry, base = 0).
    for (const Expr* pred : str_split.pulled) {
      if (n == 0) return;
      const Column& col = fact.ColumnRef(pred->children[0]->column);
      const StringColumn& text = *col.text();
      const simd::CompiledLike& lk = eval.CompiledLikeFor(*pred);
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] = static_cast<uint8_t>(kernels::StrLikeOne(
            text.bytes(), text.offsets(), base + sel[k], lk));
      }
      n = pipeline::CompactSel(kind_, sel, scratch.cmp2.data(), n);
    }

    if (n == 0) return;

    // Aggregation.
    if (!plan.HasGroupBy()) {
      pipeline::AccumulateScalarSel(agg_program, &ctx.lanes, base, sel, n,
                                    &scratch, ctx.scalar_acc.data());
      return;
    }
    // A join-mode lane can still miss the groupjoin probe, so its values
    // are computed for a row the plan may discard.
    ctx.lanes.ComputeSel(base, sel, n, /*lanes_kept=*/!join_mode, &scratch);
    if (join_mode) {
      ctx.groups->UpdateJoinSel(ctx.lanes.keys(), ctx.lanes.values(), n,
                                rof);
    } else {
      ctx.groups->UpdateSel(ctx.lanes.keys(), ctx.lanes.values(), n, rof);
    }
  };

  // ---- Probe phase (morsel-driven) ----
  // ROF carries a FULL selection vector of global indices across the tiles
  // of a worker's morsels ("always operating on full intermediate result
  // selection vectors"); it persists in the worker's ctx and flushes after
  // the scan.
  auto process_range = [&](ProbeCtx& ctx, int64_t range_begin,
                           int64_t range_end) -> void {
    for (int64_t start = range_begin; start < range_end; start += tile) {
      int64_t len = std::min(tile, range_end - start);

      // Disjunctive per-clause fact filters: prepass once per tile.
      if (plan.disjunctive.has_value()) {
        // ROF's carry would mix lanes from tiles with different masks;
        // flush first so clause masks always refer to the current tile.
        if (rof && ctx.carry_n > 0) {
          process_batch(ctx, 0, ctx.carry.data(), ctx.carry_n,
                        ctx.carry_mask_start);
          ctx.carry_n = 0;
        }
        for (size_t c = 0; c < plan.disjunctive->clauses.size(); ++c) {
          pipeline::FilterToMask(
              &ctx.eval, plan.disjunctive->clauses[c].fact_filter.get(),
              start, len, ctx.clause_masks[c].data());
        }
        ctx.carry_mask_start = start;
      }

      int32_t n = pipeline::FilterToSelVec(kind_, &ctx.eval, fact,
                                           str_split.scan_filter.get(),
                                           start, len, &ctx.scratch,
                                           ctx.scratch.sel.data());

      if (!rof) {
        process_batch(ctx, start, ctx.scratch.sel.data(), n, start);
        continue;
      }

      // ROF: append global indices until the vector is full, then process.
      int32_t appended = 0;
      while (appended < n) {
        int32_t space = static_cast<int32_t>(tile) - ctx.carry_n;
        int32_t take = std::min(space, n - appended);
        for (int32_t k = 0; k < take; ++k) {
          ctx.carry[ctx.carry_n + k] =
              static_cast<int32_t>(start) + ctx.scratch.sel[appended + k];
        }
        ctx.carry_n += take;
        appended += take;
        if (ctx.carry_n == static_cast<int32_t>(tile)) {
          process_batch(ctx, 0, ctx.carry.data(), ctx.carry_n,
                        ctx.carry_mask_start);
          ctx.carry_n = 0;
        }
      }
    }
  };

  phase.emplace(trace, "probe");
  exec::MorselStats probe_stats =
      exec::ParallelMorsels(qctx, num_threads, fact.num_rows(),
                           exec::DefaultMorselSize(tile),
                           [&](int worker, int64_t begin, int64_t end) {
                             process_range(*ctxs[worker], begin, end);
                           });
  phase->Attr("morsels", probe_stats.morsels);
  phase->Attr("steals", probe_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(probe_stats.workers));
  phase->Attr("width", StringFormat("%.1fB",
                                    pipeline::AvgFactReadWidthBytes(fact,
                                                                    plan)));
  phase.reset();  // probe
  SWOLE_RETURN_NOT_OK(probe_stats.status);

  phase.emplace(trace, "merge");
  // Flush leftover ROF carries in worker order, then merge worker states
  // (DESIGN.md §7).
  for (int w = 0; w < num_threads; ++w) {
    ProbeCtx& ctx = *ctxs[w];
    if (rof && ctx.carry_n > 0) {
      process_batch(ctx, 0, ctx.carry.data(), ctx.carry_n,
                    ctx.carry_mask_start);
      ctx.carry_n = 0;
    }
  }
  // The carry flush was the build structures' last reader: free them now,
  // so merge and extract run without them resident.
  dim_sets.clear();
  reverse_sets.clear();
  disjunctive_ht.reset();
  std::vector<const GroupTable*> join_workers;
  for (int w = 1; w < num_threads; ++w) {
    pipeline::MergeScalarAcc(plan, ctxs[0]->scalar_acc.data(),
                             ctxs[w]->scalar_acc.data());
    if (join_mode) {
      join_workers.push_back(ctxs[w]->groups);
    } else if (plan.HasGroupBy()) {
      groups->MergeFrom(*ctxs[w]->groups);
      // Release each worker table as soon as it is merged so the budget
      // headroom grows monotonically through the merge — under spill the
      // destination may need to grow while later tables still hold their
      // charges.
      ctxs[w]->groups = nullptr;
      ctxs[w]->owned_groups.reset();
    }
  }
  // Join-mode worker tables are slot-for-slot copies of the primary: one
  // slot-wise pass adds them all, split into morsels.
  exec::MorselStats merge_stats;
  if (join_mode) {
    merge_stats = groups->MergeJoinSlots(join_workers, num_threads, tile);
    for (int w = 1; w < num_threads; ++w) ctxs[w]->owned_groups.reset();
  }
  phase->Attr("morsels", merge_stats.morsels);
  phase->Attr("steals", merge_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(merge_stats.workers));
  phase.reset();  // merge
  SWOLE_RETURN_NOT_OK(merge_stats.status);

  // ---- Result extraction ----
  phase.emplace(trace, "extract");
  if (!plan.HasGroupBy()) {
    return pipeline::MakeScalarResult(plan, ctxs[0]->scalar_acc.data());
  }
  bool keep_untouched = plan.group_seed.has_value();
  if (spill != nullptr && spill->spilled()) {
    return groups->ExtractSpilled(plan, num_threads);
  }
  return groups->Extract(plan, keep_untouched);
}

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind,
                                       const Catalog& catalog,
                                       StrategyOptions options) {
  if (kind == StrategyKind::kSwole) {
    extern std::unique_ptr<Strategy> MakeSwoleStrategyImpl(
        const Catalog& catalog, StrategyOptions options);
    return MakeSwoleStrategyImpl(catalog, options);
  }
  return std::make_unique<HashStrategyEngine>(kind, catalog, options);
}

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kDataCentric:
      return "data-centric";
    case StrategyKind::kHybrid:
      return "hybrid";
    case StrategyKind::kRof:
      return "rof";
    case StrategyKind::kSwole:
      return "swole";
  }
  return "?";
}

}  // namespace swole

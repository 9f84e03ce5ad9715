#include "strategies/swole.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "cost/estimates.h"
#include "cost/string_placement.h"
#include "exec/scheduler.h"
#include "exec/spill.h"
#include "obs/trace.h"

namespace swole {

using pipeline::AggShape;
using pipeline::GroupTable;
using pipeline::ResolvedPath;
using pipeline::Scratch;

namespace {

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
    default:
      return kernels::CmpOp::kNe;
  }
}

// Estimated byte size of a group hash table with `keys` entries.
int64_t EstimateGroupHtBytes(int64_t keys, int num_aggs) {
  int64_t capacity = static_cast<int64_t>(bit_util::NextPowerOfTwo(
      static_cast<uint64_t>(std::max<int64_t>(16, keys * 10 / 7 + 1))));
  return capacity * 8 + capacity * 8 * (1 + num_aggs);
}

// Qualification selectivity of a dim subtree: product of the filter
// selectivities down the snowflake.
double EstimateDimTreeSelectivity(const Catalog& catalog,
                                  const DimJoin& dim) {
  double sel = 1.0;
  if (dim.filter != nullptr) {
    sel *= EstimateSelectivity(catalog.TableRef(dim.hop.to_table),
                               *dim.filter);
  }
  for (const DimJoin& child : dim.children) {
    sel *= EstimateDimTreeSelectivity(catalog, child);
  }
  return sel;
}

// An access-merging opportunity (§III-C): aggregate `agg_index` references
// `column`, which also appears in the simple fact-filter conjunct
// `conjunct_index` as `column OP literal`. The conjunct is folded into the
// first read of the column (tmp = col * (col OP lit)).
struct MergeCandidate {
  size_t agg_index;
  const Column* column = nullptr;
  kernels::CmpOp op;
  int64_t literal = 0;
  size_t conjunct_index = 0;
  bool column_is_lhs = false;  // position of the merged column in a product
};

// Key masking: out[j] = keys[j] where cmp[j], else HashTable::kMaskKey.
// Writes a separate buffer, since `keys` may be a program register shared
// with an aggregate input.
void MaskKeys(const int64_t* keys, const uint8_t* cmp, int64_t len,
              int64_t* out) {
  for (int64_t j = 0; j < len; ++j) {
    int64_t m = -static_cast<int64_t>(cmp[j]);
    out[j] = (keys[j] & m) | (HashTable::kMaskKey & ~m);
  }
}

}  // namespace

// Everything the cost model decided up front about how to run the plan.
struct SwoleStrategy::PlanAnalysis {
  double sigma_fact = 1.0;
  double sigma_total = 1.0;
  double comp_ns = 0;
  int64_t expected_groups = 0;
  int64_t group_ht_bytes = 0;
  AggChoice agg_choice = AggChoice::kValueMasking;
  bool use_ea = false;
  int groupjoin_dim = -1;
  int num_read_columns = 1;
  double avg_read_width = 8.0;  // bytes
  // Cost-model decision inputs, rendered once for the trace (obs/trace.h).
  std::string agg_cost_detail;
  std::string ea_cost_detail;
  std::vector<MergeCandidate> merges;
  std::vector<uint8_t> merged_aggs;  // per agg: handled by merging?
  ExprPtr residual_filter;           // fact filter minus merged conjuncts
  // Raw-string predicate placement (cost/string_placement.h): the scan
  // evaluates str_split.scan_filter; pulled conjuncts run after every
  // other qualification. Identical results either way (AND commutes).
  StringPredSplit str_split;
};

// Memoized analysis + the decision trace it produced, keyed by the plan's
// structural fingerprint (QueryPlan::ToString) and the SWOLE_STR_PLACEMENT
// mode it was made under.
struct SwoleStrategy::CachedAnalysis {
  // The entry's own clone of the analyzed plan: the analysis holds
  // pointers into its expression tree (str_split.pulled), and a caller's
  // plan may be destroyed, or its address reused, while the entry lives.
  QueryPlan plan;
  PlanAnalysis analysis;
  SwoleDecisions decisions;
};

SwoleStrategy::SwoleStrategy(const Catalog& catalog, StrategyOptions options)
    : catalog_(catalog),
      options_(options),
      profile_(options.cost_profile != nullptr ? *options.cost_profile
                                               : CostProfile::Default()) {}

SwoleStrategy::~SwoleStrategy() = default;

Result<QueryResult> SwoleStrategy::Execute(const QueryPlan& plan) {
  SWOLE_RETURN_NOT_OK(ValidatePlan(plan, catalog_));
  return RunQuery(
      "swole", options_,
      [&](exec::QueryContext* qctx) -> Result<QueryResult> {
        const CachedAnalysis& cached = Analyze(plan);
        const PlanAnalysis& analysis = cached.analysis;
        // The strategy decision and the cost-model numbers it was made on
        // go onto the engine span, so a trace explains *why* this plan ran
        // as VM/KM/EA/groupjoin, not just that it did. Attrs read the
        // immutable cache entry, not decisions_, so concurrent Executes
        // don't race.
        obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
        obs::SpanScope engine_span(trace, "swole");
        if (trace != nullptr) {
          engine_span.Attr("agg", cached.decisions.aggregation);
          if (analysis.use_ea) engine_span.Attr("ea", int64_t{1});
          if (analysis.groupjoin_dim >= 0) {
            engine_span.Attr("groupjoin_dim",
                             static_cast<int64_t>(analysis.groupjoin_dim));
          }
          if (cached.decisions.used_access_merging) {
            engine_span.Attr("access_merging", int64_t{1});
          }
          if (analysis.str_split.workload.rows > 0) {
            engine_span.Attr("cost.str", analysis.str_split.rationale);
          }
          if (!analysis.agg_cost_detail.empty()) {
            engine_span.Attr("cost.agg", analysis.agg_cost_detail);
          }
          if (!analysis.ea_cost_detail.empty()) {
            engine_span.Attr("cost.ea", analysis.ea_cost_detail);
          }
        }
        if (analysis.use_ea) {
          return ExecuteEagerAggregation(plan, analysis, qctx);
        }
        if (analysis.groupjoin_dim >= 0) {
          return ExecuteGroupjoin(plan, analysis, qctx);
        }
        return ExecuteGeneral(plan, analysis, qctx);
      },
      // Graceful degradation: a pullup plan that breached its memory budget
      // is retried under the memory-lean data-centric strategy against the
      // same context.
      [&](exec::QueryContext* qctx) {
        {
          std::lock_guard<std::mutex> lock(analysis_mu_);
          decisions_.degraded_to_data_centric = true;
          decisions_.rationale +=
              " [budget breach: degraded to data-centric strategy]";
        }
        StrategyOptions lean = options_;
        lean.query_ctx = qctx;  // same budget, deadline, and cancellation
        return MakeStrategy(StrategyKind::kDataCentric, catalog_, lean)
            ->Execute(plan);
      });
}

const SwoleStrategy::CachedAnalysis& SwoleStrategy::Analyze(
    const QueryPlan& requested) {
  // One lock over lookup + compute + publish: analyses are cheap relative
  // to execution and memoized per plan structure, so serializing them is
  // not a serving bottleneck; entries are heap-stable once published, so
  // the returned reference outlives the lock.
  // Tests and benches flip SWOLE_STR_PLACEMENT between queries on the
  // same plan, so the mode is part of the key.
  const StringPlacementMode str_mode = StringPlacementModeFromEnv();
  auto key = std::make_pair(requested.ToString(), str_mode);
  std::lock_guard<std::mutex> lock(analysis_mu_);
  auto cache_it = analysis_cache_.find(key);
  if (cache_it != analysis_cache_.end()) {
    decisions_ = cache_it->second->decisions;
    return *cache_it->second;
  }
  auto cached = std::make_unique<CachedAnalysis>();
  cached->plan = requested.Clone();
  const QueryPlan& plan = cached->plan;

  const Table& fact = catalog_.TableRef(plan.fact_table);
  PlanAnalysis analysis;
  decisions_ = SwoleDecisions{};

  // ---- Estimates ----
  if (plan.fact_filter != nullptr) {
    analysis.sigma_fact = EstimateSelectivity(fact, *plan.fact_filter);
  }
  analysis.sigma_total = analysis.sigma_fact;
  for (const DimJoin& dim : plan.dims) {
    analysis.sigma_total *= EstimateDimTreeSelectivity(catalog_, dim);
  }
  for (const ReverseDim& rdim : plan.reverse_dims) {
    if (rdim.filter != nullptr) {
      analysis.sigma_total *= std::min(
          1.0, EstimateSelectivity(catalog_.TableRef(rdim.table),
                                   *rdim.filter) *
                   static_cast<double>(
                       catalog_.TableRef(rdim.table).num_rows()) /
                   std::max<double>(1.0, fact.num_rows()));
    }
  }

  std::set<std::string> agg_columns;
  for (const AggSpec& agg : plan.aggs) {
    if (agg.expr != nullptr) {
      analysis.comp_ns += EstimateComputeNs(profile_, *agg.expr);
      for (const std::string& ref : CollectColumnRefs(*agg.expr)) {
        agg_columns.insert(ref);
      }
    }
  }
  if (plan.group_by != nullptr) {
    for (const std::string& ref : CollectColumnRefs(*plan.group_by)) {
      agg_columns.insert(ref);
    }
  }
  analysis.num_read_columns =
      std::max<int>(1, static_cast<int>(agg_columns.size()));
  analysis.avg_read_width = pipeline::AvgFactReadWidthBytes(fact, plan);

  if (plan.HasGroupBy()) {
    analysis.expected_groups = pipeline::ExpectedGroups(catalog_, plan);
    analysis.group_ht_bytes = EstimateGroupHtBytes(
        analysis.expected_groups, static_cast<int>(plan.aggs.size()));
  }

  // ---- String predicate placement (access-aware pullup for raw text) ----
  analysis.str_split = DecideStringPlacement(plan, catalog_, profile_,
                                             str_mode);
  if (analysis.str_split.workload.rows > 0) {
    decisions_.used_string_pullup = analysis.str_split.pull;
    decisions_.rationale += "[" + analysis.str_split.rationale + "] ";
  }

  analysis.groupjoin_dim = pipeline::FindGroupjoinDim(plan);

  // ---- Eager aggregation decision (§III-E) ----
  bool ea_eligible = options_.enable_eager_aggregation &&
                     analysis.groupjoin_dim == 0 && plan.dims.size() == 1 &&
                     plan.reverse_dims.empty() &&
                     !plan.disjunctive.has_value() && plan.paths.empty() &&
                     !plan.group_seed.has_value();
  if (ea_eligible) {
    const DimJoin& dim = plan.dims[0];
    const Table& dim_table = catalog_.TableRef(dim.hop.to_table);
    double sigma_s = EstimateDimTreeSelectivity(catalog_, dim);
    GroupjoinWorkload w;
    w.r_rows = static_cast<double>(fact.num_rows());
    w.s_rows = static_cast<double>(dim_table.num_rows());
    w.sigma_r = analysis.sigma_fact;
    w.sigma_s = sigma_s;
    w.match_prob = sigma_s * analysis.sigma_fact;
    w.comp_ns = analysis.comp_ns;
    // Groupjoin table: qualifying dim keys only. EA table: every dim key.
    w.ht_bytes = EstimateGroupHtBytes(
        std::max<int64_t>(16, static_cast<int64_t>(
                                  sigma_s * dim_table.num_rows())),
        static_cast<int>(plan.aggs.size()));
    w.ea_ht_bytes = EstimateGroupHtBytes(
        dim_table.num_rows(), static_cast<int>(plan.aggs.size()));
    w.num_read_columns = analysis.num_read_columns;
    w.avg_read_width = analysis.avg_read_width;
    analysis.use_ea = options_.force_eager_aggregation ||
                      ChooseEagerAggregation(profile_, w);
    decisions_.rationale += StringFormat(
        "EA=%.0fms vs groupjoin=%.0fms; ",
        EagerAggregationCost(profile_, w) / 1e6,
        GroupjoinCost(profile_, w) / 1e6);
    analysis.ea_cost_detail = DescribeEagerDecision(profile_, w);
  }

  // ---- Aggregation technique decision (§III-A/B) ----
  AggWorkload w;
  w.rows = static_cast<double>(fact.num_rows());
  w.selectivity = analysis.sigma_total;
  w.comp_ns = analysis.comp_ns;
  w.group_ht_bytes = analysis.group_ht_bytes;
  w.num_read_columns = analysis.num_read_columns;
  w.avg_read_width = analysis.avg_read_width;
  switch (options_.force_agg) {
    case StrategyOptions::ForceAgg::kValueMasking:
      analysis.agg_choice = AggChoice::kValueMasking;
      break;
    case StrategyOptions::ForceAgg::kKeyMasking:
      analysis.agg_choice = AggChoice::kKeyMasking;
      break;
    case StrategyOptions::ForceAgg::kHybridFallback:
      analysis.agg_choice = AggChoice::kHybridFallback;
      break;
    case StrategyOptions::ForceAgg::kAuto: {
      analysis.agg_choice = ChooseAggregation(profile_, w);
      if (analysis.agg_choice == AggChoice::kValueMasking &&
          !options_.enable_value_masking) {
        analysis.agg_choice = AggChoice::kHybridFallback;
      }
      if (analysis.agg_choice == AggChoice::kKeyMasking &&
          !options_.enable_key_masking) {
        analysis.agg_choice = options_.enable_value_masking
                                  ? AggChoice::kValueMasking
                                  : AggChoice::kHybridFallback;
      }
      break;
    }
  }
  decisions_.aggregation = AggChoiceName(analysis.agg_choice);
  analysis.agg_cost_detail = DescribeAggDecision(profile_, w);
  decisions_.used_eager_aggregation = analysis.use_ea;
  decisions_.used_positional_bitmaps =
      options_.enable_positional_bitmaps &&
      (!plan.dims.empty() || !plan.reverse_dims.empty() ||
       plan.disjunctive.has_value());
  decisions_.rationale += StringFormat(
      "sigma=%.3f comp=%.1fns groups=%lld ht=%lldB", analysis.sigma_total,
      analysis.comp_ns, static_cast<long long>(analysis.expected_groups),
      static_cast<long long>(analysis.group_ht_bytes));

  // ---- Access merging analysis (§III-C) ----
  // Folding a conjunct into an aggregate's first read removes it from the
  // shared mask, so it is only sound when every aggregate absorbs it —
  // i.e. single-aggregate plans (the paper's Fig. 5 / Q6 shape).
  analysis.merged_aggs.assign(plan.aggs.size(), 0);
  // Merging analyzes the scan-side filter: pulled string conjuncts are not
  // in the shared mask, so they are not candidates (and kLike conjuncts
  // never fold into a first read anyway — only simple comparisons do).
  const Expr* merge_source = analysis.str_split.scan_filter.get();
  if (options_.enable_access_merging && merge_source != nullptr &&
      !plan.HasGroupBy() && plan.aggs.size() == 1 &&
      analysis.agg_choice == AggChoice::kValueMasking) {
    std::vector<const Expr*> conjuncts = SplitConjuncts(*merge_source);
    std::vector<uint8_t> conjunct_used(conjuncts.size(), 0);
    for (size_t a = 0; a < plan.aggs.size(); ++a) {
      const AggSpec& agg = plan.aggs[a];
      if (agg.kind != AggKind::kSum || !agg.path_factor.empty()) continue;
      AggShape shape = pipeline::DetectAggShape(fact, agg);
      if (shape.kind != AggShape::Kind::kCol &&
          shape.kind != AggShape::Kind::kProduct) {
        continue;
      }
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (conjunct_used[c]) continue;
        const Expr& e = *conjuncts[c];
        if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.op)) continue;
        const Expr& lhs = *e.children[0];
        const Expr& rhs = *e.children[1];
        if (lhs.kind != ExprKind::kColumnRef ||
            rhs.kind != ExprKind::kLiteral) {
          continue;
        }
        const Column* col = &fact.ColumnRef(lhs.column);
        MergeCandidate merge;
        merge.agg_index = a;
        merge.column = col;
        merge.op = ToCmpOp(e.op);
        merge.literal = rhs.literal;
        merge.conjunct_index = c;
        if (shape.kind == AggShape::Kind::kCol && shape.a == col) {
          merge.column_is_lhs = true;
        } else if (shape.kind == AggShape::Kind::kProduct &&
                   shape.a == col) {
          merge.column_is_lhs = true;
        } else if (shape.kind == AggShape::Kind::kProduct &&
                   shape.b == col) {
          merge.column_is_lhs = false;
        } else {
          continue;
        }
        // A product may merge both factors (Fig. 10b "reuses both"): at
        // most one merge per factor position.
        bool duplicate = false;
        for (const MergeCandidate& existing : analysis.merges) {
          if (existing.agg_index == a &&
              existing.column_is_lhs == merge.column_is_lhs) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        analysis.merges.push_back(merge);
        analysis.merged_aggs[a] = 1;
        conjunct_used[c] = 1;
        if (shape.kind == AggShape::Kind::kCol) break;
      }
    }
    if (!analysis.merges.empty()) {
      decisions_.used_access_merging = true;
      // Residual filter: conjuncts not folded into a merge.
      ExprPtr residual;
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (conjunct_used[c]) continue;
        residual = residual == nullptr
                       ? conjuncts[c]->Clone()
                       : And(std::move(residual), conjuncts[c]->Clone());
      }
      analysis.residual_filter = std::move(residual);
    }
  }

  cached->analysis = std::move(analysis);
  cached->decisions = decisions_;
  cache_it = analysis_cache_.emplace(std::move(key), std::move(cached)).first;
  return *cache_it->second;
}

// ---------------------------------------------------------------------------
// General path: masked (VM/KM) or selection-vector (fallback) probe pipeline
// with positional bitmaps for every join.
// ---------------------------------------------------------------------------

Result<QueryResult> SwoleStrategy::ExecuteGeneral(
    const QueryPlan& plan, const PlanAnalysis& analysis,
    exec::QueryContext* qctx) {
  const int64_t tile = options_.tile_size;
  const int num_threads = exec::ResolveNumThreads(options_.num_threads);
  const Table& fact = catalog_.TableRef(plan.fact_table);
  const bool use_bitmaps = options_.enable_positional_bitmaps;

  // Phase spans are recorded by this (driving) thread only, so the tree
  // shape is thread-count invariant; worker rollups become attributes.
  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  std::optional<obs::SpanScope> phase;
  phase.emplace(trace, "build");

  // ---- Build phase ----
  std::vector<PositionalBitmap> dim_bitmaps;
  std::vector<CompressedBitmap> dim_compressed;
  std::vector<std::unique_ptr<HashTable>> dim_sets;
  std::vector<const uint32_t*> dim_offsets;  // fact's fk offsets per dim
  const bool compressed = options_.use_compressed_bitmaps;
  for (const DimJoin& dim : plan.dims) {
    if (use_bitmaps) {
      dim_bitmaps.push_back(
          pipeline::BuildDimBitmap(catalog_, dim, tile, num_threads, qctx));
      if (compressed) {
        dim_compressed.push_back(
            CompressedBitmap::Compress(dim_bitmaps.back()));
      }
      dim_sets.push_back(nullptr);
    } else {
      dim_bitmaps.emplace_back();
      dim_sets.push_back(pipeline::BuildDimKeySet(
          StrategyKind::kSwole, catalog_, dim, tile, num_threads, qctx));
    }
    const FkIndex* index =
        fact.GetFkIndex(dim.hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    dim_offsets.push_back(index->offsets());
  }

  std::vector<PositionalBitmap> reverse_bitmaps;
  for (const ReverseDim& rdim : plan.reverse_dims) {
    reverse_bitmaps.push_back(pipeline::BuildReverseBitmap(
        catalog_, rdim, fact.num_rows(), tile, num_threads, qctx));
  }

  std::vector<PositionalBitmap> clause_bitmaps;
  const uint32_t* disjunctive_offsets = nullptr;
  if (plan.disjunctive.has_value()) {
    clause_bitmaps = pipeline::BuildDisjunctiveBitmaps(
        catalog_, *plan.disjunctive, tile, num_threads, qctx);
    const FkIndex* index =
        fact.GetFkIndex(plan.disjunctive->hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    disjunctive_offsets = index->offsets();
  }

  std::vector<std::pair<ResolvedPath, ResolvedPath>> equality_paths;
  for (const PathEquality& eq : plan.path_equalities) {
    equality_paths.emplace_back(
        pipeline::ResolvePath(catalog_, fact, *plan.FindPath(eq.left_alias)),
        pipeline::ResolvePath(catalog_, fact,
                              *plan.FindPath(eq.right_alias)));
  }

  // Spill engagement (DESIGN.md §14): ExecuteGeneral's group updates are
  // all insert-mode (UpdateSel / UpdateMaskedValues / UpdateMaskedKeys),
  // so any unseeded group table may spill; group-seeded plans need their
  // key set resident. One manager is shared by every worker-local table.
  std::unique_ptr<exec::SpillManager> spill;
  std::unique_ptr<GroupTable> groups;
  const bool spillable = plan.HasGroupBy() &&
                         !plan.group_seed.has_value() && qctx != nullptr &&
                         qctx->spill_enabled();
  if (plan.HasGroupBy()) {
    // Under spill, skip the cardinality-sized pre-allocation: charging the
    // full estimate upfront would breach the budget before a single row is
    // aggregated. The table starts minimal and grows (or spills) on demand.
    groups = std::make_unique<GroupTable>(
        plan, spillable ? 16 : analysis.expected_groups, qctx);
    pipeline::SeedGroups(catalog_, plan, groups.get(), tile, num_threads,
                         qctx);
    if (spillable) {
      exec::SpillConfig spill_cfg = exec::SpillConfig::FromEnv();
      spill_cfg.enabled = true;
      spill = std::make_unique<exec::SpillManager>(
          spill_cfg, 1 + static_cast<int>(plan.aggs.size()), qctx);
      groups->EnableSpill(spill.get(),
                          pipeline::SpillSoftCap(qctx, num_threads));
    }
  }

  // Access merging (analyzed only under value masking) folds its
  // conjuncts into the first reads, so the mask filter is the residual.
  // Pulled string conjuncts are in neither: they run after every other
  // qualification below.
  const bool merging = !analysis.merges.empty();
  const Expr* mask_filter = merging ? analysis.residual_filter.get()
                                    : analysis.str_split.scan_filter.get();

  const bool mask_mode = analysis.agg_choice != AggChoice::kHybridFallback;

  // Access-merged aggregates are summed below, outside the program.
  const pipeline::AggProgram agg_program(
      catalog_, fact, plan,
      merging ? analysis.merged_aggs : std::vector<uint8_t>{});

  // Per-worker probe context: every scheduler participant aggregates into
  // a private state; worker 0 owns the primary (seeded) group table and
  // the others merge into it in worker order after the scan.
  struct ProbeCtx {
    VectorEvaluator eval;
    Scratch scratch;
    pipeline::AggLanes lanes;
    std::vector<int64_t> scalar_acc;
    std::vector<std::vector<int64_t>> merge_tmp;
    std::vector<uint8_t> disjunctive_mask;
    std::vector<uint8_t> clause_fact_mask;
    std::unique_ptr<GroupTable> owned_groups;
    GroupTable* groups = nullptr;

    ProbeCtx(const Table& fact_table, const pipeline::AggProgram& program,
             int64_t tile_size)
        : eval(fact_table, tile_size),
          scratch(tile_size),
          lanes(program, tile_size),
          disjunctive_mask(tile_size),
          clause_fact_mask(tile_size) {}
  };

  std::vector<std::unique_ptr<ProbeCtx>> ctxs(num_threads);
  for (int w = 0; w < num_threads; ++w) {
    auto ctx = std::make_unique<ProbeCtx>(fact, agg_program, tile);
    ctx->scalar_acc.resize(plan.aggs.size());
    pipeline::InitScalarAcc(plan, ctx->scalar_acc.data());
    ctx->merge_tmp.resize(analysis.merges.size());
    for (auto& buffer : ctx->merge_tmp) buffer.resize(tile);
    if (plan.HasGroupBy()) {
      if (w == 0) {
        ctx->groups = groups.get();
      } else {
        // Insert-mode updates: workers start empty (the ctor provisions
        // the throwaway entry); seeds stay in the primary only.
        ctx->owned_groups = std::make_unique<GroupTable>(
            plan, spill != nullptr ? 16 : analysis.expected_groups, qctx);
        if (spill != nullptr) {
          ctx->owned_groups->EnableSpill(
              spill.get(), pipeline::SpillSoftCap(qctx, num_threads));
        }
        ctx->groups = ctx->owned_groups.get();
      }
    }
    ctxs[w] = std::move(ctx);
  }

  auto process_tile = [&](ProbeCtx& ctx, int64_t start, int64_t len) {
    VectorEvaluator& eval = ctx.eval;
    Scratch& scratch = ctx.scratch;
    pipeline::AggLanes& lanes = ctx.lanes;
    std::vector<int64_t>& scalar_acc = ctx.scalar_acc;
    std::vector<std::vector<int64_t>>& merge_tmp = ctx.merge_tmp;
    std::vector<uint8_t>& disjunctive_mask = ctx.disjunctive_mask;
    std::vector<uint8_t>& clause_fact_mask = ctx.clause_fact_mask;
    GroupTable* groups = ctx.groups;

    if (mask_mode) {
      // ---- Predicate-pullup pipeline: everything stays a byte mask ----
      uint8_t* cmp = scratch.cmp.data();
      pipeline::FilterToMask(&eval, mask_filter, start, len, cmp);

      for (size_t d = 0; d < plan.dims.size(); ++d) {
        if (use_bitmaps && compressed) {
          const uint32_t* offs = dim_offsets[d] + start;
          const CompressedBitmap& bm = dim_compressed[d];
          for (int64_t j = 0; j < len; ++j) {
            cmp[j] &= static_cast<uint8_t>(bm.Test(offs[j]));
          }
        } else if (use_bitmaps) {
          const uint32_t* offs = dim_offsets[d] + start;
          const PositionalBitmap& bm = dim_bitmaps[d];
          for (int64_t j = 0; j < len; ++j) {
            cmp[j] &= static_cast<uint8_t>(bm.Test(offs[j]));
          }
        } else {
          const Column& fk = fact.ColumnRef(plan.dims[d].hop.fk_column);
          DispatchPhysical(fk.type().physical, [&]<typename T>() {
            kernels::Widen<T>(fk.Data<T>() + start, len, scratch.keys.data());
          });
          dim_sets[d]->ContainsBatch(scratch.keys.data(),
                                     static_cast<int32_t>(len),
                                     scratch.cmp2.data(), /*prefetch=*/false);
          kernels::AndBytes(cmp, scratch.cmp2.data(), len);
        }
      }

      for (size_t r = 0; r < reverse_bitmaps.size(); ++r) {
        const PositionalBitmap& bm = reverse_bitmaps[r];
        for (int64_t j = 0; j < len; ++j) {
          cmp[j] &= static_cast<uint8_t>(bm.Test(start + j));
        }
      }

      if (plan.disjunctive.has_value()) {
        std::memset(disjunctive_mask.data(), 0, len);
        const uint32_t* offs = disjunctive_offsets + start;
        for (size_t c = 0; c < clause_bitmaps.size(); ++c) {
          pipeline::FilterToMask(
              &eval, plan.disjunctive->clauses[c].fact_filter.get(), start,
              len, clause_fact_mask.data());
          const PositionalBitmap& bm = clause_bitmaps[c];
          for (int64_t j = 0; j < len; ++j) {
            disjunctive_mask[j] |= static_cast<uint8_t>(
                clause_fact_mask[j] & bm.Test(offs[j]));
          }
        }
        kernels::AndBytes(cmp, disjunctive_mask.data(), len);
      }

      for (const auto& [left, right] : equality_paths) {
        pipeline::GatherPathAll(left, start, len, &scratch,
                                scratch.vals.data());
        pipeline::GatherPathAll(right, start, len, &scratch,
                                scratch.vals2.data());
        for (int64_t j = 0; j < len; ++j) {
          cmp[j] &= static_cast<uint8_t>(scratch.vals[j] ==
                                         scratch.vals2[j]);
        }
      }

      // Pulled raw-string predicates run last: only lanes that survived
      // every other qualification pay the arena touch + match (the guarded
      // kernel skips zero lanes), which is exactly the access pattern the
      // pulled-cost formula prices.
      for (const Expr* pred : analysis.str_split.pulled) {
        const Column& col = fact.ColumnRef(pred->children[0]->column);
        const StringColumn& text = *col.text();
        kernels::StrLikeTileAnd(text.bytes(), text.offsets(), start, len,
                                eval.CompiledLikeFor(*pred), cmp);
      }

      if (!plan.HasGroupBy()) {
        // Access-merged aggregates: tmp = col * (col OP lit), one read of
        // the shared attribute (Fig. 5 bottom). A product can merge one or
        // both factors (Fig. 10a/10b).
        for (size_t m = 0; m < analysis.merges.size(); ++m) {
          const MergeCandidate& merge = analysis.merges[m];
          DispatchPhysical(
              merge.column->type().physical, [&]<typename T>() {
                kernels::CompareLitMaskIntoTmp<T>(
                    merge.op, merge.column->Data<T>() + start, merge.literal,
                    len, merge_tmp[m].data());
              });
        }
        for (size_t a = 0; a < plan.aggs.size(); ++a) {
          if (!analysis.merged_aggs[a]) continue;
          const MergeCandidate* lhs_merge = nullptr;
          const MergeCandidate* rhs_merge = nullptr;
          const int64_t* lhs_tmp = nullptr;
          const int64_t* rhs_tmp = nullptr;
          for (size_t m = 0; m < analysis.merges.size(); ++m) {
            if (analysis.merges[m].agg_index != a) continue;
            if (analysis.merges[m].column_is_lhs) {
              lhs_merge = &analysis.merges[m];
              lhs_tmp = merge_tmp[m].data();
            } else {
              rhs_merge = &analysis.merges[m];
              rhs_tmp = merge_tmp[m].data();
            }
          }
          const AggShape& shape = agg_program.shapes[a];
          int64_t partial = 0;
          if (shape.kind == AggShape::Kind::kCol) {
            partial =
                kernels::SumMasked<int64_t>(lhs_tmp, cmp, len);
          } else if (lhs_merge != nullptr && rhs_merge != nullptr) {
            partial = kernels::SumProductMasked<int64_t, int64_t>(
                lhs_tmp, rhs_tmp, cmp, len);
          } else {
            const int64_t* tmp = lhs_merge != nullptr ? lhs_tmp : rhs_tmp;
            const Column* other =
                lhs_merge != nullptr ? shape.b : shape.a;
            partial = DispatchPhysical(
                other->type().physical, [&]<typename T>() {
                  return kernels::SumProductMasked<T, int64_t>(
                      other->Data<T>() + start, tmp, cmp, len);
                });
          }
          scalar_acc[a] += partial;
        }
        pipeline::AccumulateScalarMasked(agg_program, &lanes, start, cmp,
                                         len, &scratch, scalar_acc.data());
        return;
      }

      // Grouped: keys and inputs for every lane (pullup), masked update.
      // The mask is final, so the rows it keeps keep the division check.
      lanes.ComputeAll(start, len, cmp, &scratch);
      if (analysis.agg_choice == AggChoice::kKeyMasking) {
        MaskKeys(lanes.keys(), cmp, len, scratch.keys.data());
        groups->UpdateMaskedKeys(scratch.keys.data(), lanes.values(), len);
      } else {
        groups->UpdateMaskedValues(lanes.keys(), lanes.values(), cmp, len);
      }
      return;
    }

    // ---- Hybrid-fallback pipeline (selection vectors + bitmap probes) ----
    int32_t n = pipeline::FilterToSelVec(
        StrategyKind::kSwole, &eval, fact,
        analysis.str_split.scan_filter.get(), start, len, &scratch,
        scratch.sel.data());
    for (size_t d = 0; d < plan.dims.size() && n > 0; ++d) {
      if (use_bitmaps && compressed) {
        const uint32_t* offs = dim_offsets[d] + start;
        const CompressedBitmap& bm = dim_compressed[d];
        for (int32_t k = 0; k < n; ++k) {
          scratch.cmp2[k] =
              static_cast<uint8_t>(bm.Test(offs[scratch.sel[k]]));
        }
      } else if (use_bitmaps) {
        const uint32_t* offs = dim_offsets[d] + start;
        const PositionalBitmap& bm = dim_bitmaps[d];
        for (int32_t k = 0; k < n; ++k) {
          scratch.cmp2[k] =
              static_cast<uint8_t>(bm.Test(offs[scratch.sel[k]]));
        }
      } else {
        const Column& fk = fact.ColumnRef(plan.dims[d].hop.fk_column);
        DispatchPhysical(fk.type().physical, [&]<typename T>() {
          kernels::Gather<T>(fk.Data<T>() + start, scratch.sel.data(), n,
                             scratch.keys.data());
        });
        dim_sets[d]->ContainsBatch(scratch.keys.data(), n,
                                   scratch.cmp2.data(), /*prefetch=*/false);
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    for (size_t r = 0; r < reverse_bitmaps.size() && n > 0; ++r) {
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] = static_cast<uint8_t>(
            reverse_bitmaps[r].Test(start + scratch.sel[k]));
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    if (plan.disjunctive.has_value() && n > 0) {
      const uint32_t* offs = disjunctive_offsets + start;
      // Clause fact filters prepass over the tile (branch-free, cheap);
      // bitmap probes only for the lanes that survived the fact filter.
      std::memset(scratch.cmp2.data(), 0, n);
      for (size_t c = 0; c < clause_bitmaps.size(); ++c) {
        pipeline::FilterToMask(
            &eval, plan.disjunctive->clauses[c].fact_filter.get(), start,
            len, clause_fact_mask.data());
        const PositionalBitmap& bm = clause_bitmaps[c];
        for (int32_t k = 0; k < n; ++k) {
          scratch.cmp2[k] |= static_cast<uint8_t>(
              clause_fact_mask[scratch.sel[k]] &
              bm.Test(offs[scratch.sel[k]]));
        }
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    for (const auto& [left, right] : equality_paths) {
      if (n == 0) break;
      pipeline::GatherPathSel(left, start, scratch.sel.data(), n, &scratch,
                              scratch.vals.data());
      pipeline::GatherPathSel(right, start, scratch.sel.data(), n, &scratch,
                              scratch.vals2.data());
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] = scratch.vals[k] == scratch.vals2[k] ? 1 : 0;
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    // Pulled raw-string predicates: per-surviving-lane match (sel-vector
    // form of the pulled access pattern — a random arena touch per lane).
    for (const Expr* pred : analysis.str_split.pulled) {
      if (n == 0) break;
      const Column& col = fact.ColumnRef(pred->children[0]->column);
      const StringColumn& text = *col.text();
      const simd::CompiledLike& lk = eval.CompiledLikeFor(*pred);
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] = static_cast<uint8_t>(kernels::StrLikeOne(
            text.bytes(), text.offsets(), start + scratch.sel[k], lk));
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    if (n == 0) return;

    if (!plan.HasGroupBy()) {
      pipeline::AccumulateScalarSel(agg_program, &lanes, start,
                                    scratch.sel.data(), n, &scratch,
                                    scalar_acc.data());
      return;
    }
    lanes.ComputeSel(start, scratch.sel.data(), n, /*lanes_kept=*/true,
                     &scratch);
    groups->UpdateSel(lanes.keys(), lanes.values(), n, false);
  };

  phase.reset();  // build

  phase.emplace(trace, "probe");
  exec::MorselStats probe_stats = exec::ParallelMorsels(
      qctx, num_threads, fact.num_rows(), exec::DefaultMorselSize(tile),
      [&](int worker, int64_t begin, int64_t end) {
        ProbeCtx& ctx = *ctxs[worker];
        for (int64_t start = begin; start < end; start += tile) {
          process_tile(ctx, start, std::min(tile, end - start));
        }
      });
  phase->Attr("morsels", probe_stats.morsels);
  phase->Attr("steals", probe_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(probe_stats.workers));
  phase->Attr("width", StringFormat("%.1fB", analysis.avg_read_width));
  phase.reset();  // probe
  SWOLE_RETURN_NOT_OK(probe_stats.status);

  phase.emplace(trace, "merge");
  // The probe was the build structures' last reader: free them before the
  // merge, so merge and extract run without them resident.
  dim_bitmaps.clear();
  dim_compressed.clear();
  dim_sets.clear();
  reverse_bitmaps.clear();
  clause_bitmaps.clear();
  // Ordered merge of worker-local states (DESIGN.md §7).
  for (int w = 1; w < num_threads; ++w) {
    pipeline::MergeScalarAcc(plan, ctxs[0]->scalar_acc.data(),
                             ctxs[w]->scalar_acc.data());
    if (plan.HasGroupBy()) {
      groups->MergeFrom(*ctxs[w]->groups);
      // Release merged worker tables eagerly: under spill the destination
      // may need budget headroom the unmerged tables are still holding.
      ctxs[w]->groups = nullptr;
      ctxs[w]->owned_groups.reset();
    }
  }
  phase.reset();  // merge

  phase.emplace(trace, "extract");
  if (!plan.HasGroupBy()) {
    return pipeline::MakeScalarResult(plan, ctxs[0]->scalar_acc.data());
  }
  if (spill != nullptr && spill->spilled()) {
    return groups->ExtractSpilled(plan, num_threads);
  }
  return groups->Extract(plan, plan.group_seed.has_value());
}

// ---------------------------------------------------------------------------
// Groupjoin path (group key == join key): probe in join mode with VM/KM.
// ---------------------------------------------------------------------------

Result<QueryResult> SwoleStrategy::ExecuteGroupjoin(
    const QueryPlan& plan, const PlanAnalysis& analysis,
    exec::QueryContext* qctx) {
  const int64_t tile = options_.tile_size;
  const int num_threads = exec::ResolveNumThreads(options_.num_threads);
  const Table& fact = catalog_.TableRef(plan.fact_table);

  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  std::optional<obs::SpanScope> phase;
  phase.emplace(trace, "build");

  const DimJoin& gdim = plan.dims[analysis.groupjoin_dim];

  // The groupjoin table holds the qualifying dim keys (local filter plus
  // child qualification through positional bitmaps) and any seeds. The dim
  // is qualified morsel-parallel into runs, which size the table and fill
  // it with a shared insert; a seed covering the dim's pk already holds
  // every such key.
  std::optional<pipeline::KeyRuns> runs;
  if (!pipeline::GroupSeedCoversDim(plan, gdim)) {
    runs.emplace(pipeline::CollectDimKeyRunsPositional(
        catalog_, gdim, tile, num_threads, qctx, "group_table"));
  }
  GroupTable groups(plan,
                    pipeline::GroupjoinTableKeys(catalog_, plan,
                                                 runs ? &*runs : nullptr),
                    qctx);
  pipeline::SeedGroups(catalog_, plan, &groups, tile, num_threads, qctx);
  if (runs.has_value()) {
    runs->InsertInto(&groups.table(),
                     catalog_.TableRef(gdim.hop.to_table).num_rows(),
                     /*prefetch=*/true, num_threads, tile);
    runs.reset();
  }

  // Other dims qualify the fact through bitmaps.
  std::vector<PositionalBitmap> other_bitmaps;
  std::vector<const uint32_t*> other_offsets;
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (static_cast<int>(d) == analysis.groupjoin_dim) continue;
    other_bitmaps.push_back(pipeline::BuildDimBitmap(
        catalog_, plan.dims[d], tile, num_threads, qctx));
    const FkIndex* index =
        fact.GetFkIndex(plan.dims[d].hop.fk_column).ValueOr(nullptr);
    SWOLE_CHECK(index != nullptr);
    other_offsets.push_back(index->offsets());
  }

  // The key (the groupjoin fk) and the aggregate inputs.
  const pipeline::AggProgram agg_program(catalog_, fact, plan);
  const bool hybrid_fallback =
      analysis.agg_choice == AggChoice::kHybridFallback;

  // Per-worker probe context. The groupjoin probe is join-mode (Find, no
  // insert), so every worker's table must carry the seeded key set:
  // workers > 0 get a keys-only clone of the primary.
  struct ProbeCtx {
    VectorEvaluator eval;
    Scratch scratch;
    pipeline::AggLanes lanes;
    std::unique_ptr<GroupTable> owned_groups;
    GroupTable* groups = nullptr;

    ProbeCtx(const Table& fact_table, const pipeline::AggProgram& program,
             int64_t tile_size)
        : eval(fact_table, tile_size),
          scratch(tile_size),
          lanes(program, tile_size) {}
  };

  std::vector<std::unique_ptr<ProbeCtx>> ctxs(num_threads);
  for (int w = 0; w < num_threads; ++w) {
    auto ctx = std::make_unique<ProbeCtx>(fact, agg_program, tile);
    if (w == 0) {
      ctx->groups = &groups;
    } else {
      ctx->owned_groups = groups.CloneKeysOnly();
      ctx->groups = ctx->owned_groups.get();
    }
    ctxs[w] = std::move(ctx);
  }

  auto process_tile = [&](ProbeCtx& ctx, int64_t start, int64_t len) {
    VectorEvaluator& eval = ctx.eval;
    Scratch& scratch = ctx.scratch;
    pipeline::AggLanes& lanes = ctx.lanes;
    GroupTable& groups = *ctx.groups;

    // A lane whose key misses the groupjoin table is discarded by the
    // update, after its inputs are computed: no lane is final here.
    if (!hybrid_fallback) {
      uint8_t* cmp = scratch.cmp.data();
      pipeline::FilterToMask(&eval, analysis.str_split.scan_filter.get(),
                             start, len, cmp);
      for (size_t d = 0; d < other_bitmaps.size(); ++d) {
        const uint32_t* offs = other_offsets[d] + start;
        for (int64_t j = 0; j < len; ++j) {
          cmp[j] &= static_cast<uint8_t>(other_bitmaps[d].Test(offs[j]));
        }
      }
      // Pulled raw-string predicates: guarded match over surviving lanes.
      for (const Expr* pred : analysis.str_split.pulled) {
        const Column& col = fact.ColumnRef(pred->children[0]->column);
        const StringColumn& text = *col.text();
        kernels::StrLikeTileAnd(text.bytes(), text.offsets(), start, len,
                                eval.CompiledLikeFor(*pred), cmp);
      }
      lanes.ComputeAll(start, len, /*keep=*/nullptr, &scratch);
      if (analysis.agg_choice == AggChoice::kKeyMasking) {
        MaskKeys(lanes.keys(), cmp, len, scratch.keys.data());
        groups.UpdateJoinMasked(scratch.keys.data(), lanes.values(), nullptr,
                                len);
      } else {
        groups.UpdateJoinMasked(lanes.keys(), lanes.values(), cmp, len);
      }
      return;
    }

    int32_t n = pipeline::FilterToSelVec(
        StrategyKind::kSwole, &eval, fact,
        analysis.str_split.scan_filter.get(), start, len, &scratch,
        scratch.sel.data());
    for (size_t d = 0; d < other_bitmaps.size() && n > 0; ++d) {
      const uint32_t* offs = other_offsets[d] + start;
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] =
            static_cast<uint8_t>(other_bitmaps[d].Test(offs[scratch.sel[k]]));
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    for (const Expr* pred : analysis.str_split.pulled) {
      if (n == 0) break;
      const Column& col = fact.ColumnRef(pred->children[0]->column);
      const StringColumn& text = *col.text();
      const simd::CompiledLike& lk = eval.CompiledLikeFor(*pred);
      for (int32_t k = 0; k < n; ++k) {
        scratch.cmp2[k] = static_cast<uint8_t>(kernels::StrLikeOne(
            text.bytes(), text.offsets(), start + scratch.sel[k], lk));
      }
      n = pipeline::CompactSel(StrategyKind::kSwole, scratch.sel.data(),
                               scratch.cmp2.data(), n);
    }
    if (n == 0) return;
    lanes.ComputeSel(start, scratch.sel.data(), n, /*lanes_kept=*/false,
                     &scratch);
    groups.UpdateJoinSel(lanes.keys(), lanes.values(), n, false);
  };

  phase.reset();  // build
  phase.emplace(trace, "probe");
  exec::MorselStats probe_stats = exec::ParallelMorsels(
      qctx, num_threads, fact.num_rows(), exec::DefaultMorselSize(tile),
      [&](int worker, int64_t begin, int64_t end) {
        ProbeCtx& ctx = *ctxs[worker];
        for (int64_t start = begin; start < end; start += tile) {
          process_tile(ctx, start, std::min(tile, end - start));
        }
      });
  phase->Attr("morsels", probe_stats.morsels);
  phase->Attr("steals", probe_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(probe_stats.workers));
  phase->Attr("width", StringFormat("%.1fB", analysis.avg_read_width));
  phase.reset();
  SWOLE_RETURN_NOT_OK(probe_stats.status);

  // Slot-wise merge of the worker-local join-mode states (DESIGN.md §7).
  // The probe was the other-dim bitmaps' last reader, and the worker tables
  // are released after the merge, so extract runs with neither resident.
  phase.emplace(trace, "merge");
  other_bitmaps.clear();
  std::vector<const GroupTable*> workers;
  for (int w = 1; w < num_threads; ++w) workers.push_back(ctxs[w]->groups);
  exec::MorselStats merge_stats =
      groups.MergeJoinSlots(workers, num_threads, tile);
  for (int w = 1; w < num_threads; ++w) ctxs[w]->owned_groups.reset();
  phase->Attr("morsels", merge_stats.morsels);
  phase->Attr("steals", merge_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(merge_stats.workers));
  phase.reset();
  SWOLE_RETURN_NOT_OK(merge_stats.status);

  phase.emplace(trace, "extract");
  return groups.Extract(plan, plan.group_seed.has_value());
}

// ---------------------------------------------------------------------------
// Eager aggregation (§III-E): aggregate the fact unconditionally by the join
// key, then delete the keys whose dim row does NOT qualify (inverted
// predicate).
// ---------------------------------------------------------------------------

Result<QueryResult> SwoleStrategy::ExecuteEagerAggregation(
    const QueryPlan& plan, const PlanAnalysis& analysis,
    exec::QueryContext* qctx) {
  const int64_t tile = options_.tile_size;
  const int num_threads = exec::ResolveNumThreads(options_.num_threads);
  const Table& fact = catalog_.TableRef(plan.fact_table);
  Scratch scratch(tile);  // phase-2 dim-scan scratch (caller thread only)

  obs::QueryTrace* trace = qctx != nullptr ? qctx->trace() : nullptr;
  std::optional<obs::SpanScope> phase;

  const DimJoin& dim = plan.dims[0];
  const Table& dim_table = catalog_.TableRef(dim.hop.to_table);

  // The key (the join fk) and the aggregate inputs. Phase 2 deletes keys,
  // so no phase-1 lane is final.
  const pipeline::AggProgram agg_program(catalog_, fact, plan);

  GroupTable groups(plan, dim_table.num_rows(), qctx);

  // EA keeps the FULL fact filter (string conjuncts included): its phase-1
  // aggregation is unconditional by construction, so there is no "after
  // the joins" point for a pulled predicate to run at — the mask applied
  // during aggregation is the only qualification the fact side gets.
  //
  // Sub-choice for handling the fact's own filter during the unconditional
  // aggregation ("min(Hybrid, VM, KM)" in the EA formula).
  AggChoice sub_choice = AggChoice::kValueMasking;
  if (plan.fact_filter != nullptr) {
    AggWorkload w;
    w.rows = static_cast<double>(fact.num_rows());
    w.selectivity = analysis.sigma_fact;
    w.comp_ns = analysis.comp_ns;
    w.group_ht_bytes = EstimateGroupHtBytes(
        dim_table.num_rows(), static_cast<int>(plan.aggs.size()));
    w.num_read_columns = analysis.num_read_columns;
    w.avg_read_width = analysis.avg_read_width;
    sub_choice = ChooseAggregation(profile_, w);
  }

  // Phase 1: unconditional aggregation of the fact by the join key.
  // Parallel: every worker aggregates morsels into its own group table
  // (insert-mode updates), merged into `groups` in worker order afterwards.
  struct EaCtx {
    VectorEvaluator eval;
    Scratch scratch;
    pipeline::AggLanes lanes;
    std::unique_ptr<GroupTable> owned_groups;
    GroupTable* groups = nullptr;
    EaCtx(const Table& fact, const pipeline::AggProgram& program,
          int64_t tile)
        : eval(fact, tile), scratch(tile), lanes(program, tile) {}
  };
  std::vector<std::unique_ptr<EaCtx>> ctxs(num_threads);
  for (int w = 0; w < num_threads; ++w) {
    ctxs[w] = std::make_unique<EaCtx>(fact, agg_program, tile);
    EaCtx& ctx = *ctxs[w];
    if (w == 0) {
      ctx.groups = &groups;
    } else {
      ctx.owned_groups =
          std::make_unique<GroupTable>(plan, dim_table.num_rows(), qctx);
      ctx.groups = ctx.owned_groups.get();
    }
  }

  auto process_tile = [&](EaCtx& ctx, int64_t start, int64_t len) {
    VectorEvaluator& eval = ctx.eval;
    Scratch& scratch = ctx.scratch;
    pipeline::AggLanes& lanes = ctx.lanes;
    GroupTable& groups = *ctx.groups;

    if (plan.fact_filter != nullptr &&
        sub_choice == AggChoice::kHybridFallback) {
      int32_t n = pipeline::FilterToSelVec(StrategyKind::kSwole, &eval, fact,
                                           plan.fact_filter.get(), start,
                                           len, &scratch,
                                           scratch.sel.data());
      if (n == 0) return;
      lanes.ComputeSel(start, scratch.sel.data(), n, /*lanes_kept=*/false,
                       &scratch);
      groups.UpdateSel(lanes.keys(), lanes.values(), n, false);
      return;
    }

    lanes.ComputeAll(start, len, /*keep=*/nullptr, &scratch);
    if (plan.fact_filter == nullptr) {
      groups.UpdateMaskedKeys(lanes.keys(), lanes.values(), len);  // unmasked
    } else {
      pipeline::FilterToMask(&eval, plan.fact_filter.get(), start, len,
                             scratch.cmp.data());
      if (sub_choice == AggChoice::kKeyMasking) {
        MaskKeys(lanes.keys(), scratch.cmp.data(), len, scratch.keys.data());
        groups.UpdateMaskedKeys(scratch.keys.data(), lanes.values(), len);
      } else {
        groups.UpdateMaskedValues(lanes.keys(), lanes.values(),
                                  scratch.cmp.data(), len);
      }
    }
  };

  phase.emplace(trace, "aggregate");
  exec::MorselStats agg_stats = exec::ParallelMorsels(
      qctx, num_threads, fact.num_rows(), exec::DefaultMorselSize(tile),
      [&](int worker, int64_t begin, int64_t end) {
        EaCtx& ctx = *ctxs[worker];
        for (int64_t start = begin; start < end; start += tile) {
          process_tile(ctx, start, std::min(tile, end - start));
        }
      });
  phase->Attr("morsels", agg_stats.morsels);
  phase->Attr("steals", agg_stats.steals);
  phase->Attr("workers", static_cast<int64_t>(agg_stats.workers));
  phase->Attr("width", StringFormat("%.1fB", analysis.avg_read_width));
  phase.reset();
  SWOLE_RETURN_NOT_OK(agg_stats.status);
  phase.emplace(trace, "merge");
  for (int w = 1; w < num_threads; ++w) {
    groups.MergeFrom(*ctxs[w]->groups);
    ctxs[w]->groups = nullptr;
    ctxs[w]->owned_groups.reset();
  }
  phase.reset();

  // Phase 2: scan the dim with the predicate inverted; delete keys of
  // non-qualifying dim rows from the aggregate table.
  phase.emplace(trace, "delete");
  {
    std::vector<PositionalBitmap> child_bitmaps;
    std::vector<const uint32_t*> child_offsets;
    for (const DimJoin& child : dim.children) {
      child_bitmaps.push_back(
          pipeline::BuildDimBitmap(catalog_, child, tile, num_threads, qctx));
      const FkIndex* index =
          dim_table.GetFkIndex(child.hop.fk_column).ValueOr(nullptr);
      SWOLE_CHECK(index != nullptr);
      child_offsets.push_back(index->offsets());
    }
    VectorEvaluator dim_eval(dim_table, tile);
    const Column& pk = dim_table.ColumnRef(dim.hop.to_pk_column);
    for (int64_t start = 0; start < dim_table.num_rows(); start += tile) {
      if (qctx != nullptr) exec::ThrowIfError(qctx->CheckLive());
      int64_t len = std::min(tile, dim_table.num_rows() - start);
      pipeline::FilterToMask(&dim_eval, dim.filter.get(), start, len,
                             scratch.cmp.data());
      for (size_t c = 0; c < child_bitmaps.size(); ++c) {
        const uint32_t* offs = child_offsets[c] + start;
        for (int64_t j = 0; j < len; ++j) {
          scratch.cmp[j] &=
              static_cast<uint8_t>(child_bitmaps[c].Test(offs[j]));
        }
      }
      DispatchPhysical(pk.type().physical, [&]<typename T>() {
        const T* data = pk.Data<T>() + start;
        for (int64_t j = 0; j < len; ++j) {
          if (!scratch.cmp[j]) {
            groups.EraseKey(static_cast<int64_t>(data[j]));
          }
        }
      });
    }
  }
  phase.reset();

  phase.emplace(trace, "extract");
  return groups.Extract(plan, /*keep_untouched=*/false);
}

std::unique_ptr<SwoleStrategy> MakeSwoleStrategy(const Catalog& catalog,
                                                 StrategyOptions options) {
  return std::make_unique<SwoleStrategy>(catalog, options);
}

std::unique_ptr<Strategy> MakeSwoleStrategyImpl(const Catalog& catalog,
                                                StrategyOptions options) {
  return std::make_unique<SwoleStrategy>(catalog, options);
}

}  // namespace swole

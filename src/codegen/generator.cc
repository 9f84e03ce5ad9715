#include "codegen/generator.h"

#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "cost/string_placement.h"
#include "storage/table.h"

namespace swole::codegen {

namespace {

// Indented source writer.
class CodeWriter {
 public:
  void Line(const std::string& text) {
    if (!text.empty()) out_.append(indent_ * 2, ' ');
    out_ += text;
    out_ += '\n';
  }
  void Open(const std::string& text) {
    Line(text);
    ++indent_;
  }
  void Close(const std::string& text = "}") {
    --indent_;
    Line(text);
  }
  std::string&& Take() { return std::move(out_); }

 private:
  std::string out_;
  int indent_ = 0;
};

// Renders `s` as a C string literal for the generated unit. Quotes,
// backslashes, and non-printable bytes use 3-digit octal escapes — hex
// escapes are greedy ("\x6C" followed by 'a' reads as \x6CA), octal with a
// fixed width never is — so arbitrary LIKE patterns (embedded NUL,
// non-ASCII bytes) round-trip exactly.
std::string CStringLiteral(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c >= 0x20 && c < 0x7F) {
      out += static_cast<char>(c);
    } else {
      out += StringFormat("\\%03o", static_cast<int>(c));
    }
  }
  out += '"';
  return out;
}

// Tracks column slot assignment per (table, column).
class SlotTable {
 public:
  explicit SlotTable(const Catalog& catalog) : catalog_(catalog) {}

  // Variable name of a column's typed pointer, registering it on first use.
  std::string Column(const std::string& table, const std::string& column) {
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].table == table && slots_[s].column == column) {
        return StringFormat("c%d", static_cast<int>(s));
      }
    }
    ColumnSlot slot;
    slot.table = table;
    slot.column = column;
    slot.physical =
        catalog_.TableRef(table).ColumnRef(column).type().physical;
    slots_.push_back(slot);
    return StringFormat("c%d", static_cast<int>(slots_.size() - 1));
  }

  // Variable name of a table's row count, registering it on first use.
  std::string Rows(const std::string& table) {
    for (size_t s = 0; s < tables_.size(); ++s) {
      if (tables_[s] == table) {
        return StringFormat("rows%d", static_cast<int>(s));
      }
    }
    tables_.push_back(table);
    return StringFormat("rows%d", static_cast<int>(tables_.size() - 1));
  }

  // Variable name of a dim's fk offset array (positional joins).
  // `ref_table` is the referenced primary-key table, recorded so Run can
  // bounds-check the index against the bound catalog.
  std::string FkOffsets(const std::string& table, const std::string& fk,
                        const std::string& ref_table) {
    for (size_t s = 0; s < fk_tables_.size(); ++s) {
      if (fk_tables_[s] == table && fk_columns_[s] == fk) {
        return StringFormat("offs%d", static_cast<int>(s));
      }
    }
    fk_tables_.push_back(table);
    fk_columns_.push_back(fk);
    fk_ref_tables_.push_back(ref_table);
    return StringFormat("offs%d", static_cast<int>(fk_tables_.size() - 1));
  }

  // Slot index of a raw-text column's (arena, offsets) pointer pair,
  // registering it on first use. Declared as tb%d / to%d.
  int Text(const std::string& table, const std::string& column) {
    for (size_t s = 0; s < text_tables_.size(); ++s) {
      if (text_tables_[s] == table && text_columns_[s] == column) {
        return static_cast<int>(s);
      }
    }
    text_tables_.push_back(table);
    text_columns_.push_back(column);
    return static_cast<int>(text_tables_.size() - 1);
  }

  // Index of the file-scope compiled-LIKE static for (pattern, negated),
  // registering it on first use. Declared as lk%d.
  int Like(const Expr& e) {
    for (size_t s = 0; s < like_patterns_.size(); ++s) {
      if (like_patterns_[s] == e.like_pattern &&
          like_negated_[s] == e.like_negated) {
        return static_cast<int>(s);
      }
    }
    like_patterns_.push_back(e.like_pattern);
    like_negated_.push_back(e.like_negated);
    return static_cast<int>(like_patterns_.size() - 1);
  }

  void EmitDeclarations(CodeWriter* w) const {
    for (size_t s = 0; s < slots_.size(); ++s) {
      w->Line(StringFormat(
          "const %s* __restrict__ c%d = static_cast<const %s*>("
          "io->columns[%d]);",
          PhysicalTypeCName(slots_[s].physical), static_cast<int>(s),
          PhysicalTypeCName(slots_[s].physical), static_cast<int>(s)));
    }
    for (size_t s = 0; s < tables_.size(); ++s) {
      w->Line(StringFormat("const int64_t rows%d = io->table_rows[%d];",
                           static_cast<int>(s), static_cast<int>(s)));
    }
    for (size_t s = 0; s < fk_tables_.size(); ++s) {
      w->Line(StringFormat(
          "const uint32_t* __restrict__ offs%d = io->fk_offsets[%d];",
          static_cast<int>(s), static_cast<int>(s)));
    }
    for (size_t s = 0; s < text_tables_.size(); ++s) {
      w->Line(StringFormat(
          "const uint8_t* __restrict__ tb%d = "
          "static_cast<const uint8_t*>(io->text_bytes[%d]);",
          static_cast<int>(s), static_cast<int>(s)));
      w->Line(StringFormat(
          "const uint32_t* __restrict__ to%d = io->text_offsets[%d];",
          static_cast<int>(s), static_cast<int>(s)));
    }
  }

  // File-scope compiled-LIKE statics. The pattern is passed with an
  // explicit length so embedded NUL bytes survive the round trip.
  void EmitLikeStatics(CodeWriter* w) const {
    for (size_t s = 0; s < like_patterns_.size(); ++s) {
      w->Line(StringFormat(
          "static const swole::simd::CompiledLike lk%d = "
          "swole::simd::CompileLike(std::string_view(%s, %d), %s);",
          static_cast<int>(s), CStringLiteral(like_patterns_[s]).c_str(),
          static_cast<int>(like_patterns_[s].size()),
          like_negated_[s] ? "true" : "false"));
    }
  }

  bool HasLikes() const { return !like_patterns_.empty(); }

  std::vector<ColumnSlot> slots_;
  std::vector<std::string> tables_;
  std::vector<std::string> fk_tables_;
  std::vector<std::string> fk_columns_;
  std::vector<std::string> fk_ref_tables_;
  std::vector<std::string> text_tables_;
  std::vector<std::string> text_columns_;
  std::vector<std::string> like_patterns_;
  std::vector<bool> like_negated_;

 private:
  const Catalog& catalog_;
};

enum class BoolStyle { kShortCircuit, kBranchFree };

// Checks that an expression over `table` stays inside the codegen subset.
// LIKE is supported only over raw-text (LogicalType::kText) columns, where
// it lowers to the compiled string kernels; dictionary LIKE stays with the
// interpreted engines.
Status CheckExprSupported(const Expr& expr, const Catalog& catalog,
                          const std::string& table) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
      return Status::OK();
    case ExprKind::kBinary:
    case ExprKind::kNot:
      for (const ExprPtr& child : expr.children) {
        SWOLE_RETURN_NOT_OK(CheckExprSupported(*child, catalog, table));
      }
      return Status::OK();
    case ExprKind::kInList:
      return CheckExprSupported(*expr.children[0], catalog, table);
    case ExprKind::kLike: {
      const Expr& target = *expr.children[0];
      if (target.kind == ExprKind::kColumnRef) {
        auto col = catalog.TableRef(table).GetColumn(target.column);
        if (col.ok() && (*col)->type().logical == LogicalType::kText) {
          return Status::OK();
        }
      }
      return Status::Unimplemented(StringFormat(
          "codegen: LIKE is only supported over raw-text columns: %s",
          expr.ToString().c_str()));
    }
    default:
      return Status::Unimplemented(StringFormat(
          "codegen: unsupported expression: %s", expr.ToString().c_str()));
  }
}

// Emits a C++ expression over table `table` at row expression `row`.
// Boolean subexpressions yield int 0/1.
std::string EmitExpr(const Expr& expr, const std::string& table,
                     const std::string& row, SlotTable* slots,
                     BoolStyle style) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return StringFormat("(int64_t)%s[%s]",
                          slots->Column(table, expr.column).c_str(),
                          row.c_str());
    case ExprKind::kLiteral:
      return StringFormat("INT64_C(%lld)",
                          static_cast<long long>(expr.literal));
    case ExprKind::kBinary: {
      std::string lhs =
          EmitExpr(*expr.children[0], table, row, slots, style);
      std::string rhs =
          EmitExpr(*expr.children[1], table, row, slots, style);
      const char* op = BinaryOpToken(expr.op);
      if (style == BoolStyle::kBranchFree) {
        if (expr.op == BinaryOp::kAnd) op = "&";
        if (expr.op == BinaryOp::kOr) op = "|";
      }
      if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
        // Logical operands are already 0/1 ints; parenthesize heavily.
        return StringFormat("((%s) %s (%s))", lhs.c_str(), op, rhs.c_str());
      }
      if (IsComparisonOp(expr.op)) {
        return StringFormat("((int64_t)((%s) %s (%s)))", lhs.c_str(), op,
                            rhs.c_str());
      }
      if (expr.op == BinaryOp::kDiv && style == BoolStyle::kBranchFree) {
        // Branch-free code divides lanes the plan may discard: a zero
        // divisor there must not trap.
        return StringFormat("((%s) / swole::kernels::NonzeroDivisor(%s))",
                            lhs.c_str(), rhs.c_str());
      }
      return StringFormat("((%s) %s (%s))", lhs.c_str(), op, rhs.c_str());
    }
    case ExprKind::kNot:
      return StringFormat(
          "((%s) == 0 ? INT64_C(1) : INT64_C(0))",
          EmitExpr(*expr.children[0], table, row, slots, style).c_str());
    case ExprKind::kLike: {
      // Compiled single-row LIKE over the raw arena; NOT LIKE is folded
      // into the compiled program, so no negation here.
      const int t = slots->Text(table, expr.children[0]->column);
      const int lk = slots->Like(expr);
      return StringFormat(
          "((int64_t)swole::kernels::StrLikeOne(tb%d, to%d, %s, lk%d))", t,
          t, row.c_str(), lk);
    }
    case ExprKind::kInList: {
      std::string value =
          EmitExpr(*expr.children[0], table, row, slots, style);
      std::string out = "(";
      const char* join =
          style == BoolStyle::kBranchFree ? " | " : " || ";
      for (size_t i = 0; i < expr.in_list.size(); ++i) {
        if (i > 0) out += join;
        out += StringFormat("(int64_t)((%s) == INT64_C(%lld))",
                            value.c_str(),
                            static_cast<long long>(expr.in_list[i]));
      }
      out += ")";
      return out;
    }
    default:
      SWOLE_CHECK(false) << "unreachable (checked by CheckExprSupported)";
      return "";
  }
}

Status CheckPlanSupported(const QueryPlan& plan, const Catalog& catalog) {
  if (!plan.reverse_dims.empty() || plan.disjunctive.has_value() ||
      !plan.paths.empty() || !plan.path_equalities.empty() ||
      plan.group_seed.has_value() || plan.histogram_of_agg0 ||
      !plan.group_by_path.empty()) {
    return Status::Unimplemented(
        "codegen: plan uses features outside the codegen subset "
        "(paths/reverse/disjunctive/seed/histogram)");
  }
  if (plan.fact_filter != nullptr) {
    SWOLE_RETURN_NOT_OK(
        CheckExprSupported(*plan.fact_filter, catalog, plan.fact_table));
  }
  for (const DimJoin& dim : plan.dims) {
    if (!dim.children.empty()) {
      return Status::Unimplemented("codegen: nested dimension joins");
    }
    if (dim.filter != nullptr) {
      SWOLE_RETURN_NOT_OK(
          CheckExprSupported(*dim.filter, catalog, dim.hop.to_table));
    }
  }
  if (plan.group_by != nullptr) {
    SWOLE_RETURN_NOT_OK(
        CheckExprSupported(*plan.group_by, catalog, plan.fact_table));
  }
  for (const AggSpec& agg : plan.aggs) {
    if (agg.kind != AggKind::kSum && agg.kind != AggKind::kCount) {
      return Status::Unimplemented("codegen: only sum/count aggregates");
    }
    if (!agg.path_factor.empty()) {
      return Status::Unimplemented("codegen: path factors");
    }
    if (agg.expr != nullptr) {
      SWOLE_RETURN_NOT_OK(
          CheckExprSupported(*agg.expr, catalog, plan.fact_table));
    }
  }
  return Status::OK();
}

// The per-aggregate value expression at fact row `row` ("1" for count).
std::string AggValueExpr(const AggSpec& agg, const std::string& fact,
                         const std::string& row, SlotTable* slots,
                         BoolStyle style) {
  if (agg.kind == AggKind::kCount) return "INT64_C(1)";
  return EmitExpr(*agg.expr, fact, row, slots, style);
}

// For value-masked scalar aggregation, simple shapes lower to the
// dispatched SIMD kernels (exec/simd.h) instead of a hand-rolled lane
// loop: count -> CountBytes, sum(col) -> SumMasked, sum(a*b) ->
// SumProductMasked. Returns the full `aggN += ...;` statement, or empty if
// the expression is outside the kernel shapes (it then stays in the
// per-lane loop; int64 wrap-around addition is associative, so the
// lane-reordered kernel reductions are bit-exact either way).
std::string MaskedAggKernelStmt(const AggSpec& agg, int index,
                                const std::string& fact, SlotTable* slots) {
  if (agg.kind == AggKind::kCount) {
    return StringFormat("agg%d += swole::kernels::CountBytes(cmp, len);",
                        index);
  }
  const Expr& e = *agg.expr;
  if (e.kind == ExprKind::kColumnRef) {
    return StringFormat(
        "agg%d += swole::kernels::SumMasked(%s + i, cmp, len);", index,
        slots->Column(fact, e.column).c_str());
  }
  if (e.kind == ExprKind::kBinary && e.op == BinaryOp::kMul &&
      e.children[0]->kind == ExprKind::kColumnRef &&
      e.children[1]->kind == ExprKind::kColumnRef) {
    std::string a = slots->Column(fact, e.children[0]->column);
    std::string b = slots->Column(fact, e.children[1]->column);
    return StringFormat(
        "agg%d += swole::kernels::SumProductMasked(%s + i, %s + i, cmp, "
        "len);",
        index, a.c_str(), b.c_str());
  }
  return std::string();
}

// Maps a comparison BinaryOp to the emitted kernels::CmpOp name;
// `swapped` mirrors the op for literal-OP-column leaves (lit < col is
// col > lit).
const char* CmpOpName(BinaryOp op, bool swapped) {
  switch (op) {
    case BinaryOp::kLt:
      return swapped ? "kGt" : "kLt";
    case BinaryOp::kLe:
      return swapped ? "kGe" : "kLe";
    case BinaryOp::kGt:
      return swapped ? "kLt" : "kGt";
    case BinaryOp::kGe:
      return swapped ? "kLe" : "kGe";
    case BinaryOp::kEq:
      return "kEq";
    default:
      return "kNe";
  }
}

// Splits the prepass predicate's And-tree into column-vs-literal
// comparison leaves — lowered to the width-native CompareLit kernel so the
// generated code reads the column at its physical width — top-level LIKE
// leaves — lowered to the StrLikeTile string kernel — and a residual
// evaluated in the branch-free lane loop. 0/1 bytes AND bitwise-identically
// in any order, so the decomposition cannot change the mask.
void SplitPrepassConjuncts(const Expr& e, std::vector<const Expr*>* simple,
                           std::vector<const Expr*>* likes,
                           std::vector<const Expr*>* rest) {
  if (e.kind == ExprKind::kBinary && e.op == BinaryOp::kAnd) {
    SplitPrepassConjuncts(*e.children[0], simple, likes, rest);
    SplitPrepassConjuncts(*e.children[1], simple, likes, rest);
    return;
  }
  if (e.kind == ExprKind::kBinary && IsComparisonOp(e.op) &&
      ((e.children[0]->kind == ExprKind::kColumnRef &&
        e.children[1]->kind == ExprKind::kLiteral) ||
       (e.children[0]->kind == ExprKind::kLiteral &&
        e.children[1]->kind == ExprKind::kColumnRef))) {
    simple->push_back(&e);
    return;
  }
  if (e.kind == ExprKind::kLike) {
    likes->push_back(&e);
    return;
  }
  rest->push_back(&e);
}

}  // namespace

Result<GeneratedKernel> GenerateKernel(const QueryPlan& plan,
                                       const Catalog& catalog,
                                       const GeneratorOptions& options) {
  SWOLE_RETURN_NOT_OK(ValidatePlan(plan, catalog));
  SWOLE_RETURN_NOT_OK(CheckPlanSupported(plan, catalog));
  if (options.strategy == StrategyKind::kRof) {
    return Status::Unimplemented(
        "codegen: ROF emission is not implemented (the paper's evaluation "
        "also excludes ROF); use the interpreted engine");
  }

  const bool grouped = plan.HasGroupBy();
  const int naggs = static_cast<int>(plan.aggs.size());
  const std::string& fact = plan.fact_table;
  const bool swole = options.strategy == StrategyKind::kSwole;
  const bool dc = options.strategy == StrategyKind::kDataCentric;
  // SWOLE falls back to the hybrid loop shape when the cost model says so.
  const bool masked =
      swole && options.agg_choice != AggChoice::kHybridFallback;
  const bool key_masked =
      masked && grouped && options.agg_choice == AggChoice::kKeyMasking;

  // Access-aware string placement: the same split every interpreted engine
  // honors (cost/string_placement.h). The scan evaluates scan_filter;
  // pulled conjuncts refine after every other qualification. Placement
  // changes the emitted source — and thus the kernel-cache key — but AND
  // commutes, so results are identical either way.
  const StringPredSplit str_split =
      DecideStringPlacement(plan, catalog, CostProfile::Default());
  const Expr* scan_filter = str_split.scan_filter.get();

  SlotTable slots(catalog);
  // Bodies of the build and morsel entry points; thread-state creation,
  // merge, and finish are assembled directly in the unit below.
  CodeWriter build;
  CodeWriter body;

  // Register the fact row-count slot first (the host binds table_rows in
  // slot order and reads the fact count for morsel dispatch).
  slots.Rows(fact);

  // Shared (build-phase) state: one field per dimension structure,
  // constructed with the dim row counts, read-only during the probe.
  std::vector<std::string> shared_fields;
  std::vector<std::string> shared_params;
  std::vector<std::string> shared_inits;
  std::vector<std::string> shared_args;  // row-count vars at the new-site
  // Governance hook attachments, emitted right after shared-state
  // construction (before the build loops fill the structures, so growth is
  // charged as it happens).
  std::vector<std::string> hook_attach;

  // ---- Build phase ----
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    const DimJoin& dim = plan.dims[d];
    const std::string& dt = dim.hop.to_table;
    std::string dim_rows = slots.Rows(dt);
    shared_params.push_back(StringFormat("int64_t r%d", static_cast<int>(d)));
    shared_args.push_back(dim_rows);
    if (swole) {
      // Positional bitmap, built sequentially with an unconditional store
      // of the predicate result (§III-D).
      shared_fields.push_back(StringFormat("swole::PositionalBitmap bm%d;",
                                           static_cast<int>(d)));
      shared_inits.push_back(
          StringFormat("bm%d(r%d)", static_cast<int>(d),
                       static_cast<int>(d)));
      hook_attach.push_back(StringFormat(
          "shared->bm%d.SetMemHook(io->mem_charge, io->governor, "
          "\"jit_dim_bitmap\");",
          static_cast<int>(d)));
      build.Line(StringFormat(
          "swole::PositionalBitmap& bm%d = shared->bm%d;",
          static_cast<int>(d), static_cast<int>(d)));
      build.Open(StringFormat("for (int64_t i = 0; i < %s; ++i) {",
                              dim_rows.c_str()));
      std::string pred =
          dim.filter != nullptr
              ? EmitExpr(*dim.filter, dt, "i", &slots,
                         BoolStyle::kBranchFree)
              : std::string("INT64_C(1)");
      build.Line(StringFormat("bm%d.SetTo(i, (%s) != 0);",
                              static_cast<int>(d), pred.c_str()));
      build.Close();
      slots.FkOffsets(fact, dim.hop.fk_column, dim.hop.to_table);
    } else {
      // Hash set of qualifying primary keys, probed by value.
      shared_fields.push_back(
          StringFormat("swole::HashTable dim%d;", static_cast<int>(d)));
      shared_inits.push_back(StringFormat("dim%d(0, r%d)",
                                          static_cast<int>(d),
                                          static_cast<int>(d)));
      hook_attach.push_back(StringFormat(
          "shared->dim%d.SetMemHook(io->mem_charge, io->governor, "
          "\"jit_dim_keyset\");",
          static_cast<int>(d)));
      build.Line(StringFormat("swole::HashTable& dim%d = shared->dim%d;",
                              static_cast<int>(d), static_cast<int>(d)));
      build.Open(StringFormat("for (int64_t i = 0; i < %s; ++i) {",
                              dim_rows.c_str()));
      if (dim.filter != nullptr) {
        build.Line(StringFormat(
            "if (!(%s)) continue;",
            EmitExpr(*dim.filter, dt, "i", &slots,
                     dc ? BoolStyle::kShortCircuit : BoolStyle::kBranchFree)
                .c_str()));
      }
      build.Line(StringFormat(
          "dim%d.GetOrInsert(%s);", static_cast<int>(d),
          EmitExpr(*Col(dim.hop.to_pk_column), dt, "i", &slots,
                   BoolStyle::kShortCircuit)
              .c_str()));
      build.Close();
    }
  }

  // ---- Per-thread probe state (aliases at the top of the morsel body) ----
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (swole) {
      body.Line(StringFormat(
          "const swole::PositionalBitmap& bm%d = shared->bm%d;",
          static_cast<int>(d), static_cast<int>(d)));
    } else {
      body.Line(StringFormat(
          "const swole::HashTable& dim%d = shared->dim%d;",
          static_cast<int>(d), static_cast<int>(d)));
    }
  }
  if (grouped) {
    body.Line("swole::HashTable& groups = state->groups;");
  } else {
    // Local accumulators, folded into the thread state after the loop.
    for (int a = 0; a < naggs; ++a) {
      body.Line(StringFormat("int64_t agg%d = 0;", a));
    }
  }

  // ---- Probe loop ----
  if (dc) {
    // Fig. 1 (top): one fused tuple-at-a-time loop with branching.
    body.Open("for (int64_t i = morsel_begin; i < morsel_end; ++i) {");
    if (scan_filter != nullptr) {
      body.Line(StringFormat(
          "if (!(%s)) continue;",
          EmitExpr(*scan_filter, fact, "i", &slots,
                   BoolStyle::kShortCircuit)
              .c_str()));
    }
    for (size_t d = 0; d < plan.dims.size(); ++d) {
      body.Line(StringFormat(
          "if (!dim%d.Contains(%s)) continue;", static_cast<int>(d),
          EmitExpr(*Col(plan.dims[d].hop.fk_column), fact, "i", &slots,
                   BoolStyle::kShortCircuit)
              .c_str()));
    }
    // Pulled string conjuncts run last: only rows that survived every
    // cheaper qualification touch the arena.
    for (const Expr* pred : str_split.pulled) {
      body.Line(StringFormat(
          "if (!(%s)) continue;",
          EmitExpr(*pred, fact, "i", &slots, BoolStyle::kShortCircuit)
              .c_str()));
    }
    if (grouped) {
      body.Line(StringFormat(
          "int64_t* p = groups.GetOrInsert(%s);",
          EmitExpr(*plan.group_by, fact, "i", &slots,
                   BoolStyle::kShortCircuit)
              .c_str()));
      body.Line("p[0] += 1;");
      for (int a = 0; a < naggs; ++a) {
        body.Line(StringFormat("p[%d] += %s;", 1 + a,
                               AggValueExpr(plan.aggs[a], fact, "i", &slots,
                                            BoolStyle::kShortCircuit)
                                   .c_str()));
      }
    } else {
      for (int a = 0; a < naggs; ++a) {
        body.Line(StringFormat("agg%d += %s;", a,
                               AggValueExpr(plan.aggs[a], fact, "i", &slots,
                                            BoolStyle::kShortCircuit)
                                   .c_str()));
      }
    }
    body.Close();
  } else {
    // Tiled loop shared by hybrid and SWOLE. The prepass predicate's
    // And-tree is split up front: column-vs-literal leaves lower to the
    // width-native CompareLit kernel (reading the column at its physical
    // width), anything else stays in the branch-free lane loop.
    std::vector<const Expr*> pre_simple;
    std::vector<const Expr*> pre_likes;
    std::vector<const Expr*> pre_rest;
    if (scan_filter != nullptr) {
      SplitPrepassConjuncts(*scan_filter, &pre_simple, &pre_likes,
                            &pre_rest);
    }
    const size_t mask_producers =
        pre_simple.size() + pre_likes.size() + (pre_rest.empty() ? 0 : 1);
    body.Line(StringFormat("constexpr int64_t kTile = %lld;",
                           static_cast<long long>(options.tile_size)));
    body.Line("uint8_t cmp[kTile];");
    if (mask_producers > 1) body.Line("uint8_t cmp2[kTile];");
    if (!masked) body.Line("int32_t idx[kTile];");
    // Hash-table batch buffers: gathered probe keys and, for group-bys,
    // the payload pointers handed back by GetOrInsertBatch.
    const bool batch_dims = !masked && !swole && !plan.dims.empty();
    if (grouped || batch_dims) body.Line("int64_t keys[kTile];");
    if (grouped) body.Line("int64_t* ptrs[kTile];");
    body.Open("for (int64_t i = morsel_begin; i < morsel_end; i += kTile) {");
    body.Line(
        "const int64_t len = "
        "morsel_end - i < kTile ? morsel_end - i : kTile;");

    // Prepass: branch-free predicate evaluation into cmp (Fig. 1 middle).
    // Lowered comparison leaves run one dispatched kernel each and AND
    // into the mask; 0/1 bytes conjoin bitwise-identically in any order.
    if (mask_producers == 0) {
      body.Open("for (int64_t j = 0; j < len; ++j) {");
      body.Line("cmp[j] = (uint8_t)1;");
      body.Close();
    } else {
      bool first = true;
      for (const Expr* leaf : pre_simple) {
        const bool swapped = leaf->children[0]->kind == ExprKind::kLiteral;
        const Expr& col = swapped ? *leaf->children[1] : *leaf->children[0];
        const Expr& lit = swapped ? *leaf->children[0] : *leaf->children[1];
        body.Line(StringFormat(
            "swole::kernels::CompareLit(swole::kernels::CmpOp::%s, %s + i, "
            "INT64_C(%lld), %s, len);",
            CmpOpName(leaf->op, swapped),
            slots.Column(fact, col.column).c_str(),
            static_cast<long long>(lit.literal), first ? "cmp" : "cmp2"));
        if (!first) body.Line("swole::kernels::AndBytes(cmp, cmp2, len);");
        first = false;
      }
      for (const Expr* leaf : pre_likes) {
        // Pushed LIKE: the unconditional tile kernel — every row in the
        // tile pays the sequential arena match (the pushdown access
        // pattern the cost model priced).
        const int t = slots.Text(fact, leaf->children[0]->column);
        const int lk = slots.Like(*leaf);
        body.Line(StringFormat(
            "swole::kernels::StrLikeTile(tb%d, to%d, i, len, lk%d, %s);",
            t, t, lk, first ? "cmp" : "cmp2"));
        if (!first) body.Line("swole::kernels::AndBytes(cmp, cmp2, len);");
        first = false;
      }
      if (!pre_rest.empty()) {
        const char* target = first ? "cmp" : "cmp2";
        body.Open("for (int64_t j = 0; j < len; ++j) {");
        std::string pred;
        for (size_t r = 0; r < pre_rest.size(); ++r) {
          if (r > 0) pred += " & ";
          pred += StringFormat(
              "((%s) != 0)",
              EmitExpr(*pre_rest[r], fact, "i + j", &slots,
                       BoolStyle::kBranchFree)
                  .c_str());
        }
        body.Line(
            StringFormat("%s[j] = (uint8_t)(%s);", target, pred.c_str()));
        body.Close();
        if (!first) body.Line("swole::kernels::AndBytes(cmp, cmp2, len);");
      }
    }

    if (swole) {
      // Positional bitmap probes fold into the mask (predicate pullup).
      for (size_t d = 0; d < plan.dims.size(); ++d) {
        std::string offs =
            slots.FkOffsets(fact, plan.dims[d].hop.fk_column,
                            plan.dims[d].hop.to_table);
        body.Open("for (int64_t j = 0; j < len; ++j) {");
        body.Line(StringFormat("cmp[j] &= (uint8_t)bm%d.Test(%s[i + j]);",
                               static_cast<int>(d), offs.c_str()));
        body.Close();
      }
    }

    if (masked) {
      // Pulled string conjuncts refine the mask after every other
      // qualification; the guarded kernel skips dead lanes, so only
      // survivors touch the arena (the pullup access pattern).
      for (const Expr* pred : str_split.pulled) {
        const int t = slots.Text(fact, pred->children[0]->column);
        const int lk = slots.Like(*pred);
        body.Line(StringFormat(
            "swole::kernels::StrLikeTileAnd(tb%d, to%d, i, len, lk%d, "
            "cmp);",
            t, t, lk));
      }
    }

    if (masked) {
      if (!grouped) {
        // Value masking (Fig. 3): unconditional aggregation, masked adds.
        // Simple shapes go through the dispatched SIMD kernels; anything
        // else stays in a branch-free lane loop.
        std::vector<int> loop_aggs;
        for (int a = 0; a < naggs; ++a) {
          std::string stmt =
              MaskedAggKernelStmt(plan.aggs[a], a, fact, &slots);
          if (stmt.empty()) {
            loop_aggs.push_back(a);
          } else {
            body.Line(stmt);
          }
        }
        if (!loop_aggs.empty()) {
          body.Open("for (int64_t j = 0; j < len; ++j) {");
          for (int a : loop_aggs) {
            body.Line(StringFormat(
                "agg%d += (%s) * cmp[j];", a,
                AggValueExpr(plan.aggs[a], fact, "i + j", &slots,
                             BoolStyle::kBranchFree)
                    .c_str()));
          }
          body.Close();
        }
      } else {
        // Group keys are materialized per tile and probed with one
        // software-pipelined GetOrInsertBatch (capacity is reserved up
        // front, so every ptrs[j] stays valid for the whole tile).
        body.Open("for (int64_t j = 0; j < len; ++j) {");
        std::string key = EmitExpr(*plan.group_by, fact, "i + j", &slots,
                                   BoolStyle::kBranchFree);
        if (key_masked) {
          // Key masking (Fig. 4 bottom): non-qualifying keys map to the
          // throwaway entry; values stay unmasked.
          body.Line(StringFormat("int64_t mm = -(int64_t)cmp[j];"));
          body.Line(StringFormat(
              "keys[j] = ((%s) & mm) | (swole::HashTable::kMaskKey & "
              "~mm);",
              key.c_str()));
        } else {
          body.Line(StringFormat("keys[j] = %s;", key.c_str()));
        }
        body.Close();
        body.Line(
            "groups.GetOrInsertBatch(keys, (int32_t)len, ptrs, true);");
        body.Open("for (int64_t j = 0; j < len; ++j) {");
        body.Line("int64_t* p = ptrs[j];");
        if (key_masked) {
          body.Line("p[0] += 1;");
          for (int a = 0; a < naggs; ++a) {
            body.Line(StringFormat(
                "p[%d] += %s;", 1 + a,
                AggValueExpr(plan.aggs[a], fact, "i + j", &slots,
                             BoolStyle::kBranchFree)
                    .c_str()));
          }
        } else {
          // Value masking over groups (Fig. 4 top).
          body.Line("p[0] += cmp[j];");
          for (int a = 0; a < naggs; ++a) {
            body.Line(StringFormat(
                "p[%d] += (%s) * cmp[j];", 1 + a,
                AggValueExpr(plan.aggs[a], fact, "i + j", &slots,
                             BoolStyle::kBranchFree)
                    .c_str()));
          }
        }
        body.Close();
      }
    } else {
      // Selection vector via the dispatched no-branch kernel (Fig. 1
      // middle); the AVX2 tier packs the mask a movemask at a time with
      // bit-identical output.
      body.Line(
          "int32_t n = swole::kernels::SelVecFromCmpNoBranch(cmp, len, "
          "idx);");
      if (!swole) {
        // Hash-probe refinement per dimension: gather the fk keys for the
        // surviving lanes and probe them as one batch (cmp is dead after
        // the selection vector is built, so it doubles as the match-byte
        // output).
        for (size_t d = 0; d < plan.dims.size(); ++d) {
          body.Open("{");
          body.Open("for (int32_t k = 0; k < n; ++k) {");
          body.Line(StringFormat(
              "keys[k] = %s;",
              EmitExpr(*Col(plan.dims[d].hop.fk_column), fact,
                       "i + idx[k]", &slots, BoolStyle::kBranchFree)
                  .c_str()));
          body.Close();
          body.Line(StringFormat(
              "dim%d.ContainsBatch(keys, n, cmp, false);",
              static_cast<int>(d)));
          body.Line("int32_t m = 0;");
          body.Open("for (int32_t k = 0; k < n; ++k) {");
          body.Line("idx[m] = idx[k];");
          body.Line("m += cmp[k] != 0;");
          body.Close();
          body.Line("n = m;");
          body.Close();
        }
      }
      // Pulled string conjuncts: per-lane compiled match over the
      // surviving selection vector, then the usual no-branch compaction
      // (cmp is dead after the selection vector is built, so it doubles
      // as the match-byte scratch).
      for (const Expr* pred : str_split.pulled) {
        const int t = slots.Text(fact, pred->children[0]->column);
        const int lk = slots.Like(*pred);
        body.Open("{");
        body.Open("for (int32_t k = 0; k < n; ++k) {");
        body.Line(StringFormat(
            "cmp[k] = (uint8_t)swole::kernels::StrLikeOne(tb%d, to%d, "
            "i + idx[k], lk%d);",
            t, t, lk));
        body.Close();
        body.Line("int32_t m = 0;");
        body.Open("for (int32_t k = 0; k < n; ++k) {");
        body.Line("idx[m] = idx[k];");
        body.Line("m += cmp[k] != 0;");
        body.Close();
        body.Line("n = m;");
        body.Close();
      }
      if (!grouped) {
        body.Open("for (int32_t k = 0; k < n; ++k) {");
        for (int a = 0; a < naggs; ++a) {
          body.Line(StringFormat(
              "agg%d += %s;", a,
              AggValueExpr(plan.aggs[a], fact, "i + idx[k]", &slots,
                           BoolStyle::kBranchFree)
                  .c_str()));
        }
        body.Close();
      } else {
        body.Open("for (int32_t k = 0; k < n; ++k) {");
        body.Line(StringFormat(
            "keys[k] = %s;",
            EmitExpr(*plan.group_by, fact, "i + idx[k]", &slots,
                     BoolStyle::kBranchFree)
                .c_str()));
        body.Close();
        body.Line("groups.GetOrInsertBatch(keys, n, ptrs, false);");
        body.Open("for (int32_t k = 0; k < n; ++k) {");
        body.Line("int64_t* p = ptrs[k];");
        body.Line("p[0] += 1;");
        for (int a = 0; a < naggs; ++a) {
          body.Line(StringFormat(
              "p[%d] += %s;", 1 + a,
              AggValueExpr(plan.aggs[a], fact, "i + idx[k]", &slots,
                           BoolStyle::kBranchFree)
                  .c_str()));
        }
        body.Close();
      }
    }
    body.Close();  // tile loop
  }

  // Fold the local scalar accumulators into the thread state.
  if (!grouped) {
    for (int a = 0; a < naggs; ++a) {
      body.Line(StringFormat("state->agg%d += agg%d;", a, a));
    }
  }

  // ---- Assemble the translation unit ----
  CodeWriter unit;
  unit.Line(StringFormat(
      "// Generated by swole::codegen — plan '%s', strategy %s.",
      plan.name.c_str(), StrategyKindName(options.strategy)));
  unit.Line("#include <cstdint>");
  unit.Line("#include \"exec/hash_table.h\"");
  unit.Line("#include \"exec/kernels.h\"");
  unit.Line("#include \"storage/bitmap.h\"");
  unit.Line("");
  if (slots.HasLikes()) {
    unit.Line("// Compiled LIKE programs, one per distinct pattern.");
    slots.EmitLikeStatics(&unit);
    unit.Line("");
  }
  unit.Line("// Host ABI (mirror of swole::codegen::KernelIO, ABI v6).");
  unit.Open("struct SwoleKernelIO {");
  unit.Line("const void* const* columns;");
  unit.Line("const int64_t* table_rows;");
  unit.Line("const uint32_t* const* fk_offsets;");
  unit.Line("int64_t* scalar_out;");
  unit.Line("void* group_ctx;");
  unit.Line("void (*emit_group)(void* ctx, int64_t key, const int64_t*);");
  unit.Line("// Governance hooks; null when the query runs ungoverned.");
  unit.Line("void* governor;");
  unit.Line("int (*mem_charge)(void* ctx, int64_t delta, const char* site);");
  unit.Line("int (*cancel_check)(void* ctx);");
  unit.Line("// Raw-text slots (ABI v5): byte arena + offsets per slot.");
  unit.Line("const void* const* text_bytes;");
  unit.Line("const uint32_t* const* text_offsets;");
  unit.Close("};");
  unit.Line("");
  unit.Line("// Build-phase output: dimension structures, read-only while");
  unit.Line("// morsels run.");
  unit.Open("struct SwoleSharedState {");
  for (const std::string& field : shared_fields) unit.Line(field);
  if (!shared_params.empty()) {
    unit.Line(StringFormat("explicit SwoleSharedState(%s) : %s {}",
                           StrJoin(shared_params, ", ").c_str(),
                           StrJoin(shared_inits, ", ").c_str()));
  }
  unit.Close("};");
  unit.Line("");
  unit.Line("// Per-worker probe state, merged pairwise after the scan.");
  unit.Open("struct SwoleThreadState {");
  if (grouped) {
    unit.Line("swole::HashTable groups;");
    unit.Line(StringFormat(
        "explicit SwoleThreadState(int64_t hint) : groups(%d, hint) {}",
        1 + naggs));
  } else {
    for (int a = 0; a < naggs; ++a) {
      unit.Line(StringFormat("int64_t agg%d = 0;", a));
    }
  }
  unit.Close("};");
  unit.Line("");

  auto splice = [&unit](CodeWriter&& writer) {
    for (const std::string& line : StrSplit(writer.Take(), '\n')) {
      unit.Line(line);
    }
  };

  unit.Open(StringFormat("extern \"C\" void* %s(const SwoleKernelIO* io) {",
                         kBuildEntryPoint));
  slots.EmitDeclarations(&unit);
  if (shared_args.empty()) {
    unit.Line("auto* shared = new SwoleSharedState();");
  } else {
    unit.Line(StringFormat("auto* shared = new SwoleSharedState(%s);",
                           StrJoin(shared_args, ", ").c_str()));
  }
  // A refused charge (or bad_alloc) throws out of the build loops; free
  // the half-built shared state before letting the host classify it.
  unit.Open("try {");
  if (!hook_attach.empty()) {
    unit.Open("if (io->mem_charge != nullptr) {");
    for (const std::string& attach : hook_attach) unit.Line(attach);
    unit.Close();
  }
  splice(std::move(build));
  unit.Close("} catch (...) { delete shared; throw; }");
  unit.Line("return shared;");
  unit.Close();
  unit.Line("");

  unit.Open(StringFormat("extern \"C\" void* %s(const SwoleKernelIO* io) {",
                         kThreadStateEntryPoint));
  unit.Line("(void)io;");
  if (grouped) {
    unit.Line(StringFormat("auto* state = new SwoleThreadState(INT64_C(%lld));",
                           static_cast<long long>(
                               options.group_capacity_hint)));
    unit.Open("try {");
    unit.Open("if (io->mem_charge != nullptr) {");
    unit.Line(
        "state->groups.SetMemHook(io->mem_charge, io->governor, "
        "\"jit_groups\");");
    unit.Close();
    if (key_masked) {
      unit.Line("state->groups.GetOrInsert(swole::HashTable::kMaskKey);");
    }
    unit.Close("} catch (...) { delete state; throw; }");
  } else {
    unit.Line("auto* state = new SwoleThreadState();");
  }
  unit.Line("return state;");
  unit.Close();
  unit.Line("");

  unit.Open(StringFormat(
      "extern \"C\" void %s(const SwoleKernelIO* io, void* shared_v, "
      "void* state_v, int64_t morsel_begin, int64_t morsel_end) {",
      kMorselEntryPoint));
  unit.Line("// Cooperative cancellation checkpoint (governed runs only).");
  unit.Line(
      "if (io->cancel_check != nullptr && "
      "io->cancel_check(io->governor) != 0) return;");
  slots.EmitDeclarations(&unit);
  unit.Line("auto* shared = static_cast<SwoleSharedState*>(shared_v);");
  unit.Line("auto* state = static_cast<SwoleThreadState*>(state_v);");
  unit.Line("(void)shared;");
  unit.Line("(void)state;");
  splice(std::move(body));
  unit.Close();
  unit.Line("");

  unit.Open(StringFormat("extern \"C\" void %s(void* into_v, void* from_v) {",
                         kMergeEntryPoint));
  unit.Line("auto* into = static_cast<SwoleThreadState*>(into_v);");
  unit.Line("auto* from = static_cast<SwoleThreadState*>(from_v);");
  if (grouped) {
    unit.Line("into->groups.MergeAdd(from->groups);");
  } else {
    for (int a = 0; a < naggs; ++a) {
      unit.Line(StringFormat("into->agg%d += from->agg%d;", a, a));
    }
  }
  unit.Line("delete from;");
  unit.Close();
  unit.Line("");

  unit.Open(StringFormat(
      "extern \"C\" void %s(const SwoleKernelIO* io, void* shared_v, "
      "void* state_v) {",
      kFinishEntryPoint));
  unit.Line("auto* shared = static_cast<SwoleSharedState*>(shared_v);");
  unit.Line("auto* state = static_cast<SwoleThreadState*>(state_v);");
  // state may be null when the host tears down after an abort that hit
  // before worker 0's thread state existed; still free the shared state.
  unit.Open("if (state != nullptr) {");
  if (grouped) {
    unit.Open("state->groups.ForEach([&](int64_t key, const int64_t* p) {");
    unit.Line("if (key == swole::HashTable::kMaskKey) return;");
    unit.Line("if (p[0] == 0) return;");
    unit.Line("io->emit_group(io->group_ctx, key, p + 1);");
    unit.Close("});");
  } else {
    for (int a = 0; a < naggs; ++a) {
      unit.Line(StringFormat("io->scalar_out[%d] = state->agg%d;", a, a));
    }
  }
  unit.Line("delete state;");
  unit.Close();
  unit.Line("delete shared;");
  unit.Close();
  unit.Line("");

  unit.Open(StringFormat("extern \"C\" int %s(const SwoleKernelIO* io) {",
                         kCancelCheckEntryPoint));
  unit.Line(
      "return io->cancel_check != nullptr ? io->cancel_check(io->governor) "
      ": 0;");
  unit.Close();

  GeneratedKernel kernel;
  kernel.source = unit.Take();
  kernel.column_slots = slots.slots_;
  kernel.table_slots = slots.tables_;
  kernel.fk_slots_table = slots.fk_tables_;
  kernel.fk_slots_column = slots.fk_columns_;
  kernel.fk_slots_ref_table = slots.fk_ref_tables_;
  kernel.text_slots_table = slots.text_tables_;
  kernel.text_slots_column = slots.text_columns_;
  kernel.num_aggs = naggs;
  kernel.grouped = grouped;
  kernel.fact_table = fact;
  kernel.tile_size = options.tile_size;
  return kernel;
}

}  // namespace swole::codegen

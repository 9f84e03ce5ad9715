#include "expr/vector_eval.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/kernels.h"
#include "expr/tile_program.h"
#include "storage/table.h"

namespace swole {

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
    case BinaryOp::kNe:
      return kernels::CmpOp::kNe;
    default:
      SWOLE_CHECK(false) << "not a comparison: " << BinaryOpName(op);
      return kernels::CmpOp::kEq;
  }
}

// Mirror of a comparison with swapped operands (lit < col  ==  col > lit).
kernels::CmpOp FlipCmpOp(kernels::CmpOp op) {
  switch (op) {
    case kernels::CmpOp::kLt:
      return kernels::CmpOp::kGt;
    case kernels::CmpOp::kLe:
      return kernels::CmpOp::kGe;
    case kernels::CmpOp::kGt:
      return kernels::CmpOp::kLt;
    case kernels::CmpOp::kGe:
      return kernels::CmpOp::kLe;
    default:
      return op;  // kEq/kNe are symmetric
  }
}
}  // namespace

VectorEvaluator::VectorEvaluator(const Table& table, int64_t tile_size)
    : table_(table), tile_size_(tile_size) {
  SWOLE_CHECK_GT(tile_size, 0);
}

uint8_t* VectorEvaluator::BoolScratch(int depth) {
  while (static_cast<int>(bool_scratch_.size()) <= depth) {
    bool_scratch_.push_back(std::make_unique<uint8_t[]>(tile_size_));
  }
  return bool_scratch_[depth].get();
}

// A node's numeric operands compiled into one tile program, with this
// evaluator's registers for it.
struct VectorEvaluator::Operands {
  Operands(const Table& table, const std::vector<const Expr*>& exprs,
           int64_t tile_size)
      : program(table, exprs), regs(program.NewRegisters(tile_size)) {}

  const int64_t* Output(int i) const { return program.Output(regs, i); }

  TileProgram program;
  TileProgram::Registers regs;
};

VectorEvaluator::~VectorEvaluator() = default;

const VectorEvaluator::Operands& VectorEvaluator::EvalOperands(
    const Expr& node, std::initializer_list<const Expr*> operands,
    int64_t start, int64_t len) {
  std::unique_ptr<Operands>& compiled = operands_[&node];
  if (compiled == nullptr) {
    compiled = std::make_unique<Operands>(table_, operands, tile_size_);
  }
  // Prepass semantics: every lane is computed, so no division is checked.
  compiled->program.EvalAll(start, len, /*keep=*/nullptr, &compiled->regs);
  return *compiled;
}

const std::vector<uint8_t>& VectorEvaluator::LikeMaskFor(const Expr& like) {
  auto it = like_masks_.find(&like);
  if (it != like_masks_.end()) return it->second;
  const Column& column = table_.ColumnRef(like.children[0]->column);
  SWOLE_CHECK(column.dictionary() != nullptr);
  std::vector<uint8_t> mask =
      column.dictionary()->LikeMask(like.like_pattern);
  if (like.like_negated) {
    for (auto& b : mask) b = 1 - b;
  }
  return like_masks_.emplace(&like, std::move(mask)).first->second;
}

const simd::CompiledLike& VectorEvaluator::CompiledLikeFor(const Expr& like) {
  auto it = compiled_likes_.find(&like);
  if (it != compiled_likes_.end()) return it->second;
  return compiled_likes_
      .emplace(&like,
               simd::CompileLike(like.like_pattern, like.like_negated))
      .first->second;
}

void VectorEvaluator::EvalBool(const Expr& expr, int64_t start, int64_t len,
                               uint8_t* cmp) {
  SWOLE_DCHECK_LE(len, tile_size_);
  switch (expr.kind) {
    case ExprKind::kBinary: {
      if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
        // Prepass semantics: both sides are evaluated unconditionally and
        // combined bitwise — no short circuit, no branches.
        // Reentrancy: the rhs takes the scratch buffer of this nesting
        // depth, so a logical node anywhere below it (under NOT, say)
        // evaluates into a deeper one.
        EvalBool(*expr.children[0], start, len, cmp);
        uint8_t* rhs = BoolScratch(bool_depth_++);
        EvalBool(*expr.children[1], start, len, rhs);
        --bool_depth_;
        if (expr.op == BinaryOp::kAnd) {
          kernels::AndBytes(cmp, rhs, len);
        } else {
          kernels::OrBytes(cmp, rhs, len);
        }
        return;
      }
      SWOLE_CHECK(IsComparisonOp(expr.op)) << expr.ToString();
      const Expr& lhs = *expr.children[0];
      const Expr& rhs = *expr.children[1];
      kernels::CmpOp op = ToCmpOp(expr.op);

      // Fast path 1: column OP literal (typed branch-free loop).
      if (lhs.kind == ExprKind::kColumnRef &&
          rhs.kind == ExprKind::kLiteral) {
        const Column& col = table_.ColumnRef(lhs.column);
        DispatchPhysical(col.type().physical, [&]<typename T>() {
          kernels::CompareLit<T>(op, col.Data<T>() + start, rhs.literal, cmp,
                                 len);
        });
        return;
      }
      // Fast path 2: literal OP column (flip).
      if (lhs.kind == ExprKind::kLiteral &&
          rhs.kind == ExprKind::kColumnRef) {
        const Column& col = table_.ColumnRef(rhs.column);
        DispatchPhysical(col.type().physical, [&]<typename T>() {
          kernels::CompareLit<T>(FlipCmpOp(op), col.Data<T>() + start,
                                 lhs.literal, cmp, len);
        });
        return;
      }
      // Fast path 3: column OP column with matching physical type.
      if (lhs.kind == ExprKind::kColumnRef &&
          rhs.kind == ExprKind::kColumnRef) {
        const Column& lcol = table_.ColumnRef(lhs.column);
        const Column& rcol = table_.ColumnRef(rhs.column);
        if (lcol.type().physical == rcol.type().physical) {
          DispatchPhysical(lcol.type().physical, [&]<typename T>() {
            kernels::CompareCol<T>(op, lcol.Data<T>() + start,
                                   rcol.Data<T>() + start, cmp, len);
          });
          return;
        }
      }
      // General path: both sides through the tile program, then compare.
      if (rhs.kind == ExprKind::kLiteral) {
        const Operands& values = EvalOperands(expr, {&lhs}, start, len);
        kernels::CompareLit<int64_t>(op, values.Output(0), rhs.literal, cmp,
                                     len);
        return;
      }
      const Operands& values = EvalOperands(expr, {&lhs, &rhs}, start, len);
      kernels::CompareCol<int64_t>(op, values.Output(0), values.Output(1),
                                   cmp, len);
      return;
    }
    case ExprKind::kNot:
      EvalBool(*expr.children[0], start, len, cmp);
      kernels::NotBytes(cmp, len);
      return;
    case ExprKind::kLike: {
      {
        const Column& col = table_.ColumnRef(expr.children[0]->column);
        if (col.type().logical == LogicalType::kText) {
          // Raw text: the dispatched string-kernel prepass over the arena
          // (Q13's NOT LIKE over o_comment; contains and unanchored token
          // patterns scan the tile's arena span once). Patterns compile
          // once per expression.
          const StringColumn& text = *col.text();
          kernels::StrLikeTile(text.bytes(), text.offsets(), start, len,
                               CompiledLikeFor(expr), cmp);
          return;
        }
      }
      const std::vector<uint8_t>& mask = LikeMaskFor(expr);
      const Column& col = table_.ColumnRef(expr.children[0]->column);
      DispatchPhysical(col.type().physical, [&]<typename T>() {
        kernels::LookupMask<T>(col.Data<T>() + start, mask.data(), cmp, len);
      });
      return;
    }
    case ExprKind::kInList: {
      // value IN (v1, ..., vk)  ==  OR of equality prepasses.
      const Expr& target = *expr.children[0];
      const Column* col = target.kind == ExprKind::kColumnRef
                              ? &table_.ColumnRef(target.column)
                              : nullptr;
      const int64_t* values =
          col == nullptr ? EvalOperands(expr, {&target}, start, len).Output(0)
                         : nullptr;
      uint8_t* scratch = BoolScratch(bool_depth_);
      bool first = true;
      for (int64_t candidate : expr.in_list) {
        uint8_t* dst = first ? cmp : scratch;
        if (col != nullptr) {
          DispatchPhysical(col->type().physical, [&]<typename T>() {
            kernels::CompareLit<T>(kernels::CmpOp::kEq,
                                   col->Data<T>() + start, candidate, dst,
                                   len);
          });
        } else {
          kernels::CompareLit<int64_t>(kernels::CmpOp::kEq, values, candidate,
                                       dst, len);
        }
        if (!first) kernels::OrBytes(cmp, scratch, len);
        first = false;
      }
      return;
    }
    default: {
      // Numeric used in boolean position: nonzero test.
      const Operands& values = EvalOperands(expr, {&expr}, start, len);
      kernels::CompareLit<int64_t>(kernels::CmpOp::kNe, values.Output(0), 0,
                                   cmp, len);
      return;
    }
  }
}

}  // namespace swole

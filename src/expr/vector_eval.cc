#include "expr/vector_eval.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/kernels.h"
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

int64_t* VectorEvaluator::NumScratch(int depth) {
  while (static_cast<int>(num_scratch_.size()) <= depth) {
    num_scratch_.push_back(std::make_unique<int64_t[]>(tile_size_));
  }
  return num_scratch_[depth].get();
}

uint8_t* VectorEvaluator::BoolScratch(int depth) {
  while (static_cast<int>(bool_scratch_.size()) <= depth) {
    bool_scratch_.push_back(std::make_unique<uint8_t[]>(tile_size_));
  }
  return bool_scratch_[depth].get();
}

const int64_t* VectorEvaluator::FindOverride(const std::string& name) const {
  if (overrides_ == nullptr) return nullptr;
  for (const auto& [override_name, buffer] : *overrides_) {
    if (override_name == name) return buffer;
  }
  return nullptr;
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
        EvalBool(*expr.children[0], start, len, cmp);
        uint8_t* rhs = BoolScratch(0);
        // Reentrancy: nested AND/OR chains reuse scratch; evaluate the rhs
        // into a fresh local buffer when the child is itself logical.
        std::vector<uint8_t> local;
        uint8_t* rhs_buf = rhs;
        if (expr.children[1]->kind == ExprKind::kBinary &&
            (expr.children[1]->op == BinaryOp::kAnd ||
             expr.children[1]->op == BinaryOp::kOr)) {
          local.resize(len);
          rhs_buf = local.data();
        }
        EvalBool(*expr.children[1], start, len, rhs_buf);
        if (expr.op == BinaryOp::kAnd) {
          kernels::AndBytes(cmp, rhs_buf, len);
        } else {
          kernels::OrBytes(cmp, rhs_buf, len);
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
        if (const int64_t* buf = FindOverride(lhs.column)) {
          kernels::CompareLit<int64_t>(op, buf + start, rhs.literal, cmp,
                                       len);
          return;
        }
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
        if (const int64_t* buf = FindOverride(rhs.column)) {
          kernels::CompareLit<int64_t>(FlipCmpOp(op), buf + start,
                                       lhs.literal, cmp, len);
          return;
        }
        const Column& col = table_.ColumnRef(rhs.column);
        DispatchPhysical(col.type().physical, [&]<typename T>() {
          kernels::CompareLit<T>(FlipCmpOp(op), col.Data<T>() + start,
                                 lhs.literal, cmp, len);
        });
        return;
      }
      // Fast path 3: column OP column with matching physical type.
      if (lhs.kind == ExprKind::kColumnRef &&
          rhs.kind == ExprKind::kColumnRef &&
          FindOverride(lhs.column) == nullptr &&
          FindOverride(rhs.column) == nullptr) {
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
      // General path: evaluate both sides to int64 and compare.
      int64_t* lbuf = NumScratch(0);
      std::vector<int64_t> rlocal(len);
      EvalNumeric(lhs, start, len, lbuf);
      EvalNumeric(rhs, start, len, rlocal.data());
      kernels::CompareCol<int64_t>(op, lbuf, rlocal.data(), cmp, len);
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
      if (const int64_t* buf = FindOverride(expr.children[0]->column)) {
        kernels::LookupMask<int64_t>(buf + start, mask.data(), cmp, len);
        return;
      }
      const Column& col = table_.ColumnRef(expr.children[0]->column);
      DispatchPhysical(col.type().physical, [&]<typename T>() {
        kernels::LookupMask<T>(col.Data<T>() + start, mask.data(), cmp, len);
      });
      return;
    }
    case ExprKind::kInList: {
      // value IN (v1, ..., vk)  ==  OR of equality prepasses.
      const Expr& target = *expr.children[0];
      uint8_t* scratch = BoolScratch(1);
      bool first = true;
      for (int64_t candidate : expr.in_list) {
        uint8_t* dst = first ? cmp : scratch;
        if (target.kind == ExprKind::kColumnRef &&
            FindOverride(target.column) != nullptr) {
          kernels::CompareLit<int64_t>(kernels::CmpOp::kEq,
                                       FindOverride(target.column) + start,
                                       candidate, dst, len);
        } else if (target.kind == ExprKind::kColumnRef) {
          const Column& col = table_.ColumnRef(target.column);
          DispatchPhysical(col.type().physical, [&]<typename T>() {
            kernels::CompareLit<T>(kernels::CmpOp::kEq,
                                   col.Data<T>() + start, candidate, dst,
                                   len);
          });
        } else {
          int64_t* values = NumScratch(1);
          EvalNumeric(target, start, len, values);
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
      std::vector<int64_t> values(len);
      EvalNumeric(expr, start, len, values.data());
      kernels::CompareLit<int64_t>(kernels::CmpOp::kNe, values.data(), 0, cmp,
                                   len);
      return;
    }
  }
}

void VectorEvaluator::EvalNumeric(const Expr& expr, int64_t start,
                                  int64_t len, int64_t* out) {
  SWOLE_DCHECK_LE(len, tile_size_);
  switch (expr.kind) {
    case ExprKind::kLiteral:
      for (int64_t j = 0; j < len; ++j) out[j] = expr.literal;
      return;
    case ExprKind::kColumnRef: {
      if (const int64_t* buf = FindOverride(expr.column)) {
        for (int64_t j = 0; j < len; ++j) out[j] = buf[start + j];
        return;
      }
      const Column& col = table_.ColumnRef(expr.column);
      DispatchPhysical(col.type().physical, [&]<typename T>() {
        kernels::Widen<T>(col.Data<T>() + start, len, out);
      });
      return;
    }
    case ExprKind::kBinary: {
      if (IsBooleanOp(expr.op)) break;  // handled by the boolean path below
      // Arithmetic: children into two buffers, then a branch-free combine.
      std::vector<int64_t> lhs(len);
      std::vector<int64_t> rhs(len);
      EvalNumeric(*expr.children[0], start, len, lhs.data());
      EvalNumeric(*expr.children[1], start, len, rhs.data());
      switch (expr.op) {
        case BinaryOp::kAdd:
          for (int64_t j = 0; j < len; ++j) out[j] = lhs[j] + rhs[j];
          return;
        case BinaryOp::kSub:
          for (int64_t j = 0; j < len; ++j) out[j] = lhs[j] - rhs[j];
          return;
        case BinaryOp::kMul:
          for (int64_t j = 0; j < len; ++j) out[j] = lhs[j] * rhs[j];
          return;
        case BinaryOp::kDiv:
          for (int64_t j = 0; j < len; ++j) {
            SWOLE_DCHECK_NE(rhs[j], 0);
            out[j] = lhs[j] / rhs[j];
          }
          return;
        default:
          SWOLE_CHECK(false) << "unreachable";
      }
      return;
    }
    case ExprKind::kCase: {
      // Masked CASE (§III-A): all arms are evaluated unconditionally; the
      // result is selected branch-free, first-match-wins via reverse
      // overwrite.
      EvalNumeric(*expr.children.back(), start, len, out);
      std::vector<uint8_t> cond(len);
      std::vector<int64_t> value(len);
      for (int64_t i =
               static_cast<int64_t>(expr.children.size()) / 2 * 2 - 2;
           i >= 0; i -= 2) {
        EvalBool(*expr.children[i], start, len, cond.data());
        EvalNumeric(*expr.children[i + 1], start, len, value.data());
        for (int64_t j = 0; j < len; ++j) {
          int64_t m = -static_cast<int64_t>(cond[j]);
          out[j] = (value[j] & m) | (out[j] & ~m);
        }
      }
      return;
    }
    default:
      break;
  }
  // Boolean expression used as a 0/1 numeric value (masking).
  std::vector<uint8_t> cmp(len);
  EvalBool(expr, start, len, cmp.data());
  for (int64_t j = 0; j < len; ++j) out[j] = cmp[j];
}

}  // namespace swole

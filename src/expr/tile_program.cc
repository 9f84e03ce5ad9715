#include "expr/tile_program.h"

#include <algorithm>
#include <map>
#include <string>

#include "common/logging.h"
#include "exec/kernels.h"
#include "storage/table.h"

namespace swole {

namespace {

// Lane readers: a column or register read at width T, or a scalar literal.
template <typename T>
struct Lanes {
  const T* p;
  int64_t operator[](int64_t j) const { return static_cast<int64_t>(p[j]); }
};
struct Scalar {
  int64_t v;
  int64_t operator[](int64_t) const { return v; }
};

// The oracle's arithmetic (expr/scalar_eval.cc), except that division
// guards its divisor; comparisons and logic yield 0/1.
template <BinaryOp kOp>
SWOLE_ALWAYS_INLINE int64_t Apply(int64_t a, int64_t b) {
  if constexpr (kOp == BinaryOp::kAdd) return a + b;
  if constexpr (kOp == BinaryOp::kSub) return a - b;
  if constexpr (kOp == BinaryOp::kMul) return a * b;
  if constexpr (kOp == BinaryOp::kDiv) return a / kernels::NonzeroDivisor(b);
  if constexpr (kOp == BinaryOp::kLt) return a < b;
  if constexpr (kOp == BinaryOp::kLe) return a <= b;
  if constexpr (kOp == BinaryOp::kGt) return a > b;
  if constexpr (kOp == BinaryOp::kGe) return a >= b;
  if constexpr (kOp == BinaryOp::kEq) return a == b;
  if constexpr (kOp == BinaryOp::kNe) return a != b;
  if constexpr (kOp == BinaryOp::kAnd) return (a != 0) & (b != 0);
  if constexpr (kOp == BinaryOp::kOr) return (a != 0) | (b != 0);
}

template <typename Fn>
decltype(auto) DispatchBinaryOp(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kAdd:
      return fn.template operator()<BinaryOp::kAdd>();
    case BinaryOp::kSub:
      return fn.template operator()<BinaryOp::kSub>();
    case BinaryOp::kMul:
      return fn.template operator()<BinaryOp::kMul>();
    case BinaryOp::kDiv:
      return fn.template operator()<BinaryOp::kDiv>();
    case BinaryOp::kLt:
      return fn.template operator()<BinaryOp::kLt>();
    case BinaryOp::kLe:
      return fn.template operator()<BinaryOp::kLe>();
    case BinaryOp::kGt:
      return fn.template operator()<BinaryOp::kGt>();
    case BinaryOp::kGe:
      return fn.template operator()<BinaryOp::kGe>();
    case BinaryOp::kEq:
      return fn.template operator()<BinaryOp::kEq>();
    case BinaryOp::kNe:
      return fn.template operator()<BinaryOp::kNe>();
    case BinaryOp::kAnd:
      return fn.template operator()<BinaryOp::kAnd>();
    case BinaryOp::kOr:
      return fn.template operator()<BinaryOp::kOr>();
  }
  __builtin_unreachable();
}

int64_t Fold(BinaryOp op, int64_t a, int64_t b) {
  return DispatchBinaryOp(op, [&]<BinaryOp kOp>() { return Apply<kOp>(a, b); });
}

template <BinaryOp kOp, typename A, typename B>
void BinaryLoop(A a, B b, int64_t* SWOLE_RESTRICT out, int64_t n) {
  for (int64_t j = 0; j < n; ++j) out[j] = Apply<kOp>(a[j], b[j]);
}

// True when some lane has a zero divisor and is kept (every lane when
// `keep` is null).
template <typename B>
bool KeptZeroDivisor(B b, int64_t n, const uint8_t* keep) {
  int64_t bad = 0;
  if (keep == nullptr) {
    for (int64_t j = 0; j < n; ++j) bad |= b[j] == 0;
  } else {
    for (int64_t j = 0; j < n; ++j) bad |= (b[j] == 0) & (keep[j] != 0);
  }
  return bad != 0;
}

}  // namespace

// ---- Compilation ----

class TileProgram::Compiler {
 public:
  Compiler(const Table& table, TileProgram* program)
      : table_(table), p_(program) {}

  /// `conditional`: the oracle may skip this subtree on a row it keeps (a
  /// CASE arm, the right side of AND/OR), so its divisions go unchecked.
  Operand Compile(const Expr& e, bool conditional) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return Lit(e.literal);
      case ExprKind::kColumnRef:
        return Operand{Operand::Kind::kCol, Slot(e.column), 0};
      default:
        break;
    }
    std::string key = e.ToString();
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      if (!conditional) MarkChecked(e);
      return it->second;
    }
    Operand result = CompileNode(e, conditional);
    memo_.emplace(std::move(key), result);
    return result;
  }

  /// An operand the untyped ops read as int64 lanes: a column becomes its
  /// slot register, widened in the all-lanes form.
  Operand Untyped(Operand o) {
    if (o.kind != Operand::Kind::kCol) return o;
    ColumnSlot& slot = p_->slots_[o.index];
    slot.widen = true;
    return Operand{Operand::Kind::kReg, slot.reg, 0};
  }

  /// A register holding `value` in every lane, filled once per Registers.
  int32_t ConstReg(int64_t value) {
    const int32_t reg = p_->num_regs_++;
    p_->consts_.emplace_back(reg, value);
    return reg;
  }

 private:
  static Operand Lit(int64_t v) { return Operand{Operand::Kind::kLit, 0, v}; }

  int32_t Slot(const std::string& name) {
    auto it = slot_of_.find(name);
    if (it != slot_of_.end()) return it->second;
    const Column& column = table_.ColumnRef(name);
    SWOLE_CHECK(column.type().logical != LogicalType::kText)
        << "raw text in numeric position: " << name;
    const int32_t slot = static_cast<int32_t>(p_->slots_.size());
    p_->slots_.push_back(ColumnSlot{&column, p_->num_regs_++, false});
    slot_of_.emplace(name, slot);
    return slot;
  }

  Operand Emit(Op op) {
    op.dst = p_->num_regs_++;
    p_->ops_.push_back(op);
    return Operand{Operand::Kind::kReg, op.dst, 0};
  }

  Operand CompileNode(const Expr& e, bool conditional) {
    switch (e.kind) {
      case ExprKind::kBinary: {
        const bool logical = e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr;
        Operand a = Compile(*e.children[0], conditional);
        Operand b = Compile(*e.children[1], conditional || logical);
        const bool zero_divisor =
            e.op == BinaryOp::kDiv && b.kind == Operand::Kind::kLit &&
            b.literal == 0;
        if (a.kind == Operand::Kind::kLit && b.kind == Operand::Kind::kLit) {
          if (!zero_divisor) return Lit(Fold(e.op, a.literal, b.literal));
          a = Operand{Operand::Kind::kReg, ConstReg(a.literal), 0};
        }
        Op op;
        op.op = e.op;
        op.checked = e.op == BinaryOp::kDiv && !conditional;
        op.a = a;
        op.b = b;
        return Emit(op);
      }
      case ExprKind::kNot: {
        Operand a = Compile(*e.children[0], conditional);
        if (a.kind == Operand::Kind::kLit) return Lit(a.literal == 0);
        Op op;
        op.op = BinaryOp::kEq;
        op.a = a;
        op.b = Lit(0);
        return Emit(op);
      }
      case ExprKind::kInList: {
        Operand a = Compile(*e.children[0], conditional);
        if (a.kind == Operand::Kind::kLit) {
          int64_t hit = 0;
          for (int64_t v : e.in_list) hit |= v == a.literal;
          return Lit(hit);
        }
        Op op;
        op.code = OpCode::kIn;
        op.a = Untyped(a);
        op.aux = static_cast<int32_t>(p_->in_lists_.size());
        p_->in_lists_.push_back(e.in_list);
        return Emit(op);
      }
      case ExprKind::kLike: {
        const std::string& name = e.children[0]->column;
        const Column& column = table_.ColumnRef(name);
        Op op;
        if (column.type().logical == LogicalType::kText) {
          op.code = OpCode::kLikeText;
          op.aux = static_cast<int32_t>(p_->likes_.size());
          p_->likes_.push_back(TextLike{
              &column, simd::CompileLike(e.like_pattern, e.like_negated)});
          return Emit(op);
        }
        SWOLE_CHECK(column.dictionary() != nullptr) << name;
        std::vector<uint8_t> mask =
            column.dictionary()->LikeMask(e.like_pattern);
        if (e.like_negated) {
          for (auto& m : mask) m = 1 - m;
        }
        op.code = OpCode::kLikeDict;
        op.a = Untyped(Operand{Operand::Kind::kCol, Slot(name), 0});
        op.aux = static_cast<int32_t>(p_->dict_masks_.size());
        p_->dict_masks_.push_back(std::move(mask));
        return Emit(op);
      }
      case ExprKind::kCase: {
        // First match wins: fold the arms from the last into the ELSE.
        Operand result = Compile(*e.children.back(), true);
        for (int64_t i =
                 static_cast<int64_t>(e.children.size()) / 2 * 2 - 2;
             i >= 0; i -= 2) {
          Operand cond = Compile(*e.children[i], conditional || i != 0);
          Operand then = Compile(*e.children[i + 1], true);
          if (cond.kind == Operand::Kind::kLit) {
            if (cond.literal != 0) result = then;
            continue;
          }
          Op op;
          op.code = OpCode::kSelect;
          op.c = Untyped(cond);
          op.a = Untyped(then);
          op.b = Untyped(result);
          result = Emit(op);
        }
        return result;
      }
      default:
        SWOLE_CHECK(false) << "unreachable";
        return Lit(0);
    }
  }

  // A shared subtree reached again outside a conditional context: the
  // oracle evaluates its divisions on every kept row after all.
  void MarkChecked(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kBinary: {
        auto it = e.op == BinaryOp::kDiv ? memo_.find(e.ToString())
                                         : memo_.end();
        if (it != memo_.end() && it->second.kind == Operand::Kind::kReg) {
          for (Op& op : p_->ops_) {
            if (op.dst == it->second.index) op.checked = true;
          }
        }
        MarkChecked(*e.children[0]);
        if (e.op != BinaryOp::kAnd && e.op != BinaryOp::kOr) {
          MarkChecked(*e.children[1]);
        }
        return;
      }
      case ExprKind::kNot:
      case ExprKind::kInList:
      case ExprKind::kCase:
        MarkChecked(*e.children[0]);
        return;
      default:
        return;
    }
  }

  const Table& table_;
  TileProgram* p_;
  std::map<std::string, int32_t> slot_of_;
  std::map<std::string, Operand> memo_;
};

TileProgram::TileProgram(const Table& table,
                         const std::vector<const Expr*>& outputs) {
  Compiler compiler(table, this);
  for (const Expr* expr : outputs) {
    if (expr == nullptr) {
      output_regs_.push_back(-1);
      continue;
    }
    Operand o = compiler.Untyped(compiler.Compile(*expr, false));
    output_regs_.push_back(o.kind == Operand::Kind::kLit
                               ? compiler.ConstReg(o.literal)
                               : o.index);
  }
}

TileProgram::Registers TileProgram::NewRegisters(int64_t tile_size) const {
  Registers regs;
  regs.tile_ = tile_size;
  regs.storage_.resize(static_cast<size_t>(num_regs_) * tile_size);
  for (const auto& [reg, value] : consts_) {
    std::fill(regs.Reg(reg), regs.Reg(reg) + tile_size, value);
  }
  if (!likes_.empty()) regs.bytes_.resize(tile_size);
  return regs;
}

// ---- Evaluation ----

void TileProgram::Run(int64_t start, const int32_t* sel, int64_t n,
                      bool check, const uint8_t* keep,
                      Registers* regs) const {
  // Calls fn with the lane reader of an untyped operand (register or
  // literal).
  auto with_reg_or_lit = [&](const Operand& o, auto&& fn) {
    if (o.kind == Operand::Kind::kLit) {
      fn(Scalar{o.literal});
    } else {
      fn(Lanes<int64_t>{regs->Reg(o.index)});
    }
  };
  // Calls fn with an operand's lane reader. Columns are read at physical
  // width from storage in the all-lanes form, from their gathered register
  // in the selection form.
  auto with_lanes = [&](const Operand& o, auto&& fn) {
    if (o.kind != Operand::Kind::kCol) {
      with_reg_or_lit(o, fn);
      return;
    }
    const ColumnSlot& slot = slots_[o.index];
    if (sel != nullptr) {
      fn(Lanes<int64_t>{regs->Reg(slot.reg)});
      return;
    }
    DispatchPhysical(slot.column->type().physical, [&]<typename T>() {
      fn(Lanes<T>{slot.column->Data<T>() + start});
    });
  };

  for (const Op& op : ops_) {
    int64_t* dst = regs->Reg(op.dst);
    switch (op.code) {
      case OpCode::kBinary:
        with_lanes(op.a, [&](auto a) {
          with_lanes(op.b, [&](auto b) {
            if (op.checked && check) {
              SWOLE_DCHECK(!KeptZeroDivisor(b, n, keep))
                  << "division by zero";
            }
            DispatchBinaryOp(op.op, [&]<BinaryOp kOp>() {
              BinaryLoop<kOp>(a, b, dst, n);
            });
          });
        });
        break;
      case OpCode::kSelect:
        with_reg_or_lit(op.c, [&](auto c) {
          with_reg_or_lit(op.a, [&](auto a) {
            with_reg_or_lit(op.b, [&](auto b) {
              for (int64_t j = 0; j < n; ++j) {
                const int64_t m = -static_cast<int64_t>(c[j] != 0);
                dst[j] = (a[j] & m) | (b[j] & ~m);
              }
            });
          });
        });
        break;
      case OpCode::kIn: {
        const int64_t* v = regs->Reg(op.a.index);
        std::fill(dst, dst + n, 0);
        for (int64_t candidate : in_lists_[op.aux]) {
          for (int64_t j = 0; j < n; ++j) dst[j] |= v[j] == candidate;
        }
        break;
      }
      case OpCode::kLikeDict: {
        const int64_t* codes = regs->Reg(op.a.index);
        const uint8_t* mask = dict_masks_[op.aux].data();
        for (int64_t j = 0; j < n; ++j) dst[j] = mask[codes[j]];
        break;
      }
      case OpCode::kLikeText: {
        const TextLike& lk = likes_[op.aux];
        const StringColumn& text = *lk.column->text();
        if (sel == nullptr) {
          uint8_t* bytes = regs->bytes_.data();
          kernels::StrLikeTile(text.bytes(), text.offsets(), start, n,
                               lk.like, bytes);
          kernels::Widen<uint8_t>(bytes, n, dst);
        } else {
          for (int64_t k = 0; k < n; ++k) {
            dst[k] = kernels::StrLikeOne(text.bytes(), text.offsets(),
                                         start + sel[k], lk.like);
          }
        }
        break;
      }
    }
  }
}

void TileProgram::EvalAll(int64_t start, int64_t len, const uint8_t* keep,
                          Registers* regs) const {
  SWOLE_DCHECK_LE(len, regs->tile_);
  for (const ColumnSlot& slot : slots_) {
    if (!slot.widen) continue;
    DispatchPhysical(slot.column->type().physical, [&]<typename T>() {
      kernels::Widen<T>(slot.column->Data<T>() + start, len,
                        regs->Reg(slot.reg));
    });
  }
  Run(start, nullptr, len, keep != nullptr, keep, regs);
}

void TileProgram::EvalSel(int64_t start, const int32_t* sel, int32_t n,
                          bool lanes_kept, Registers* regs) const {
  SWOLE_DCHECK_LE(n, regs->tile_);
  if (n == 0) return;
  for (const ColumnSlot& slot : slots_) {
    DispatchPhysical(slot.column->type().physical, [&]<typename T>() {
      kernels::Gather<T>(slot.column->Data<T>() + start, sel, n,
                         regs->Reg(slot.reg));
    });
  }
  Run(start, sel, n, lanes_kept, nullptr, regs);
}

}  // namespace swole

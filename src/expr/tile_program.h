#ifndef SWOLE_EXPR_TILE_PROGRAM_H_
#define SWOLE_EXPR_TILE_PROGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/simd_string.h"
#include "expr/expr.h"

// A flat tile program: a set of numeric expressions over one table (a
// plan's group key and aggregate inputs, or a comparison's operands),
// compiled once into a list of register operations and evaluated a tile at
// a time in one of two forms (DESIGN.md §16):
//
//  * all lanes, over rows [start, start + len): the pullup form. Column
//    operands are read at their physical width straight from storage; a
//    column is widened into a register only where an output or a CASE/IN/
//    LIKE operand needs it as int64.
//  * selection, over rows start + sel[k]: each referenced column is
//    gathered once per batch into its register, shared by every output.
//
// Operands are registers, columns, or scalar literals (never filled into a
// tile). Structurally equal subtrees compile to one register, so a term
// that feeds the key and several aggregates is computed once per tile.
// Arithmetic is the plain int64 arithmetic of ScalarEvaluator, so results
// are bit-identical with the oracle. Division replaces a zero divisor with
// 1, branch-free, so lanes the plan discards never trap; a division the
// oracle evaluates on every row it keeps still checks those rows.

namespace swole {

class Column;
class Table;

class TileProgram {
 public:
  /// Compiles `outputs` over `table`; a null output is absent. Every
  /// expression must bind against `table` (BindExpr).
  TileProgram(const Table& table, const std::vector<const Expr*>& outputs);

  /// A worker's registers: tile-sized int64 buffers allocated once, so
  /// evaluation never allocates. Literal outputs are filled here, once.
  class Registers {
   private:
    friend class TileProgram;
    int64_t* Reg(int32_t r) { return storage_.data() + r * tile_; }
    const int64_t* Reg(int32_t r) const {
      return storage_.data() + r * tile_;
    }

    int64_t tile_ = 0;
    std::vector<int64_t> storage_;
    std::vector<uint8_t> bytes_;  // raw-text LIKE results
  };

  Registers NewRegisters(int64_t tile_size) const;

  /// All-lanes form over rows [start, start + len), len <= the registers'
  /// tile. `keep`, when set, marks the rows the plan keeps (its mask is
  /// final): a zero divisor on such a row, in a division the oracle would
  /// evaluate, fails a check.
  void EvalAll(int64_t start, int64_t len, const uint8_t* keep,
               Registers* regs) const;

  /// Selection form over rows start + sel[k], k < n. `lanes_kept` says the
  /// plan keeps every selected row, which turns on the division check.
  void EvalSel(int64_t start, const int32_t* sel, int32_t n, bool lanes_kept,
               Registers* regs) const;

  /// Output i's lanes after the last evaluation; null when absent.
  const int64_t* Output(const Registers& regs, int i) const {
    return output_regs_[i] < 0 ? nullptr : regs.Reg(output_regs_[i]);
  }

 private:
  class Compiler;

  struct Operand {
    enum class Kind : uint8_t { kReg, kCol, kLit };
    Kind kind = Kind::kLit;
    int32_t index = 0;  // register, or column slot
    int64_t literal = 0;
  };
  enum class OpCode : uint8_t {
    kBinary,    // dst = a OP b (arithmetic, comparison, logic -> 0/1)
    kSelect,    // dst = c != 0 ? a : b (one CASE arm, branch-free)
    kIn,        // dst = a IN in_lists_[aux]
    kLikeDict,  // dst = dict_masks_[aux][a]
    kLikeText,  // dst = raw text of likes_[aux] matches at the lane's row
  };
  struct Op {
    OpCode code = OpCode::kBinary;
    BinaryOp op = BinaryOp::kAdd;
    bool checked = false;  // kDiv the oracle evaluates on every kept row
    int32_t dst = 0;
    int32_t aux = 0;
    Operand a, b, c;
  };
  struct ColumnSlot {
    const Column* column = nullptr;
    int32_t reg = 0;
    bool widen = false;  // all-lanes form needs it as an int64 register
  };
  struct TextLike {
    const Column* column = nullptr;
    simd::CompiledLike like;
  };

  // One pass over ops_; `sel` is null in the all-lanes form.
  void Run(int64_t start, const int32_t* sel, int64_t n, bool check,
           const uint8_t* keep, Registers* regs) const;

  int32_t num_regs_ = 0;
  std::vector<Op> ops_;
  std::vector<ColumnSlot> slots_;
  std::vector<std::pair<int32_t, int64_t>> consts_;  // literal registers
  std::vector<int32_t> output_regs_;                 // -1 when absent
  std::vector<std::vector<int64_t>> in_lists_;
  std::vector<std::vector<uint8_t>> dict_masks_;
  std::vector<TextLike> likes_;
};

}  // namespace swole

#endif  // SWOLE_EXPR_TILE_PROGRAM_H_

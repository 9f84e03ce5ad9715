#ifndef SWOLE_EXPR_VECTOR_EVAL_H_
#define SWOLE_EXPR_VECTOR_EVAL_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <vector>

#include "exec/simd_string.h"
#include "expr/expr.h"

// Tile-at-a-time predicate evaluation over a table's columns. This is the
// "prepass" machinery (Fig. 1): boolean expressions evaluate into 0/1 byte
// arrays with branch-free typed loops (SIMD-friendly). Numeric operands of
// a predicate (`a / (b - 1) > 0`, `x + y IN (...)`) run through a tile
// program (expr/tile_program.h) in its all-lanes form, so a divisor of 0 on
// a row the predicate rejects never traps.

namespace swole {

class Table;

class VectorEvaluator {
 public:
  /// `table` must outlive the evaluator. Tiles must not exceed `tile_size`.
  explicit VectorEvaluator(const Table& table,
                           int64_t tile_size = 1024);
  ~VectorEvaluator();

  /// Boolean expression over rows [start, start+len) into cmp (bytes 0/1).
  /// Preconditions: expr.IsBoolean(), len <= tile_size.
  void EvalBool(const Expr& expr, int64_t start, int64_t len, uint8_t* cmp);

  const Table& table() const { return table_; }
  int64_t tile_size() const { return tile_size_; }

  /// The 0/1 dictionary mask for a LIKE expression (built once, cached).
  const std::vector<uint8_t>& LikeMaskFor(const Expr& like);

  /// The compiled pattern for a raw-text LIKE expression (cached per node).
  const simd::CompiledLike& CompiledLikeFor(const Expr& like);

 private:
  // Scratch buffer pool: AND/OR nesting depth d uses bool_scratch_[d].
  uint8_t* BoolScratch(int depth);

  /// Evaluates `operands` (numeric subtrees of `node`) over rows
  /// [start, start+len) in the all-lanes form of their tile program,
  /// compiled on first use and cached per node.
  struct Operands;
  const Operands& EvalOperands(const Expr& node,
                               std::initializer_list<const Expr*> operands,
                               int64_t start, int64_t len);

  const Table& table_;
  int64_t tile_size_;
  std::vector<std::unique_ptr<uint8_t[]>> bool_scratch_;
  int bool_depth_ = 0;  // AND/OR nodes on the current EvalBool path
  std::map<const Expr*, std::unique_ptr<Operands>> operands_;
  std::map<const Expr*, std::vector<uint8_t>> like_masks_;
  std::map<const Expr*, simd::CompiledLike> compiled_likes_;
};

}  // namespace swole

#endif  // SWOLE_EXPR_VECTOR_EVAL_H_

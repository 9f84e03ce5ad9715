#ifndef SWOLE_PLAN_PLAN_H_
#define SWOLE_PLAN_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"

// The restricted OLAP plan algebra executed by every strategy.
//
// A query is a *staged* plan over a star/snowflake schema:
//
//   fact table  --fk-->  dimension  --fk-->  dimension  ...
//
// All joins are foreign-key/primary-key joins (each fact row references
// exactly one row per dimension; referential integrity is enforced by the
// fk offset indexes at load time). Under that constraint an inner join is
// an existence test plus column reads through the fk chain, which is what
// lets the four strategies implement the same plan with hash tables
// (data-centric/hybrid/ROF) or positional bitmaps and late materialization
// (SWOLE, §III-D) while producing identical results.
//
// The algebra covers every query in the paper's evaluation: TPC-H Q1, Q3,
// Q4, Q5, Q6, Q13, Q14, Q19 and microbenchmark Q1-Q5 (§IV).

namespace swole {

class Table;

/// A hop along a foreign key: follow `fk_column` (on the current table) to
/// the single matching row of `to_table`. `to_pk_column` names the primary
/// key on `to_table`: hash-based strategies key their join hash tables by
/// its values, while positional strategies ignore it and go through the fk
/// offset index.
struct Hop {
  std::string fk_column;
  std::string to_table;
  std::string to_pk_column;
};

/// A column reached from a fact row through one or more fk hops, exposed to
/// the plan under `alias` (late materialization handle). If `like_pattern`
/// is set, the exposed value is the 0/1 result of `column LIKE pattern`
/// (evaluated once per dictionary entry — the "small hash table computed on
/// the fly" of TPC-H Q14); the column must then be dictionary-encoded.
struct ColumnPath {
  std::string alias;
  std::vector<Hop> hops;   // at least one
  std::string column;      // on the final hop's table
  std::string like_pattern;
};

/// Existence-join node: a fact (or parent-dimension) row qualifies iff the
/// referenced row of `hop.to_table` passes `filter` AND all `children`
/// dimensions qualify recursively. With a null filter and no children every
/// row qualifies (pure payload access).
struct DimJoin {
  Hop hop;                       // from the parent table to this dimension
  ExprPtr filter;                // local predicate on the dimension (or null)
  std::vector<DimJoin> children; // snowflake tail (e.g. customer->nation->region)

  DimJoin() = default;
  DimJoin(Hop h, ExprPtr f) : hop(std::move(h)), filter(std::move(f)) {}
  DimJoin(DimJoin&&) = default;
  DimJoin& operator=(DimJoin&&) = default;

  DimJoin CloneTree() const;
};

/// Reverse existence (TPC-H Q4's EXISTS subquery): the fact row qualifies
/// iff SOME row of `table` with `filter` references it via `fk_column`.
/// `fact_pk_column` names the fact's primary key (probed by hash-based
/// strategies; positional strategies use the fk offset index directly).
struct ReverseDim {
  std::string table;
  std::string fk_column;       // on `table`, referencing the fact table
  ExprPtr filter;              // on `table` (or null)
  std::string fact_pk_column;  // on the fact table
};

/// Disjunctive fk join (TPC-H Q19): the fact row qualifies iff for SOME
/// clause k, the referenced dimension row passes `dim_filter[k]` AND the
/// fact row passes `fact_filter[k]`.
struct DisjunctiveJoin {
  Hop hop;
  struct Clause {
    ExprPtr dim_filter;
    ExprPtr fact_filter;
  };
  std::vector<Clause> clauses;
};

enum class AggKind : uint8_t { kSum, kCount, kMin, kMax };

const char* AggKindName(AggKind kind);

/// One output aggregate. `expr` ranges over fact columns; the optional
/// `path_factor` multiplies in a value reached through a fk path (how Q14's
/// `CASE WHEN p_type LIKE 'PROMO%' ...` becomes `promo_flag * revenue`).
struct AggSpec {
  AggKind kind = AggKind::kSum;
  ExprPtr expr;               // null only for kCount
  std::string path_factor;    // alias of a ColumnPath, or empty
  std::string name;

  AggSpec() = default;
  AggSpec(AggKind k, ExprPtr e, std::string n)
      : kind(k), expr(std::move(e)), name(std::move(n)) {}
};

/// Post-join equality between two path columns (Q5's
/// `s_nationkey = c_nationkey` across the two fk chains).
struct PathEquality {
  std::string left_alias;
  std::string right_alias;
};

/// Seeds the group-by table with every key of a dimension before the fact
/// scan, so groups with no qualifying fact rows appear with zeroed
/// aggregates (left-outer groupjoin semantics, TPC-H Q13).
struct GroupSeed {
  std::string table;
  std::string key_column;
};

struct QueryPlan {
  std::string name;  // for diagnostics and benchmark labels

  std::string fact_table;
  ExprPtr fact_filter;  // or null

  std::vector<DimJoin> dims;
  std::vector<ReverseDim> reverse_dims;
  std::optional<DisjunctiveJoin> disjunctive;

  std::vector<ColumnPath> paths;
  std::vector<PathEquality> path_equalities;

  // Group-by key: either an expression over fact columns or a path alias
  // (at most one of the two). Neither -> scalar aggregation.
  ExprPtr group_by;
  std::string group_by_path;

  // Hint for hash-table sizing and the cost model (0 = unknown).
  int64_t group_cardinality_hint = 0;

  std::optional<GroupSeed> group_seed;

  std::vector<AggSpec> aggs;

  // TPC-H Q13's second level: after grouping, histogram the value of
  // aggregate 0 (count of groups per aggregate value).
  bool histogram_of_agg0 = false;

  QueryPlan() = default;
  QueryPlan(QueryPlan&&) = default;
  QueryPlan& operator=(QueryPlan&&) = default;

  bool HasGroupBy() const {
    return group_by != nullptr || !group_by_path.empty();
  }

  const ColumnPath* FindPath(const std::string& alias) const;

  /// A deep copy: every expression tree is cloned.
  QueryPlan Clone() const;

  /// Renders the plan's structure, including every field SWOLE's cost
  /// analysis reads — the rendering doubles as its cache's fingerprint.
  std::string ToString() const;
};

/// A catalog of tables available to plans, by name.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status AddTable(std::shared_ptr<Table> table);
  Result<const Table*> GetTable(const std::string& name) const;
  const Table& TableRef(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  std::vector<std::shared_ptr<Table>> tables_;
};

/// Validates a plan against a catalog: tables exist, every hop has a
/// registered fk index, filters bind, aliases resolve, group-by and
/// aggregate specs are well-formed.
Status ValidatePlan(const QueryPlan& plan, const Catalog& catalog);

}  // namespace swole

#endif  // SWOLE_PLAN_PLAN_H_

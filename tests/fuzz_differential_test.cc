// Randomized differential testing: generate random tables, random
// predicate/aggregate expression trees, and random plan shapes, then check
// that all four strategy engines — SWOLE also under each forced
// aggregation technique — produce bit-exact results against the reference
// oracle at 1 and 4 threads. This sweeps corners no hand-written test
// enumerates (deep expression nesting, degenerate selectivities, skewed
// group counts, empty intermediate results, subtrees shared between the
// key and several aggregates, zero divisors on rows the plan discards).

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/reference_engine.h"
#include "storage/table.h"
#include "strategies/strategy.h"

namespace swole {
namespace {

// Builds a random table with a mix of physical types. Column c0..c3 are
// generic values; "fk" references the dim table; "divisor" is >= 1;
// "zdiv" holds zeros and is only ever a divisor under a `zdiv <> 0` guard.
struct FuzzData {
  Catalog catalog;
  int64_t dim_rows;
};

std::unique_ptr<FuzzData> MakeFuzzData(Rng* rng) {
  auto data = std::make_unique<FuzzData>();
  int64_t rows = rng->UniformInt(1, 5000);
  data->dim_rows = rng->UniformInt(1, 200);

  auto dim = std::make_shared<Table>("d");
  {
    auto pk = std::make_unique<Column>(
        "d_pk", ColumnType::Int(PhysicalType::kInt32));
    auto v = std::make_unique<Column>(
        "d_v", ColumnType::Int(PhysicalType::kInt16));
    for (int64_t i = 0; i < data->dim_rows; ++i) {
      pk->Append(i);
      v->Append(rng->UniformInt(-50, 50));
    }
    dim->AddColumn(std::move(pk)).CheckOK();
    dim->AddColumn(std::move(v)).CheckOK();
  }

  auto fact = std::make_shared<Table>("f");
  {
    PhysicalType types[4] = {PhysicalType::kInt8, PhysicalType::kInt16,
                             PhysicalType::kInt32, PhysicalType::kInt64};
    for (int c = 0; c < 4; ++c) {
      auto col = std::make_unique<Column>(StringFormat("c%d", c),
                                          ColumnType::Int(types[c]));
      int64_t lo = -100, hi = 100;
      if (rng->Bernoulli(0.3)) {  // sometimes a tiny domain
        lo = 0;
        hi = rng->UniformInt(1, 5);
      }
      for (int64_t i = 0; i < rows; ++i) {
        col->Append(rng->UniformInt(lo, hi));
      }
      fact->AddColumn(std::move(col)).CheckOK();
    }
    auto divisor = std::make_unique<Column>(
        "divisor", ColumnType::Int(PhysicalType::kInt8));
    auto zdiv = std::make_unique<Column>(
        "zdiv", ColumnType::Int(PhysicalType::kInt16));
    auto fk = std::make_unique<Column>(
        "fk", ColumnType::Int(PhysicalType::kInt32));
    for (int64_t i = 0; i < rows; ++i) {
      divisor->Append(rng->UniformInt(1, 9));
      zdiv->Append(rng->UniformInt(-3, 3));
      fk->Append(rng->UniformInt(0, data->dim_rows - 1));
    }
    fact->AddColumn(std::move(divisor)).CheckOK();
    fact->AddColumn(std::move(zdiv)).CheckOK();
    fact->AddColumn(std::move(fk)).CheckOK();
    Result<FkIndex> index =
        FkIndex::Build(fact->ColumnRef("fk"), dim->ColumnRef("d_pk"));
    index.status().CheckOK();
    fact->AddFkIndex("fk", std::move(index).value()).CheckOK();
  }

  data->catalog.AddTable(fact).CheckOK();
  data->catalog.AddTable(dim).CheckOK();
  return data;
}

ExprPtr RandomPredicate(Rng* rng, int depth);

// Random numeric expression over fact columns. Division outside the
// guarded aggregate of RandomPlan is by the strictly positive "divisor"
// column. CASE and boolean-as-numeric terms mask values the way the
// paper's value masking does.
ExprPtr RandomNumeric(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    if (rng->Bernoulli(0.3)) return Lit(rng->UniformInt(-20, 20));
    return Col(StringFormat("c%lld",
                            static_cast<long long>(rng->NextBounded(4))));
  }
  switch (rng->NextBounded(6)) {
    case 0:
      return Add(RandomNumeric(rng, depth - 1), RandomNumeric(rng, depth - 1));
    case 1:
      return Sub(RandomNumeric(rng, depth - 1), RandomNumeric(rng, depth - 1));
    case 2:
      return Mul(RandomNumeric(rng, depth - 1), RandomNumeric(rng, depth - 1));
    case 3:
      return Div(RandomNumeric(rng, depth - 1), Col("divisor"));
    case 4:
      return Case(RandomPredicate(rng, 1), RandomNumeric(rng, depth - 1),
                  RandomNumeric(rng, depth - 1));
    default:
      return Mul(RandomNumeric(rng, depth - 1), RandomPredicate(rng, 1));
  }
}

// Random boolean expression over fact columns.
ExprPtr RandomPredicate(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    BinaryOp ops[] = {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                      BinaryOp::kGe, BinaryOp::kEq, BinaryOp::kNe};
    BinaryOp op = ops[rng->NextBounded(6)];
    ExprPtr col = Col(StringFormat(
        "c%lld", static_cast<long long>(rng->NextBounded(4))));
    if (rng->Bernoulli(0.2)) {
      // Column-vs-column comparison.
      return Binary(op, std::move(col),
                    Col(StringFormat("c%lld", static_cast<long long>(
                                                  rng->NextBounded(4)))));
    }
    if (rng->Bernoulli(0.15)) {
      std::vector<int64_t> values;
      for (int i = 0; i < 3; ++i) values.push_back(rng->UniformInt(-5, 5));
      return InList(std::move(col), std::move(values));
    }
    return Binary(op, std::move(col), Lit(rng->UniformInt(-110, 110)));
  }
  switch (rng->NextBounded(3)) {
    case 0:
      return And(RandomPredicate(rng, depth - 1),
                 RandomPredicate(rng, depth - 1));
    case 1:
      return Or(RandomPredicate(rng, depth - 1),
                RandomPredicate(rng, depth - 1));
    default:
      return Not(RandomPredicate(rng, depth - 1));
  }
}

QueryPlan RandomPlan(Rng* rng, int64_t dim_rows) {
  QueryPlan plan;
  plan.name = "fuzz";
  plan.fact_table = "f";
  if (rng->Bernoulli(0.8)) {
    plan.fact_filter = RandomPredicate(rng, 3);
  }
  if (rng->Bernoulli(0.4)) {
    DimJoin dim;
    dim.hop = {"fk", "d", "d_pk"};
    if (rng->Bernoulli(0.7)) {
      dim.filter = Binary(BinaryOp::kLt, Col("d_v"),
                          Lit(rng->UniformInt(-60, 60)));
    }
    plan.dims.push_back(std::move(dim));
  }
  // One subtree reused by two aggregates and, in grouped plans, possibly
  // by the key: the tile program computes it once per tile.
  ExprPtr shared = RandomNumeric(rng, 1);
  if (rng->Bernoulli(0.5)) {
    plan.group_by = rng->Bernoulli(0.4)   ? Col("fk")
                    : rng->Bernoulli(0.5) ? shared->Clone()
                                          : RandomNumeric(rng, 1);
    plan.group_cardinality_hint = dim_rows;
  }
  // 1-10 aggregates: the group updates unroll up to 8 and loop above.
  const int naggs = static_cast<int>(rng->UniformInt(1, 10));
  const int shared_a = static_cast<int>(rng->NextBounded(naggs));
  const int shared_b = static_cast<int>(rng->NextBounded(naggs));
  for (int a = 0; a < naggs; ++a) {
    std::string name = StringFormat("agg%d", a);
    if (a == shared_a || a == shared_b) {
      plan.aggs.emplace_back(AggKind::kSum,
                             a == shared_a ? shared->Clone()
                                           : Add(shared->Clone(),
                                                 RandomNumeric(rng, 1)),
                             std::move(name));
    } else if (rng->Bernoulli(0.2)) {
      plan.aggs.emplace_back(AggKind::kCount, nullptr, std::move(name));
    } else {
      plan.aggs.emplace_back(AggKind::kSum, RandomNumeric(rng, 2),
                             std::move(name));
    }
  }
  // A divisor that is zero on some rows, guarded by a top-level conjunct:
  // every row the plan keeps divides by a nonzero value, while the pullup
  // forms divide the rows it discards too.
  if (rng->Bernoulli(0.3)) {
    ExprPtr guard = Ne(Col("zdiv"), Lit(0));
    plan.fact_filter = plan.fact_filter == nullptr
                           ? std::move(guard)
                           : And(std::move(guard),
                                 std::move(plan.fact_filter));
    plan.aggs.emplace_back(AggKind::kSum,
                           Div(RandomNumeric(rng, 1), Col("zdiv")),
                           StringFormat("agg%d", naggs));
  }
  return plan;
}

// Every engine configuration a plan runs under: the four strategies, SWOLE
// also under each forced aggregation technique, at 1 and 4 threads.
std::vector<std::pair<StrategyKind, StrategyOptions>> EngineConfigs() {
  std::vector<std::pair<StrategyKind, StrategyOptions>> configs;
  for (int threads : {1, 4}) {
    StrategyOptions options;
    options.tile_size = 128;  // many tile boundaries at fuzz scale
    options.num_threads = threads;
    for (StrategyKind kind :
         {StrategyKind::kDataCentric, StrategyKind::kHybrid,
          StrategyKind::kRof, StrategyKind::kSwole}) {
      configs.emplace_back(kind, options);
    }
    for (StrategyOptions::ForceAgg force :
         {StrategyOptions::ForceAgg::kValueMasking,
          StrategyOptions::ForceAgg::kKeyMasking,
          StrategyOptions::ForceAgg::kHybridFallback}) {
      options.force_agg = force;
      configs.emplace_back(StrategyKind::kSwole, options);
    }
  }
  return configs;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferentialTest, EnginesMatchOracleOnRandomPlans) {
  Rng rng(0xF00D + static_cast<uint64_t>(GetParam()) * 7919);
  std::unique_ptr<FuzzData> data = MakeFuzzData(&rng);
  ReferenceEngine oracle(data->catalog);

  for (int round = 0; round < 8; ++round) {
    QueryPlan plan = RandomPlan(&rng, data->dim_rows);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok())
        << expected.status().ToString() << "\n" << plan.ToString();

    for (const auto& [kind, options] : EngineConfigs()) {
      std::unique_ptr<Strategy> engine =
          MakeStrategy(kind, data->catalog, options);
      Result<QueryResult> actual = engine->Execute(plan);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(*actual, *expected)
          << "strategy " << engine->name() << " (forced agg "
          << static_cast<int>(options.force_agg) << ", "
          << options.num_threads << " threads) diverges on\n"
          << plan.ToString() << "\nexpected:\n"
          << expected->ToString() << "actual:\n"
          << actual->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace swole

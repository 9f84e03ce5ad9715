// Unit tests for the plan algebra: validation catches malformed plans,
// ToString renders stable shapes, the catalog behaves, and the result
// container's sorting/equality semantics hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/hash_table.h"
#include "plan/plan.h"
#include "plan/result.h"
#include "storage/table.h"

namespace swole {
namespace {

std::unique_ptr<Column> IntColumn(const std::string& name,
                                  std::vector<int64_t> values) {
  auto col =
      std::make_unique<Column>(name, ColumnType::Int(PhysicalType::kInt64));
  for (int64_t v : values) col->Append(v);
  return col;
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = std::make_shared<Table>("s");
    ASSERT_TRUE(s->AddColumn(IntColumn("s_pk", {0, 1, 2, 3})).ok());
    ASSERT_TRUE(s->AddColumn(IntColumn("s_x", {5, 6, 7, 8})).ok());

    auto r = std::make_shared<Table>("r");
    ASSERT_TRUE(r->AddColumn(IntColumn("r_fk", {3, 0, 1, 1, 2})).ok());
    ASSERT_TRUE(r->AddColumn(IntColumn("r_a", {10, 20, 30, 40, 50})).ok());
    Result<FkIndex> index =
        FkIndex::Build(r->ColumnRef("r_fk"), s->ColumnRef("s_pk"));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(r->AddFkIndex("r_fk", std::move(index).value()).ok());

    ASSERT_TRUE(catalog_.AddTable(r).ok());
    ASSERT_TRUE(catalog_.AddTable(s).ok());
  }

  QueryPlan BasePlan() {
    QueryPlan plan;
    plan.name = "test";
    plan.fact_table = "r";
    plan.aggs.emplace_back(AggKind::kSum, Col("r_a"), "sum_a");
    return plan;
  }

  Catalog catalog_;
};

TEST_F(PlanTest, CatalogRejectsDuplicatesAndFindsTables) {
  EXPECT_TRUE(catalog_.GetTable("r").ok());
  EXPECT_FALSE(catalog_.GetTable("zzz").ok());
  EXPECT_EQ(catalog_.AddTable(std::make_shared<Table>("r")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.TableNames().size(), 2u);
}

TEST_F(PlanTest, ValidMinimalPlan) {
  EXPECT_TRUE(ValidatePlan(BasePlan(), catalog_).ok());
}

TEST_F(PlanTest, RejectsUnknownFactTable) {
  QueryPlan plan = BasePlan();
  plan.fact_table = "nope";
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(), StatusCode::kNotFound);
}

TEST_F(PlanTest, RejectsNonBooleanFilter) {
  QueryPlan plan = BasePlan();
  plan.fact_filter = Col("r_a");
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(), StatusCode::kTypeError);
}

TEST_F(PlanTest, RejectsHopWithoutFkIndex) {
  QueryPlan plan = BasePlan();
  DimJoin dim;
  dim.hop = {"r_a", "s", "s_pk"};  // r_a has no registered index
  plan.dims.push_back(std::move(dim));
  EXPECT_FALSE(ValidatePlan(plan, catalog_).ok());
}

TEST_F(PlanTest, RejectsBadPkColumnInHop) {
  QueryPlan plan = BasePlan();
  DimJoin dim;
  dim.hop = {"r_fk", "s", "not_a_column"};
  plan.dims.push_back(std::move(dim));
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(), StatusCode::kNotFound);
}

TEST_F(PlanTest, AcceptsValidDimAndPath) {
  QueryPlan plan = BasePlan();
  DimJoin dim;
  dim.hop = {"r_fk", "s", "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(7));
  plan.dims.push_back(std::move(dim));
  ColumnPath path;
  path.alias = "sx";
  path.hops = {{"r_fk", "s", "s_pk"}};
  path.column = "s_x";
  plan.paths.push_back(std::move(path));
  plan.path_equalities.push_back({"sx", "sx"});
  EXPECT_TRUE(ValidatePlan(plan, catalog_).ok());
}

TEST_F(PlanTest, RejectsDuplicateAlias) {
  QueryPlan plan = BasePlan();
  for (int i = 0; i < 2; ++i) {
    ColumnPath path;
    path.alias = "p";
    path.hops = {{"r_fk", "s", "s_pk"}};
    path.column = "s_x";
    plan.paths.push_back(std::move(path));
  }
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, RejectsUnknownEqualityAlias) {
  QueryPlan plan = BasePlan();
  plan.path_equalities.push_back({"ghost", "ghost"});
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(), StatusCode::kNotFound);
}

TEST_F(PlanTest, RejectsGroupByConflicts) {
  QueryPlan plan = BasePlan();
  plan.group_by = Col("r_fk");
  plan.group_by_path = "something";
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, RejectsCountWithExpression) {
  QueryPlan plan = BasePlan();
  plan.aggs.clear();
  AggSpec bad;
  bad.kind = AggKind::kCount;
  bad.expr = Col("r_a");
  bad.name = "bad";
  plan.aggs.push_back(std::move(bad));
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, RejectsGroupedMinMax) {
  QueryPlan plan = BasePlan();
  plan.group_by = Col("r_fk");
  plan.aggs.clear();
  plan.aggs.emplace_back(AggKind::kMin, Col("r_a"), "min_a");
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kUnimplemented);
}

TEST_F(PlanTest, RejectsEmptyAggList) {
  QueryPlan plan = BasePlan();
  plan.aggs.clear();
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, RejectsHistogramWithoutGroupBy) {
  QueryPlan plan = BasePlan();
  plan.histogram_of_agg0 = true;
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, RejectsSeedWithoutGroupBy) {
  QueryPlan plan = BasePlan();
  plan.group_seed = GroupSeed{"s", "s_pk"};
  EXPECT_EQ(ValidatePlan(plan, catalog_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, ToStringRendersStructure) {
  QueryPlan plan = BasePlan();
  plan.fact_filter = Lt(Col("r_a"), Lit(25));
  DimJoin dim;
  dim.hop = {"r_fk", "s", "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(7));
  plan.dims.push_back(std::move(dim));
  plan.group_by = Col("r_fk");
  std::string s = plan.ToString();
  EXPECT_NE(s.find("scan r"), std::string::npos);
  EXPECT_NE(s.find("join s"), std::string::npos);
  EXPECT_NE(s.find("group by"), std::string::npos);
  EXPECT_NE(s.find("sum"), std::string::npos);
}

TEST_F(PlanTest, DimCloneTreeIsDeep) {
  DimJoin dim;
  dim.hop = {"r_fk", "s", "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(7));
  DimJoin child;
  child.hop = {"x", "y", "z"};
  dim.children.push_back(std::move(child));
  DimJoin copy = dim.CloneTree();
  EXPECT_EQ(copy.children.size(), 1u);
  copy.filter->children[1]->literal = 99;
  EXPECT_EQ(dim.filter->children[1]->literal, 7);
}

TEST(QueryResultTest, SortGroupsOrdersKeysAndAggsTogether) {
  QueryResult result;
  result.grouped = true;
  result.num_aggs = 2;
  int64_t a1[] = {10, 11};
  int64_t a2[] = {20, 21};
  int64_t a3[] = {30, 31};
  result.AddGroup(5, a1);
  result.AddGroup(1, a2);
  result.AddGroup(3, a3);
  result.SortGroups();
  EXPECT_EQ(result.group_keys, (std::vector<int64_t>{1, 3, 5}));
  EXPECT_EQ(result.GroupAgg(0, 0), 20);
  EXPECT_EQ(result.GroupAgg(1, 1), 31);
  EXPECT_EQ(result.GroupAgg(2, 0), 10);
}

// SortGroups is a radix sort; std::stable_sort of the same rows is the
// reference for every key shape, size and aggregate count. The aggregates
// of row i encode i, so they show both that they moved with their key and
// that equal keys kept their input order.
TEST(QueryResultTest, SortGroupsMatchesStableSort) {
  std::mt19937_64 rng(20);
  using KeyGen = std::function<int64_t(int64_t i, int64_t n)>;
  const std::vector<std::pair<std::string, KeyGen>> shapes = {
      {"dense", [](int64_t i, int64_t) { return i; }},
      {"random64", [&](int64_t, int64_t) {
         return static_cast<int64_t>(rng());
       }},
      {"negative", [&](int64_t, int64_t) {
         return -1 - static_cast<int64_t>(rng() >> 24);
       }},
      {"extremes", [&](int64_t i, int64_t) {
         const int64_t picks[] = {INT64_MIN, INT64_MAX, HashTable::kMaskKey,
                                  -1, 0, 1};
         return i % 2 == 0 ? picks[rng() % 6]
                           : static_cast<int64_t>(rng());
       }},
      {"repeated", [&](int64_t, int64_t) {
         return static_cast<int64_t>(rng() % 11) - 5;
       }},
      {"repeated_wide", [&](int64_t, int64_t n) {
         return static_cast<int64_t>(rng() % std::max<int64_t>(n / 3, 1)) *
                    (int64_t{1} << 40) -
                (int64_t{1} << 50);
       }},
  };
  for (const auto& [shape, gen] : shapes) {
    for (int64_t n : {0, 1, 2, 255, 256, 257, 100'000}) {
      std::vector<int64_t> keys(n);
      for (int64_t i = 0; i < n; ++i) keys[i] = gen(i, n);
      // Dense keys arrive shuffled, as a hash table emits them.
      if (shape == "dense") std::shuffle(keys.begin(), keys.end(), rng);
      std::vector<int64_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](int64_t a, int64_t b) { return keys[a] < keys[b]; });
      for (int num_aggs = 0; num_aggs <= 3; ++num_aggs) {
        QueryResult result;
        result.grouped = true;
        result.num_aggs = num_aggs;
        QueryResult expected = result;
        std::vector<int64_t> aggs(num_aggs);
        auto row_aggs = [&](int64_t row) {
          for (int a = 0; a < num_aggs; ++a) aggs[a] = row * 4 + a;
          return aggs.data();
        };
        for (int64_t i = 0; i < n; ++i) result.AddGroup(keys[i], row_aggs(i));
        for (int64_t i : order) expected.AddGroup(keys[i], row_aggs(i));
        result.SortGroups();
        EXPECT_EQ(result.group_keys, expected.group_keys)
            << shape << " n=" << n << " aggs=" << num_aggs;
        EXPECT_EQ(result.group_aggs, expected.group_aggs)
            << shape << " n=" << n << " aggs=" << num_aggs;
      }
    }
  }
}

TEST(QueryResultTest, EqualityIgnoresNames) {
  QueryResult a;
  a.scalar = {1, 2};
  a.agg_names = {"x", "y"};
  QueryResult b;
  b.scalar = {1, 2};
  b.agg_names = {"p", "q"};
  EXPECT_EQ(a, b);
  b.scalar[1] = 3;
  EXPECT_FALSE(a == b);
}

TEST(QueryResultTest, ToStringTruncates) {
  QueryResult result;
  result.grouped = true;
  result.num_aggs = 1;
  for (int64_t k = 0; k < 30; ++k) {
    int64_t v = k;
    result.AddGroup(k, &v);
  }
  std::string s = result.ToString(/*max_rows=*/5);
  EXPECT_NE(s.find("30 groups"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

}  // namespace
}  // namespace swole

// Code-generation tests: the emitted source contains each strategy's
// signature loop shapes (golden-ish structural checks of Fig. 1/3/4), the
// JIT pipeline compiles and loads it, and the compiled kernels produce
// bit-exact results against the reference oracle across strategies,
// selectivities, and plan shapes.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "codegen/generator.h"
#include "codegen/jit.h"
#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "storage/table.h"

namespace swole {
namespace {

using codegen::CompiledKernel;
using codegen::GeneratedKernel;
using codegen::GeneratorOptions;

class CodegenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 10'000;
    config.s_small_rows = 50;
    config.s_large_rows = 500;
    config.c_cardinalities = {10, 200};
    config.seed = 5;
    data_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static GeneratorOptions Options(StrategyKind kind,
                                  AggChoice choice = AggChoice::kValueMasking) {
    GeneratorOptions options;
    options.strategy = kind;
    options.agg_choice = choice;
    return options;
  }

  static void CheckCompiledMatchesOracle(const QueryPlan& plan,
                                         const GeneratorOptions& options) {
    ReferenceEngine oracle(data_->catalog);
    QueryResult expected = oracle.Execute(plan).value();
    Result<std::unique_ptr<CompiledKernel>> compiled =
        codegen::GenerateAndCompile(plan, data_->catalog, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    Result<QueryResult> actual = (*compiled)->Run(data_->catalog);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(*actual, expected)
        << plan.name << " strategy "
        << StrategyKindName(options.strategy) << "\nsource:\n"
        << (*compiled)->kernel().source;
  }

  static MicroData* data_;
};

MicroData* CodegenTest::data_ = nullptr;

TEST_F(CodegenTest, DataCentricSourceHasFusedBranchingLoop) {
  GeneratedKernel kernel =
      codegen::GenerateKernel(MicroQ1(false, 13), data_->catalog,
                              Options(StrategyKind::kDataCentric))
          .value();
  // Fig. 1 top: a single loop, an if with the predicate, no cmp/idx arrays.
  EXPECT_NE(kernel.source.find("if (!("), std::string::npos);
  EXPECT_EQ(kernel.source.find("cmp["), std::string::npos);
  EXPECT_EQ(kernel.source.find("idx["), std::string::npos);
  EXPECT_NE(kernel.source.find("continue;"), std::string::npos);
}

TEST_F(CodegenTest, HybridSourceHasPrepassAndSelectionVector) {
  GeneratedKernel kernel =
      codegen::GenerateKernel(MicroQ1(false, 13), data_->catalog,
                              Options(StrategyKind::kHybrid))
          .value();
  // Fig. 1 middle: tiled prepass into cmp — the column-vs-literal leaf
  // lowers to the dispatched width-native CompareLit kernel — then the
  // no-branch selection-vector kernel (scalar/AVX2 at runtime).
  EXPECT_NE(kernel.source.find("swole::kernels::CompareLit("),
            std::string::npos);
  EXPECT_NE(
      kernel.source.find("swole::kernels::SelVecFromCmpNoBranch(cmp, len"),
      std::string::npos);
  EXPECT_NE(kernel.source.find("kTile"), std::string::npos);
}

TEST_F(CodegenTest, SwoleValueMaskingSourceMasksTheAggregate) {
  GeneratedKernel kernel =
      codegen::GenerateKernel(MicroQ1(false, 13), data_->catalog,
                              Options(StrategyKind::kSwole))
          .value();
  // Fig. 3: sum(a*b) lowers to the dispatched masked-product kernel;
  // no idx array anywhere in the masked pipeline.
  EXPECT_NE(kernel.source.find("swole::kernels::SumProductMasked("),
            std::string::npos);
  EXPECT_EQ(kernel.source.find("idx["), std::string::npos);

  // Shapes outside the kernel subset (division) stay in the branch-free
  // lane loop with an explicit mask multiply.
  GeneratedKernel div_kernel =
      codegen::GenerateKernel(MicroQ1(true, 13), data_->catalog,
                              Options(StrategyKind::kSwole))
          .value();
  EXPECT_NE(div_kernel.source.find(") * cmp[j];"), std::string::npos);
  EXPECT_EQ(div_kernel.source.find("SumProductMasked"), std::string::npos);
}

TEST_F(CodegenTest, SwoleKeyMaskingSourceMapsToThrowawayKey) {
  GeneratedKernel kernel =
      codegen::GenerateKernel(
          MicroQ2(data_->c_columns[0], data_->c_actual[0], 13),
          data_->catalog,
          Options(StrategyKind::kSwole, AggChoice::kKeyMasking))
          .value();
  // Fig. 4 bottom: masked key select + the reserved throwaway entry,
  // probed per tile with one software-pipelined batch.
  EXPECT_NE(kernel.source.find("kMaskKey"), std::string::npos);
  EXPECT_NE(kernel.source.find("groups.GetOrInsertBatch("),
            std::string::npos);
  EXPECT_NE(kernel.source.find("p[0] += 1;"), std::string::npos);
}

TEST_F(CodegenTest, SwoleJoinSourceUsesPositionalBitmap) {
  GeneratedKernel kernel =
      codegen::GenerateKernel(MicroQ4(false, 50, 50), data_->catalog,
                              Options(StrategyKind::kSwole))
          .value();
  EXPECT_NE(kernel.source.find("PositionalBitmap"), std::string::npos);
  EXPECT_NE(kernel.source.find("bm0.Test(offs0[i + j])"),
            std::string::npos);
  EXPECT_EQ(kernel.source.find("HashTable dim"), std::string::npos);
}

TEST_F(CodegenTest, HashStrategiesJoinViaHashTable) {
  GeneratedKernel kernel =
      codegen::GenerateKernel(MicroQ4(false, 50, 50), data_->catalog,
                              Options(StrategyKind::kHybrid))
          .value();
  EXPECT_NE(kernel.source.find("swole::HashTable dim0"), std::string::npos);
  EXPECT_NE(kernel.source.find("dim0.ContainsBatch("), std::string::npos);
  EXPECT_EQ(kernel.source.find("PositionalBitmap"), std::string::npos);
}

TEST_F(CodegenTest, RejectsUnsupportedPlans) {
  GeneratorOptions options = Options(StrategyKind::kHybrid);
  // ROF emission is not implemented.
  EXPECT_EQ(codegen::GenerateKernel(MicroQ1(false, 10), data_->catalog,
                                    Options(StrategyKind::kRof))
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // Histogram post-steps are outside the subset.
  QueryPlan plan = MicroQ2(data_->c_columns[0], 10, 50);
  plan.histogram_of_agg0 = true;
  EXPECT_EQ(
      codegen::GenerateKernel(plan, data_->catalog, options).status().code(),
      StatusCode::kUnimplemented);
}

struct JitCase {
  StrategyKind kind;
  AggChoice choice;
};

class CodegenJitSweep : public CodegenTest,
                        public ::testing::WithParamInterface<int> {
 protected:
  static GeneratorOptions CaseOptions() {
    switch (GetParam()) {
      case 0:
        return Options(StrategyKind::kDataCentric);
      case 1:
        return Options(StrategyKind::kHybrid);
      case 2:
        return Options(StrategyKind::kSwole, AggChoice::kValueMasking);
      case 3:
        return Options(StrategyKind::kSwole, AggChoice::kKeyMasking);
      default:
        return Options(StrategyKind::kSwole, AggChoice::kHybridFallback);
    }
  }
};

TEST_P(CodegenJitSweep, ScalarAggregation) {
  CheckCompiledMatchesOracle(MicroQ1(false, 37), CaseOptions());
}

TEST_P(CodegenJitSweep, DivisionAggregation) {
  // Division is safe here even under value masking: r_b >= 1.
  CheckCompiledMatchesOracle(MicroQ1(true, 80), CaseOptions());
}

TEST_P(CodegenJitSweep, GroupByAggregation) {
  CheckCompiledMatchesOracle(
      MicroQ2(data_->c_columns[1], data_->c_actual[1], 45), CaseOptions());
}

TEST_P(CodegenJitSweep, FkJoin) {
  CheckCompiledMatchesOracle(MicroQ4(true, 60, 40), CaseOptions());
}

TEST_P(CodegenJitSweep, Groupjoin) {
  CheckCompiledMatchesOracle(MicroQ5(false, 50, 50), CaseOptions());
}

INSTANTIATE_TEST_SUITE_P(Strategies, CodegenJitSweep,
                         ::testing::Range(0, 5));

TEST_F(CodegenTest, SelectivityBoundaries) {
  for (int64_t sel : {0, 100}) {
    CheckCompiledMatchesOracle(MicroQ1(false, sel),
                               Options(StrategyKind::kDataCentric));
    CheckCompiledMatchesOracle(MicroQ1(false, sel),
                               Options(StrategyKind::kSwole));
  }
}

TEST_F(CodegenTest, TpchQ1AndQ6CompileAndMatchOracle) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  config.seed = 17;
  auto tpch_data = tpch::TpchData::Generate(config);
  ReferenceEngine oracle(tpch_data->catalog);

  for (StrategyKind kind :
       {StrategyKind::kDataCentric, StrategyKind::kHybrid,
        StrategyKind::kSwole}) {
    for (int q = 0; q < 2; ++q) {
      QueryPlan plan = q == 0 ? tpch::Q1(tpch_data->catalog)
                              : tpch::Q6(tpch_data->catalog);
      QueryResult expected = oracle.Execute(plan).value();
      GeneratorOptions options;
      options.strategy = kind;
      options.agg_choice =
          q == 0 ? AggChoice::kKeyMasking : AggChoice::kValueMasking;
      options.group_capacity_hint = 16;
      Result<std::unique_ptr<CompiledKernel>> compiled =
          codegen::GenerateAndCompile(plan, tpch_data->catalog, options);
      ASSERT_TRUE(compiled.ok())
          << plan.name << ": " << compiled.status().ToString();
      Result<QueryResult> actual = (*compiled)->Run(tpch_data->catalog);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, expected)
          << plan.name << " " << StrategyKindName(kind);
    }
  }
}

TEST(CodegenDivisionTest, BranchFreeLanesSkipZeroDivisorsOfRejectedRows) {
  // b is 0 on every 7th row and `b <> 0` rejects exactly those rows, but
  // SWOLE's value-masked lane loop divides every lane first. The kernel
  // itself must answer: no trap, no interpreted fallback.
  Catalog catalog;
  auto table = std::make_shared<Table>("t");
  auto a = std::make_unique<Column>("a", ColumnType::Int(PhysicalType::kInt32));
  auto b = std::make_unique<Column>("b", ColumnType::Int(PhysicalType::kInt32));
  for (int64_t i = 0; i < 4096; ++i) {
    a->Append((i * 7919) % 2001 - 1000);
    b->Append(i % 7 == 0 ? 0 : 1 + i % 5);
  }
  table->AddColumn(std::move(a)).CheckOK();
  table->AddColumn(std::move(b)).CheckOK();
  catalog.AddTable(table).CheckOK();

  QueryPlan plan;
  plan.name = "jit_guarded_division";
  plan.fact_table = "t";
  plan.fact_filter = Ne(Col("b"), Lit(0));
  plan.aggs.emplace_back(AggKind::kSum, Div(Add(Col("a"), Lit(1)), Col("b")),
                         "s");
  QueryResult expected = ReferenceEngine(catalog).Execute(plan).value();

  GeneratorOptions options;
  options.strategy = StrategyKind::kSwole;
  options.agg_choice = AggChoice::kValueMasking;
  codegen::ExecutionReport report;
  Result<QueryResult> actual =
      codegen::ExecuteWithFallback(plan, catalog, options, {}, &report);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_TRUE(report.used_jit) << report.fallback_reason;
  EXPECT_EQ(*actual, expected);
}

TEST_F(CodegenTest, KeepArtifactsLeavesSourceOnDisk) {
  codegen::JitOptions jit;
  jit.keep_artifacts = true;
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(MicroQ1(false, 10), data_->catalog,
                                  Options(StrategyKind::kHybrid), jit);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::ifstream source((*compiled)->source_path());
  EXPECT_TRUE(source.good());
}

}  // namespace
}  // namespace swole

/** @file Tests for the §5.2/§6.4 extensibility hooks: user classifier
 * rules and user-registered repair templates. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "repair/edit.h"
#include "repair/localizer.h"
#include "repair/search.h"
#include "support/run_context.h"

namespace heterogen::repair {
namespace {

using hls::ErrorCategory;

class ExtensibilityTest : public ::testing::Test
{
  protected:
    void TearDown() override { clearClassifierKeywords(); }
};

TEST_F(ExtensibilityTest, UserKeywordRuleClassifiesNewDiagnostics)
{
    const char *msg = "ERROR: [FROB 1-1] frobnication unit exhausted";
    EXPECT_FALSE(classifyMessage(msg).has_value());
    addClassifierKeyword("frobnication",
                         ErrorCategory::LoopParallelization);
    auto category = classifyMessage(msg);
    ASSERT_TRUE(category.has_value());
    EXPECT_EQ(*category, ErrorCategory::LoopParallelization);
}

TEST_F(ExtensibilityTest, UserRulesTakePrecedence)
{
    // Built-ins would say DynamicDataStructures for "recursive"; a user
    // rule keyed on a more specific phrase wins because it runs first.
    addClassifierKeyword("co-recursive scheduling",
                         ErrorCategory::TopFunction);
    auto category = classifyMessage(
        "co-recursive scheduling conflict in the design");
    ASSERT_TRUE(category.has_value());
    EXPECT_EQ(*category, ErrorCategory::TopFunction);
}

TEST_F(ExtensibilityTest, RegisteredTemplateParticipatesInSearch)
{
    // A toy "matrix partitioning" edit (the extension §6.4 names):
    // rename the kernel's first parameter — observable in the output.
    static bool applied = false;
    applied = false;
    if (!EditRegistry::instance().find("matrix_partition($a1:arr)")) {
        EditTemplate custom;
        custom.name = "matrix_partition($a1:arr)";
        custom.categories = {ErrorCategory::DataflowOptimization};
        custom.performance_improving = true;
        custom.apply = [](RepairContext &ctx) {
            applied = true;
            // Benign marker: add a global the printer will show.
            if (ctx.tu.findGlobal("__matrix_partition_marker"))
                return false;
            ctx.tu.globals.push_back(std::make_unique<cir::DeclStmt>(
                cir::Type::intType(), "__matrix_partition_marker",
                std::make_unique<cir::IntLit>(1)));
            return true;
        };
        EditRegistry::registerTemplate(std::move(custom));
    }
    ASSERT_NE(EditRegistry::instance().find(
                  "matrix_partition($a1:arr)"),
              nullptr);
    EXPECT_THROW(EditRegistry::registerTemplate(EditTemplate{
                     "matrix_partition($a1:arr)", {}, {}, false,
                     [](RepairContext &) { return false; }}),
                 FatalError)
        << "duplicate names are rejected";

    // The performance phase picks the new template up automatically.
    auto tu = cir::parse(R"(
        int kernel(int a[16]) {
            int acc = 0;
            for (int i = 0; i < 16; i++) { acc += a[i]; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    fuzz::TestSuite suite;
    suite.add({interp::KernelArg::ofInts(std::vector<long>(16, 2))});
    interp::ValueProfile profile;
    SearchOptions options;
    options.budget_minutes = 300;
    RunContext ctx;
    CpuOracle oracle(*tu, "kernel", suite);
    auto result = repairSearch(ctx, oracle, *tu,
                               hls::HlsConfig::forTop("kernel"), profile,
                               options);
    EXPECT_TRUE(result.hls_compatible);
    EXPECT_TRUE(applied);
    EXPECT_NE(cir::print(*result.program)
                  .find("__matrix_partition_marker"),
              std::string::npos);
}

TEST_F(ExtensibilityTest, RegistryExposesDependenceStructure)
{
    const auto &registry = EditRegistry::instance();
    // Spot-check the Figure 7c edges.
    const EditTemplate *stream_static =
        registry.find("stream_static($f1:stream,$s1:struct)");
    ASSERT_NE(stream_static, nullptr);
    ASSERT_EQ(stream_static->requires_edits.size(), 1u);
    EXPECT_EQ(stream_static->requires_edits[0],
              "constructor($s1:struct)");
    const EditTemplate *inst_update =
        registry.find("inst_update($s1:struct)");
    ASSERT_NE(inst_update, nullptr);
    EXPECT_EQ(inst_update->requires_edits[0], "flatten($s1:struct)");
    // Dependence-aware enumeration respects the edges.
    auto none = registry.applicable(ErrorCategory::StructAndUnion, {});
    for (const auto *t : none) {
        EXPECT_TRUE(t->requires_edits.empty())
            << t->name << " offered before its dependences";
    }
    auto after = registry.applicable(ErrorCategory::StructAndUnion,
                                     {"constructor($s1:struct)"});
    bool offers_stream_static = false;
    for (const auto *t : after)
        offers_stream_static |= t->name == stream_static->name;
    EXPECT_TRUE(offers_stream_static);
}

} // namespace
} // namespace heterogen::repair

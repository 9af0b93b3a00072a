/** @file Behavioural tests of the repair search: fitness-driven
 * reverts, fallback edits, ablation switches, accounting. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "core/heterogen.h"
#include "hls/synth_check.h"
#include "repair/search.h"
#include "support/strings.h"

namespace heterogen::repair {
namespace {

using interp::KernelArg;

/** Convenience: run the full pipeline on source text. */
core::HeteroGenReport
runPipeline(const std::string &src, const std::string &kernel,
            const std::string &host = "",
            double budget_minutes = 400)
{
    core::HeteroGen engine(src);
    core::HeteroGenOptions opts;
    opts.kernel = kernel;
    opts.fuzz.host_function = host;
    opts.fuzz.max_executions = 400;
    opts.fuzz.min_suite_size = 12;
    opts.search.budget_minutes = budget_minutes;
    opts.search.difftest_sample = 10;
    return engine.run(opts);
}

TEST(Search, SegmentEditRevertedWhenCalleeWritesSharedArray)
{
    // The dataflow-shared-array error has two fixes: duplicating the
    // buffer (keeps the pragma, but changes behaviour when the first
    // call WRITES the array) and deleting the pragma. Differential
    // testing must reject the first and the search must land on the
    // second.
    const char *src = R"(
        void bump(int data[16]) {
            for (int i = 0; i < 16; i++) { data[i] = data[i] + 1; }
        }
        int kernel(int seedv) {
            #pragma HLS dataflow
            int data[16];
            for (int i = 0; i < 16; i++) { data[i] = seedv + i; }
            bump(data);
            bump(data);
            int acc = 0;
            for (int i = 0; i < 16; i++) { acc += data[i]; }
            return acc;
        }
    )";
    auto report = runPipeline(src, "kernel");
    ASSERT_TRUE(report.ok())
        << join(report.search.applied_order, ", ");
    // The final program must still double-bump (behaviour preserved).
    auto final_errors = hls::checkSynthesizability(
        *report.search.program, report.search.config);
    EXPECT_TRUE(final_errors.empty());
    // A revert must appear in the trace: segment was tried and undone,
    // or never survived.
    std::string final_text = cir::print(*report.search.program);
    bool kept_seg = final_text.find("__seg") != std::string::npos;
    EXPECT_FALSE(kept_seg)
        << "the behaviour-changing duplicate must not survive:\n"
        << final_text;
}

TEST(Search, TraceRecordsActionsWithTimestamps)
{
    auto report = runPipeline(
        "int kernel(int x) { long double v = x; return v; }", "kernel");
    ASSERT_TRUE(report.ok());
    ASSERT_FALSE(report.search.trace.empty());
    double last = 0;
    bool saw_compile = false;
    bool saw_edit = false;
    for (const auto &step : report.search.trace) {
        EXPECT_GE(step.minutes_after, last);
        last = step.minutes_after;
        saw_compile |= startsWith(step.action, "compile:");
        saw_edit |= startsWith(step.action, "edit:");
    }
    EXPECT_TRUE(saw_compile);
    EXPECT_TRUE(saw_edit);
}

TEST(Search, MinutesToSuccessNeverExceedsTotal)
{
    auto report = runPipeline(
        "int kernel(int x) { long double v = x; return v; }", "kernel");
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report.search.minutes_to_success,
              report.search.sim_minutes);
    EXPECT_GT(report.search.minutes_to_success, 0.0);
}

TEST(Search, BudgetBoundsSimulatedTime)
{
    // A budget smaller than two style checks stops the search before it
    // ever reaches a full compile, and failure is reported honestly.
    // (The budget is checked between iterations — a started synthesis
    // runs to completion, as in reality — so the bound here is loose.)
    const char *src = R"(
        struct Node { int val; Node *next; };
        int kernel(int n) {
            Node *p = (Node*)malloc(sizeof(Node));
            p->val = n;
            return p->val;
        }
    )";
    auto report = runPipeline(src, "kernel", "", 0.12);
    EXPECT_FALSE(report.search.hls_compatible);
    EXPECT_EQ(report.search.full_hls_invocations, 0);
    EXPECT_LE(report.search.sim_minutes, 1.0);
}

TEST(Search, AlreadyCleanProgramSucceedsImmediately)
{
    auto report = runPipeline(R"(
        int kernel(int a[16]) {
            int acc = 0;
            for (int i = 0; i < 16; i++) { acc += a[i]; }
            return acc;
        }
    )",
                              "kernel");
    ASSERT_TRUE(report.ok());
    // Only performance edits were needed.
    for (const auto &e : report.search.applied_order) {
        EXPECT_TRUE(contains(e, "pipeline") || contains(e, "unroll") ||
                    contains(e, "partition") || contains(e, "dataflow") ||
                    contains(e, "resize"))
            << e;
    }
}

TEST(Search, PassRatioReportedOnSuccess)
{
    auto report = runPipeline(
        "int kernel(int x) { long double v = x; return v + 1; }",
        "kernel");
    ASSERT_TRUE(report.ok());
    EXPECT_DOUBLE_EQ(report.search.pass_ratio, 1.0);
}

TEST(Search, AppliedOrderRespectsTypeChainDependence)
{
    auto report = runPipeline(
        "int kernel(int x) { long double v = x; v = v + 1; return v; }",
        "kernel");
    ASSERT_TRUE(report.ok());
    const auto &order = report.search.applied_order;
    auto pos = [&](const char *needle) {
        for (size_t i = 0; i < order.size(); ++i) {
            if (contains(order[i], needle))
                return int(i);
        }
        return -1;
    };
    int trans = pos("type_trans");
    int casting = pos("type_casting");
    ASSERT_GE(trans, 0) << join(order, ", ");
    ASSERT_GE(casting, 0) << join(order, ", ");
    EXPECT_LT(trans, casting)
        << "type_casting depends on type_trans (Figure 7c)";
}

} // namespace
} // namespace heterogen::repair

/** @file Tests for the lightweight HLS coding-style checker. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "stylecheck/stylecheck.h"

namespace heterogen::style {
namespace {

StyleReport
checkSrc(const std::string &src)
{
    auto tu = cir::parse(src);
    cir::analyzeOrDie(*tu);
    return checkStyle(*tu);
}

TEST(StyleCheck, CleanKernel)
{
    auto r = checkSrc(R"(
        int kernel(int a[16]) {
            int acc = 0;
            for (int i = 0; i < 16; i++) {
                #pragma HLS pipeline II=1
                acc += a[i];
            }
            return acc;
        }
    )");
    EXPECT_TRUE(r.clean());
    EXPECT_LT(style::kCheckMinutes, 0.2) << "style checking must be cheap";
}

TEST(StyleCheck, CatchesFrontEndProblems)
{
    auto r = checkSrc(R"(
        struct Node { int val; Node *next; };
        void helper(Node *n) { if (n != 0) { helper(n->next); } }
        int kernel(int n) {
            Node *head = (Node*)malloc(sizeof(Node));
            long double x = 1.0L;
            helper(head);
            return x;
        }
    )");
    ASSERT_FALSE(r.clean());
    auto has = [&](const char *needle) {
        for (const auto &i : r.issues) {
            if (i.message.find(needle) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("recursive"));
    EXPECT_TRUE(has("dynamic allocation"));
    EXPECT_TRUE(has("pointer"));
    EXPECT_TRUE(has("long double"));
}

TEST(StyleCheck, UnrollOutsideLoopRejected)
{
    auto r = checkSrc(R"(
        int kernel(int x) {
            #pragma HLS unroll factor=4
            return x;
        }
    )");
    ASSERT_FALSE(r.clean());
    EXPECT_NE(r.issues[0].message.find("outside a loop"),
              std::string::npos);
}

TEST(StyleCheck, DataflowMustBeAtTop)
{
    auto r = checkSrc(R"(
        int kernel(int a[8]) {
            int acc = 0;
            for (int i = 0; i < 8; i++) {
                #pragma HLS dataflow
                acc += a[i];
            }
            return acc;
        }
    )");
    ASSERT_FALSE(r.clean());
    EXPECT_NE(r.issues[0].message.find("top of a function"),
              std::string::npos);
}

TEST(StyleCheck, ArrayPartitionUnknownVariable)
{
    auto r = checkSrc(R"(
        int kernel(int a[8]) {
            #pragma HLS array_partition variable=nope factor=2
            return a[0];
        }
    )");
    ASSERT_FALSE(r.clean());
    EXPECT_NE(r.issues[0].message.find("unknown variable"),
              std::string::npos);
}

TEST(StyleCheck, ArrayPartitionKnownVariableOk)
{
    auto r = checkSrc(R"(
        int kernel(int a[8]) {
            #pragma HLS array_partition variable=a factor=2
            return a[0];
        }
    )");
    EXPECT_TRUE(r.clean());
}

TEST(StyleCheck, DeepErrorsAreNotStyleErrors)
{
    // Partition-factor divisibility and unroll/dataflow interactions are
    // only discoverable by full synthesis; the style checker must accept
    // these so the search still exercises the toolchain.
    auto r = checkSrc(R"(
        int A[13];
        int kernel() {
            #pragma HLS dataflow
            int acc = 0;
            for (int i = 0; i < 13; i++) {
                #pragma HLS array_partition variable=A factor=4
                #pragma HLS unroll factor=50
                acc += A[i];
            }
            return acc;
        }
    )");
    EXPECT_TRUE(r.clean());
}

TEST(StyleCheck, StructWithoutCtorIsStyleIssue)
{
    auto r = checkSrc(R"(
        struct S {
            int x;
            int get() { return x; }
        };
        int kernel() { return S{ 1 }.get(); }
    )");
    ASSERT_FALSE(r.clean());
    EXPECT_NE(r.issues[0].message.find("constructor"), std::string::npos);
}

TEST(StyleCheck, VlaIsStyleIssue)
{
    auto r = checkSrc("int kernel(int n) { int b[n]; return n; }");
    ASSERT_FALSE(r.clean());
}

TEST(StyleCheck, UnionIsStyleIssue)
{
    auto r = checkSrc(
        "union U { int i; float f; }; int kernel(int x) { return x; }");
    ASSERT_FALSE(r.clean());
}

} // namespace
} // namespace heterogen::style

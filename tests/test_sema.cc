/** @file Unit tests for semantic analysis and the call graph. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "cir/walk.h"

namespace heterogen::cir {
namespace {

TEST(Sema, AssignsUniqueNodeIds)
{
    auto tu = parse("int f(int a) { int b = a + 1; return b * 2; }");
    SemaResult r = analyzeOrDie(*tu);
    EXPECT_GT(r.num_nodes, 5);
    std::set<int> ids;
    bool dup = false;
    forEachStmt(*tu, [&](const Stmt &s) {
        if (!ids.insert(s.node_id).second)
            dup = true;
    });
    forEachExpr(*tu, [&](const Expr &e) {
        if (!ids.insert(e.node_id).second)
            dup = true;
    });
    EXPECT_FALSE(dup) << "node ids must be unique across stmts and exprs";
}

TEST(Sema, CountsBranches)
{
    auto tu = parse(R"(
        int f(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { acc += i; }
            }
            while (acc > 10) { acc /= 2; }
            return acc > 0 ? acc : -acc;
        }
    )");
    SemaResult r = analyzeOrDie(*tu);
    // for + if + while + ternary = 4 branch points.
    EXPECT_EQ(r.num_branches, 4);
}

TEST(Sema, LogicalOperatorsAreBranches)
{
    auto tu = parse("int f(int a, int b) { return a > 0 && b > 0; }");
    SemaResult r = analyzeOrDie(*tu);
    EXPECT_EQ(r.num_branches, 1);
}

TEST(Sema, UndeclaredVariable)
{
    auto tu = parse("int f() { return ghost; }");
    SemaResult r = analyze(*tu);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("ghost"), std::string::npos);
}

TEST(Sema, UndefinedFunctionCall)
{
    auto tu = parse("int f() { return missing(1); }");
    SemaResult r = analyze(*tu);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("missing"), std::string::npos);
}

TEST(Sema, IntrinsicsAreKnown)
{
    auto tu = parse(
        "float f(float x) { return sqrt(fabs(x)) + pow(x, 2.0); }");
    EXPECT_TRUE(analyze(*tu).ok());
}

TEST(Sema, GlobalsVisibleInFunctions)
{
    auto tu = parse("int g = 3; int f() { return g; }");
    EXPECT_TRUE(analyze(*tu).ok());
}

TEST(Sema, StructFieldsVisibleInMethods)
{
    auto tu = parse(R"(
        struct S { int x; int getX() { return x; } };
        int f() { return S{ 1 }.getX(); }
    )");
    EXPECT_TRUE(analyze(*tu).ok());
}

TEST(Sema, ScopesNestAndShadow)
{
    auto tu = parse(R"(
        int f(int x) {
            if (x > 0) { int y = 1; x += y; }
            int y = 2;
            return x + y;
        }
    )");
    EXPECT_TRUE(analyze(*tu).ok());
}

TEST(Sema, OutOfScopeUseFails)
{
    auto tu = parse(R"(
        int f(int x) {
            if (x > 0) { int y = 1; }
            return y;
        }
    )");
    EXPECT_FALSE(analyze(*tu).ok());
}

TEST(Sema, DuplicateFunctionReported)
{
    auto tu = parse("int f() { return 1; } int f() { return 2; }");
    SemaResult r = analyze(*tu);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("duplicate"), std::string::npos);
}

TEST(Sema, UnknownStructType)
{
    auto tu = parse("struct A { int x; }; void f() { struct B b; b.x = 1; }");
    EXPECT_FALSE(analyze(*tu).ok());
}

TEST(CallGraph, DirectRecursionEdge)
{
    auto tu = parse(R"(
        struct Node { int val; Node *left; Node *right; };
        void visit(int v) { }
        void traverse(Node *curr) {
            visit(curr->val);
            traverse(curr->left);
            traverse(curr->right);
        }
    )");
    auto graph = callGraph(*tu);
    EXPECT_TRUE(graph["traverse"].count("traverse"));
    EXPECT_TRUE(graph["traverse"].count("visit"));
    EXPECT_FALSE(graph["visit"].count("traverse"));
}

TEST(CallGraph, IntrinsicsExcluded)
{
    auto tu = parse("float f(float x) { return sqrt(x); }");
    auto graph = callGraph(*tu);
    EXPECT_TRUE(graph["f"].empty());
}

TEST(CallGraph, ReachableFunctions)
{
    auto tu = parse(R"(
        void a() { }
        void b() { a(); }
        void c() { b(); }
        void unrelated() { }
    )");
    auto reach = reachableFunctions(*tu, "c");
    EXPECT_TRUE(reach.count("a"));
    EXPECT_TRUE(reach.count("b"));
    EXPECT_TRUE(reach.count("c"));
    EXPECT_FALSE(reach.count("unrelated"));
}

// The source is held as a std::string, not a const char *: gtest prints
// a C-string parameter with its address, which ASLR moves on every run,
// so the printed parameter (and any test name built from it) would never
// be the same twice.
class BranchCountTest
    : public ::testing::TestWithParam<std::pair<std::string, int>>
{};

TEST_P(BranchCountTest, CountsMatch)
{
    const auto &[src, expected] = GetParam();
    auto tu = parse(src);
    EXPECT_EQ(analyzeOrDie(*tu).num_branches, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, BranchCountTest,
    ::testing::Values(
        std::make_pair("int f() { return 0; }", 0),
        std::make_pair("int f(int x) { if (x) { return 1; } return 0; }",
                       1),
        std::make_pair(
            "int f(int x) { while (x > 0) { x--; } return x; }", 1),
        std::make_pair(
            "int f(int n) { int s = 0; "
            "for (int i = 0; i < n; i++) { if (i % 3 == 0) { s++; } } "
            "return s; }",
            2),
        std::make_pair("int f(int a, int b) { return a && (b || a); }",
                       2)));

} // namespace
} // namespace heterogen::cir

/** @file Tests for AST traversal/rewriting utilities and clone fidelity. */

#include <gtest/gtest.h>

#include <vector>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/walk.h"

namespace heterogen::cir {
namespace {

const char *kProgram = R"(
    int g = 1;
    int f(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            if (i % 2 == 0) {
                acc += i * g;
            } else {
                while (acc > 10) { acc /= 2; }
            }
        }
        return acc > 0 ? acc : -acc;
    }
)";

TEST(Walk, ForEachStmtVisitsAllStatements)
{
    auto tu = parse(kProgram);
    int stmts = 0;
    forEachStmt(*tu, [&](const Stmt &) { ++stmts; });
    // global decl, fn body block, acc decl, for, i decl, if, +=(expr),
    // while, /=(expr), return — plus nested blocks.
    EXPECT_GE(stmts, 10);
}

TEST(Walk, ForEachExprVisitsNestedExpressions)
{
    auto tu = parse(kProgram);
    int idents = 0;
    int binaries = 0;
    forEachExpr(*tu, [&](const Expr &e) {
        if (e.kind() == ExprKind::Ident)
            ++idents;
        if (e.kind() == ExprKind::Binary)
            ++binaries;
    });
    EXPECT_GE(idents, 8);
    EXPECT_GE(binaries, 5);
}

TEST(Walk, MutableVisitCanEditInPlace)
{
    auto tu = parse("int f() { return 1 + 2; }");
    forEachExpr(*tu, [](Expr &e) {
        if (e.kind() == ExprKind::IntLit)
            static_cast<IntLit &>(e).value *= 10;
    });
    EXPECT_EQ(print(*tu).find("10 + 20") != std::string::npos, true)
        << print(*tu);
}

TEST(Walk, RewriteExprsReplacesBottomUp)
{
    auto tu = parse("int f(int x) { return x + 1; }");
    rewriteExprs(*tu, [](Expr &e) -> ExprPtr {
        if (e.kind() == ExprKind::Ident &&
            static_cast<const Ident &>(e).name == "x") {
            return std::make_unique<IntLit>(7);
        }
        return nullptr;
    });
    EXPECT_NE(print(*tu).find("7 + 1"), std::string::npos)
        << print(*tu);
}

TEST(Walk, RewriteNestedArgumentsAndConditions)
{
    auto tu = parse(R"(
        int g(int v) { return v; }
        int f(int x) {
            if (g(x) > 0) { return g(g(x)); }
            return 0;
        }
    )");
    int rewrites = 0;
    rewriteExprs(*tu, [&](Expr &e) -> ExprPtr {
        if (e.kind() == ExprKind::Call &&
            static_cast<const Call &>(e).callee == "g") {
            ++rewrites;
        }
        return nullptr;
    });
    EXPECT_EQ(rewrites, 3);
}

TEST(Walk, CloneIsDeep)
{
    auto tu = parse(kProgram);
    auto copy = tu->clone();
    // Mutating the copy must not affect the original.
    forEachExpr(*copy, [](Expr &e) {
        if (e.kind() == ExprKind::IntLit)
            static_cast<IntLit &>(e).value = 999;
    });
    EXPECT_EQ(print(*tu).find("999"), std::string::npos);
    EXPECT_NE(print(*copy).find("999"), std::string::npos);
}

TEST(Walk, StructMethodsAreTraversed)
{
    auto tu = parse(R"(
        struct S {
            int x;
            int bump(int d) { x = x + d; return x; }
        };
        int f() { return S{ 1 }.bump(2); }
    )");
    bool saw_method_assign = false;
    forEachExpr(*tu, [&](const Expr &e) {
        if (e.kind() == ExprKind::Assign)
            saw_method_assign = true;
    });
    EXPECT_TRUE(saw_method_assign)
        << "TU walks must include struct method bodies";
}

TEST(Walk, PlacedPragmasCarryTheirLoopAndPlacement)
{
    auto tu = parse(R"(
        int f(int n) {
            #pragma HLS dataflow
            int acc = 0;
            for (int i = 0; i < n; i++) {
                #pragma HLS pipeline ii=1
                if (i > 2) {
                    #pragma HLS unroll factor=2
                    acc += i;
                }
            }
            {
                #pragma HLS loop_tripcount max=4
            }
            return acc;
        }
    )");
    const Block &body = *tu->findFunction("f")->body;
    const Stmt *loop = body.stmts.at(2).get();
    ASSERT_EQ(loop->kind(), StmtKind::For);

    struct Visit
    {
        PragmaKind kind;
        const Stmt *loop;
        bool top_level;
    };
    std::vector<Visit> visits;
    forEachPlacedPragma(body, [&](const PragmaStmt &p, const Stmt *in,
                                  bool top_level) {
        visits.push_back({p.info.kind, in, top_level});
    });
    ASSERT_EQ(visits.size(), 4u);
    EXPECT_EQ(visits[0].kind, PragmaKind::Dataflow);
    EXPECT_EQ(visits[0].loop, nullptr);
    EXPECT_TRUE(visits[0].top_level);
    EXPECT_EQ(visits[1].kind, PragmaKind::Pipeline);
    EXPECT_EQ(visits[1].loop, loop);
    EXPECT_FALSE(visits[1].top_level);
    // An if arm keeps the enclosing loop.
    EXPECT_EQ(visits[2].kind, PragmaKind::Unroll);
    EXPECT_EQ(visits[2].loop, loop);
    // A nested block is not the top level, and is in no loop.
    EXPECT_EQ(visits[3].kind, PragmaKind::LoopTripcount);
    EXPECT_EQ(visits[3].loop, nullptr);
    EXPECT_FALSE(visits[3].top_level);

    EXPECT_TRUE(blockHasPragma(body, PragmaKind::Dataflow));
    EXPECT_FALSE(blockHasPragma(body, PragmaKind::Pipeline))
        << "only pragmas directly in the block count";
}

} // namespace
} // namespace heterogen::cir

/** @file Unit tests for the CIR parser. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/printer.h"
#include "support/diagnostics.h"

namespace heterogen::cir {
namespace {

TEST(Parser, SimpleFunction)
{
    auto tu = parse("int add(int a, int b) { return a + b; }");
    ASSERT_EQ(tu->functions.size(), 1u);
    const FunctionDecl *fn = tu->findFunction("add");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->ret_type->kind(), TypeKind::Int);
    ASSERT_EQ(fn->params.size(), 2u);
    EXPECT_EQ(fn->params[0].name, "a");
    ASSERT_EQ(fn->body->stmts.size(), 1u);
    EXPECT_EQ(fn->body->stmts[0]->kind(), StmtKind::Return);
}

TEST(Parser, GlobalVariables)
{
    auto tu = parse("int counter = 0; static float table[16];");
    ASSERT_EQ(tu->globals.size(), 2u);
    auto *g0 = tu->findGlobal("counter");
    ASSERT_NE(g0, nullptr);
    EXPECT_NE(g0->init, nullptr);
    auto *g1 = tu->findGlobal("table");
    ASSERT_NE(g1, nullptr);
    EXPECT_TRUE(g1->is_static);
    ASSERT_TRUE(g1->type->isArray());
    EXPECT_EQ(g1->type->arraySize(), 16);
    EXPECT_EQ(g1->type->element()->kind(), TypeKind::Float);
}

TEST(Parser, PointerAndLongDoubleTypes)
{
    auto tu = parse("long double f(int *p, long n) { return 0.0L; }");
    const auto &params = tu->functions[0]->params;
    EXPECT_EQ(tu->functions[0]->ret_type->kind(), TypeKind::LongDouble);
    EXPECT_TRUE(params[0].type->isPointer());
    EXPECT_EQ(params[0].type->element()->kind(), TypeKind::Int);
    EXPECT_EQ(params[1].type->kind(), TypeKind::Long);
}

TEST(Parser, FpgaTypes)
{
    auto tu = parse("fpga_uint<7> f(fpga_int<12> a, fpga_float<8,23> b) "
                    "{ return a; }");
    EXPECT_EQ(tu->functions[0]->ret_type->kind(), TypeKind::FpgaUint);
    EXPECT_EQ(tu->functions[0]->ret_type->width(), 7);
    EXPECT_EQ(tu->functions[0]->params[0].type->width(), 12);
    EXPECT_EQ(tu->functions[0]->params[1].type->exponentBits(), 8);
    EXPECT_EQ(tu->functions[0]->params[1].type->mantissaBits(), 23);
}

TEST(Parser, UnsignedMapsToFpgaUint32)
{
    auto tu = parse("unsigned f(unsigned int x) { return x; }");
    EXPECT_EQ(tu->functions[0]->ret_type->kind(), TypeKind::FpgaUint);
    EXPECT_EQ(tu->functions[0]->ret_type->width(), 32);
}

TEST(Parser, StreamTypeAndReferenceParam)
{
    auto tu = parse("void f(hls::stream<int> &in) { in.write(1); }");
    const Param &p = tu->functions[0]->params[0];
    EXPECT_TRUE(p.is_reference);
    ASSERT_TRUE(p.type->isStream());
    EXPECT_EQ(p.type->element()->kind(), TypeKind::Int);
    ASSERT_EQ(tu->functions[0]->body->stmts.size(), 1u);
    auto *es = static_cast<ExprStmt *>(tu->functions[0]->body->stmts[0]
                                           .get());
    EXPECT_EQ(es->expr->kind(), ExprKind::MethodCall);
}

TEST(Parser, StructWithFieldsCtorAndMethod)
{
    auto tu = parse(R"(
        struct If2 {
            hls::stream<int> &in;
            hls::stream<int> &out;
            If2(hls::stream<int> &i, hls::stream<int> &o) : in(i), out(o) {}
            int doRead() { return in.read(); }
        };
        void top(hls::stream<int> &in, hls::stream<int> &out) {
            If2{ in, out }.doRead();
        }
    )");
    const StructDecl *sd = tu->findStruct("If2");
    ASSERT_NE(sd, nullptr);
    ASSERT_EQ(sd->fields.size(), 2u);
    EXPECT_TRUE(sd->fields[0].is_reference);
    ASSERT_NE(sd->ctor, nullptr);
    ASSERT_EQ(sd->ctor->inits.size(), 2u);
    EXPECT_EQ(sd->ctor->inits[0].first, "in");
    EXPECT_EQ(sd->ctor->inits[0].second, "i");
    ASSERT_EQ(sd->methods.size(), 1u);
    EXPECT_EQ(sd->methods[0]->name, "doRead");
}

TEST(Parser, StructLiteralMethodCall)
{
    auto tu = parse(R"(
        struct P { int x; };
        int f() { return P{ 3 }.x; }
    )");
    auto *ret = static_cast<ReturnStmt *>(tu->functions[0]->body->stmts[0]
                                              .get());
    ASSERT_EQ(ret->value->kind(), ExprKind::Member);
}

TEST(Parser, MallocAndSizeof)
{
    auto tu = parse(R"(
        struct Node { int val; };
        void init(Node **root) { *root = (Node*)malloc(sizeof(Node)); }
    )");
    const FunctionDecl *fn = tu->findFunction("init");
    ASSERT_NE(fn, nullptr);
    auto *es = static_cast<ExprStmt *>(fn->body->stmts[0].get());
    ASSERT_EQ(es->expr->kind(), ExprKind::Assign);
    const auto &assign = static_cast<const Assign &>(*es->expr);
    EXPECT_EQ(assign.lhs->kind(), ExprKind::Unary);
    EXPECT_EQ(assign.rhs->kind(), ExprKind::Cast);
}

TEST(Parser, VlaDeclarationCapturesSizeExpr)
{
    auto tu = parse("void f(int cols) { int buf[cols]; buf[0] = 1; }");
    auto *decl = static_cast<DeclStmt *>(tu->functions[0]->body->stmts[0]
                                             .get());
    ASSERT_TRUE(decl->type->isArray());
    EXPECT_EQ(decl->type->arraySize(), kUnknownArraySize);
    ASSERT_NE(decl->vla_size, nullptr);
    EXPECT_EQ(decl->vla_size->kind(), ExprKind::Ident);
}

TEST(Parser, MultiDimensionalArray)
{
    auto tu = parse("int g[3][4]; void f() { g[1][2] = 5; }");
    auto *decl = tu->findGlobal("g");
    ASSERT_TRUE(decl->type->isArray());
    EXPECT_EQ(decl->type->arraySize(), 3);
    ASSERT_TRUE(decl->type->element()->isArray());
    EXPECT_EQ(decl->type->element()->arraySize(), 4);
}

TEST(Parser, ControlFlowStatements)
{
    auto tu = parse(R"(
        int f(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) acc += i;
                else acc -= 1;
                while (acc > 100) { acc /= 2; break; }
            }
            return acc;
        }
    )");
    const auto &stmts = tu->functions[0]->body->stmts;
    ASSERT_EQ(stmts.size(), 3u);
    EXPECT_EQ(stmts[1]->kind(), StmtKind::For);
    const auto &loop = static_cast<const ForStmt &>(*stmts[1]);
    ASSERT_EQ(loop.body->stmts.size(), 2u);
    EXPECT_EQ(loop.body->stmts[0]->kind(), StmtKind::If);
    EXPECT_EQ(loop.body->stmts[1]->kind(), StmtKind::While);
}

TEST(Parser, ElseIfChain)
{
    auto tu = parse(R"(
        int sign(int x) {
            if (x > 0) return 1;
            else if (x < 0) return -1;
            else return 0;
        }
    )");
    const auto &s = static_cast<const IfStmt &>(
        *tu->functions[0]->body->stmts[0]);
    ASSERT_NE(s.else_block, nullptr);
    ASSERT_EQ(s.else_block->stmts.size(), 1u);
    EXPECT_EQ(s.else_block->stmts[0]->kind(), StmtKind::If);
}

TEST(Parser, PragmasInsideFunctions)
{
    auto tu = parse(R"(
        void f(int a[16]) {
            #pragma HLS dataflow
            for (int i = 0; i < 16; i++) {
                #pragma HLS unroll factor=4
                a[i] = a[i] * 2;
            }
        }
    )");
    const auto &stmts = tu->functions[0]->body->stmts;
    ASSERT_EQ(stmts[0]->kind(), StmtKind::Pragma);
    const auto &p = static_cast<const PragmaStmt &>(*stmts[0]);
    EXPECT_EQ(p.info.kind, PragmaKind::Dataflow);
    const auto &loop = static_cast<const ForStmt &>(*stmts[1]);
    const auto &p2 = static_cast<const PragmaStmt &>(*loop.body->stmts[0]);
    EXPECT_EQ(p2.info.kind, PragmaKind::Unroll);
    EXPECT_EQ(p2.info.paramInt("factor", -1), 4);
}

TEST(Parser, OperatorPrecedence)
{
    ExprPtr e = parseExpression("1 + 2 * 3");
    ASSERT_EQ(e->kind(), ExprKind::Binary);
    const auto &add = static_cast<const Binary &>(*e);
    EXPECT_EQ(add.op, BinaryOp::Add);
    EXPECT_EQ(add.rhs->kind(), ExprKind::Binary);
    EXPECT_EQ(static_cast<const Binary &>(*add.rhs).op, BinaryOp::Mul);
}

TEST(Parser, ComparisonBindsLooserThanShift)
{
    ExprPtr e = parseExpression("a << 1 < b");
    const auto &cmp = static_cast<const Binary &>(*e);
    EXPECT_EQ(cmp.op, BinaryOp::Lt);
    EXPECT_EQ(static_cast<const Binary &>(*cmp.lhs).op, BinaryOp::Shl);
}

TEST(Parser, TernaryAndAssignment)
{
    ExprPtr e = parseExpression("x = a > b ? a : b");
    ASSERT_EQ(e->kind(), ExprKind::Assign);
    const auto &assign = static_cast<const Assign &>(*e);
    EXPECT_EQ(assign.rhs->kind(), ExprKind::Ternary);
}

TEST(Parser, CastVersusParenExpr)
{
    ExprPtr cast = parseExpression("(float)x");
    EXPECT_EQ(cast->kind(), ExprKind::Cast);
    ExprPtr grouped = parseExpression("(x)");
    EXPECT_EQ(grouped->kind(), ExprKind::Ident);
    ExprPtr fpga_cast = parseExpression("(fpga_float<8,23>)x");
    ASSERT_EQ(fpga_cast->kind(), ExprKind::Cast);
    EXPECT_EQ(static_cast<const Cast &>(*fpga_cast).type->kind(),
              TypeKind::FpgaFloat);
}

TEST(Parser, PostfixChains)
{
    ExprPtr e = parseExpression("arr[i].next->val++");
    EXPECT_EQ(e->kind(), ExprKind::Unary);
    EXPECT_EQ(static_cast<const Unary &>(*e).op, UnaryOp::PostInc);
}

TEST(Parser, SyntaxErrorsThrow)
{
    EXPECT_THROW(parse("int f( { }"), FatalError);
    EXPECT_THROW(parse("int f() { return 1 }"), FatalError);
    EXPECT_THROW(parse("blah f() {}"), FatalError);
    EXPECT_THROW(parseExpression("1 +"), FatalError);
    EXPECT_THROW(parseExpression("a b"), FatalError);
}

std::string
repeat(const std::string &s, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += s;
    return out;
}

/** cir::parse(src) throws a FatalError naming the nesting limit. */
void
expectNestingRejected(const std::string &src)
{
    try {
        parse(src);
        FAIL() << "expected a nesting-depth FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Parser, HostileNestingIsADiagnosticNotACrash)
{
    // Each shape used to overflow the parser's stack.
    expectNestingRejected("int kernel(int x) { return " +
                          repeat("(", 100000) + "x" +
                          repeat(")", 100000) + "; }");
    expectNestingRejected("int kernel(int x) { " + repeat("{", 100000) +
                          repeat("}", 100000) + " return x; }");
    expectNestingRejected("int kernel(int x) { return " +
                          repeat("- ", 100000) + "x; }");
}

TEST(Parser, SourceSizeLimitIsADiagnostic)
{
    // A source exactly at the limit parses; one byte more is refused
    // before lexing, with a diagnostic naming the bound.
    std::string body = "int kernel(int x) { return x; }";
    std::string at_limit =
        body + std::string(kMaxSourceBytes - body.size(), ' ');
    EXPECT_NO_THROW(parse(at_limit));
    try {
        parse(at_limit + " ");
        FAIL() << "expected a source-size FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "source larger than " +
                      std::to_string(kMaxSourceBytes) + " bytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Parser, ThousandDeepParenthesesStillParse)
{
    auto tu = parse("int kernel(int x) { return " + repeat("(", 1000) +
                    "x" + repeat(")", 1000) + "; }");
    const FunctionDecl *fn = tu->findFunction("kernel");
    ASSERT_NE(fn, nullptr);
    ASSERT_EQ(fn->body->stmts.size(), 1u);
    EXPECT_EQ(fn->body->stmts[0]->kind(), StmtKind::Return);
    // One level deeper is over the limit.
    expectNestingRejected("int kernel(int x) { return " +
                          repeat("(", 1001) + "x" + repeat(")", 1001) +
                          "; }");
}

TEST(Parser, UnknownPragmaRejected)
{
    EXPECT_THROW(parse("void f() { #pragma HLS frobnicate\n }"),
                 FatalError);
}

} // namespace
} // namespace heterogen::cir

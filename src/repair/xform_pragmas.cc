/** @file Pragma-level transforms: dataflow/loop repairs and the
 * performance-improving pragma insertions. */

#include <functional>
#include <map>

#include "cir/walk.h"
#include "hls/synth_check.h"
#include "repair/ast_build.h"
#include "repair/transforms.h"

namespace heterogen::repair::xform {

using namespace cir;
using namespace build;

namespace {

/** Find the declared size of an array variable visible anywhere. */
long
arraySizeOf(const TranslationUnit &tu, const std::string &name)
{
    long size = kUnknownArraySize;
    forEachStmt(tu, [&](const Stmt &s) {
        if (s.kind() != StmtKind::Decl)
            return;
        const auto &d = static_cast<const DeclStmt &>(s);
        if (d.name == name && d.type->isArray())
            size = d.type->arraySize();
    });
    if (size != kUnknownArraySize)
        return size;
    for (const auto &fn : tu.functions) {
        for (const auto &p : fn->params) {
            if (p.name == name && p.type->isArray())
                return p.type->arraySize();
        }
    }
    return kUnknownArraySize;
}

/** Largest divisor of n that is <= cap (at least 1). */
long
largestDivisorAtMost(long n, long cap)
{
    for (long f = std::min(n, cap); f >= 2; --f) {
        if (n % f == 0)
            return f;
    }
    return 1;
}

/** Visit every pragma with mutable access. */
void
forEachPragma(TranslationUnit &tu,
              const std::function<void(PragmaStmt &)> &fn)
{
    forEachStmt(tu, [&fn](Stmt &s) {
        if (s.kind() == StmtKind::Pragma)
            fn(static_cast<PragmaStmt &>(s));
    });
}

/** Innermost loops (no nested loop inside) of a block tree. */
void
collectInnermostLoops(Block &block, std::vector<Stmt *> &out)
{
    forEachStmt(block, [&out](Stmt &s) {
        Block *body = nullptr;
        if (s.kind() == StmtKind::For)
            body = static_cast<ForStmt &>(s).body.get();
        else if (s.kind() == StmtKind::While)
            body = static_cast<WhileStmt &>(s).body.get();
        if (!body)
            return;
        bool has_nested = false;
        forEachStmt(*body, [&has_nested](const Stmt &inner) {
            if (inner.kind() == StmtKind::For ||
                inner.kind() == StmtKind::While) {
                has_nested = true;
            }
        });
        if (!has_nested)
            out.push_back(&s);
    });
}

Block *
loopBody(Stmt *loop)
{
    if (loop->kind() == StmtKind::For)
        return static_cast<ForStmt *>(loop)->body.get();
    return static_cast<WhileStmt *>(loop)->body.get();
}

} // namespace

bool
fixPartitionFactor(RepairContext &ctx)
{
    bool changed = false;
    forEachPragma(ctx.tu, [&](PragmaStmt &p) {
        if (p.info.kind != PragmaKind::ArrayPartition)
            return;
        const std::string var = p.info.paramStr("variable");
        long factor = p.info.paramInt("factor", 1);
        if (var.empty() || factor <= 1)
            return;
        long size = arraySizeOf(ctx.tu, var);
        if (size == kUnknownArraySize || size % factor == 0)
            return;
        long fixed;
        if (ctx.explore_randomly && ctx.rng) {
            // Unguided exploration: guess a factor; wrong guesses are
            // only discovered by the next full HLS compilation.
            fixed = ctx.rng->range(2, 8);
        } else {
            fixed = largestDivisorAtMost(size, factor);
        }
        if (fixed <= 1)
            p.info.params.erase("factor");
        else
            p.info.params["factor"] = std::to_string(fixed);
        changed = true;
    });
    return changed;
}

bool
duplicateBuffer(RepairContext &ctx)
{
    for (auto &fn : ctx.tu.functions) {
        if (!fn->body || !blockHasPragma(*fn->body, PragmaKind::Dataflow))
            continue;
        // Find a local array used as an argument in two call statements.
        std::map<std::string, DeclStmt *> arrays;
        for (auto &s : fn->body->stmts) {
            if (s->kind() == StmtKind::Decl) {
                auto &d = static_cast<DeclStmt &>(*s);
                if (d.type->isArray())
                    arrays[d.name] = &d;
            }
        }
        std::string victim;
        size_t second_call = 0;
        std::map<std::string, int> uses;
        for (size_t i = 0; i < fn->body->stmts.size() && victim.empty();
             ++i) {
            const StmtPtr &s = fn->body->stmts[i];
            if (s->kind() != StmtKind::ExprStmt)
                continue;
            const auto &es = static_cast<const ExprStmt &>(*s);
            if (es.expr->kind() != ExprKind::Call)
                continue;
            const auto &c = static_cast<const Call &>(*es.expr);
            for (const auto &a : c.args) {
                if (a->kind() != ExprKind::Ident)
                    continue;
                const std::string &name =
                    static_cast<const Ident &>(*a).name;
                if (!arrays.count(name))
                    continue;
                if (++uses[name] == 2) {
                    victim = name;
                    second_call = i;
                    break;
                }
            }
        }
        if (victim.empty())
            continue;
        DeclStmt *orig = arrays[victim];
        long size = orig->type->arraySize();
        if (size == kUnknownArraySize)
            continue;
        const std::string dup = victim + "__seg";
        // int victim__seg[N]; for (i) victim__seg[i] = victim[i];
        auto copy_body = block();
        copy_body->stmts.push_back(assignStmt(
            index(ident(dup), ident("__seg_i")),
            index(ident(victim), ident("__seg_i"))));
        auto copy_loop = std::make_unique<ForStmt>(
            declStmt(Type::intType(), "__seg_i", intLit(0)),
            binary(BinaryOp::Lt, ident("__seg_i"), intLit(size)),
            std::make_unique<Unary>(UnaryOp::PostInc, ident("__seg_i")),
            std::move(copy_body));
        auto &stmts = fn->body->stmts;
        stmts.insert(stmts.begin() + second_call, std::move(copy_loop));
        stmts.insert(stmts.begin() + second_call,
                     declStmt(orig->type, dup));
        // Retarget the second call's argument.
        auto &call_stmt = stmts[second_call + 2];
        auto &call = static_cast<Call &>(
            *static_cast<ExprStmt &>(*call_stmt).expr);
        for (auto &a : call.args) {
            if (a->kind() == ExprKind::Ident &&
                static_cast<const Ident &>(*a).name == victim) {
                a = ident(dup);
                break;
            }
        }
        return true;
    }
    return false;
}

bool
deleteDataflow(RepairContext &ctx)
{
    for (auto &fn : ctx.tu.functions) {
        if (!fn->body)
            continue;
        auto &stmts = fn->body->stmts;
        for (size_t i = 0; i < stmts.size(); ++i) {
            if (stmts[i]->kind() == StmtKind::Pragma &&
                static_cast<const PragmaStmt &>(*stmts[i]).info.kind ==
                    PragmaKind::Dataflow) {
                stmts.erase(stmts.begin() + i);
                return true;
            }
        }
    }
    return false;
}

bool
moveDataflowTop(RepairContext &ctx)
{
    for (auto &fn : ctx.tu.functions) {
        if (!fn->body)
            continue;
        // Find a dataflow pragma nested below the top level.
        StmtPtr extracted;
        std::function<bool(Block &, bool)> extract =
            [&](Block &block, bool top) -> bool {
            for (size_t i = 0; i < block.stmts.size(); ++i) {
                StmtPtr &s = block.stmts[i];
                if (!top && s->kind() == StmtKind::Pragma &&
                    static_cast<const PragmaStmt &>(*s).info.kind ==
                        PragmaKind::Dataflow) {
                    extracted = std::move(s);
                    block.stmts.erase(block.stmts.begin() + i);
                    return true;
                }
                Block *nested = nullptr;
                switch (s->kind()) {
                  case StmtKind::For:
                    nested = static_cast<ForStmt &>(*s).body.get();
                    break;
                  case StmtKind::While:
                    nested = static_cast<WhileStmt &>(*s).body.get();
                    break;
                  case StmtKind::If: {
                    auto &iff = static_cast<IfStmt &>(*s);
                    if (extract(*iff.then_block, false))
                        return true;
                    if (iff.else_block &&
                        extract(*iff.else_block, false)) {
                        return true;
                    }
                    break;
                  }
                  case StmtKind::Block:
                    nested = static_cast<Block *>(s.get());
                    break;
                  default:
                    break;
                }
                if (nested && extract(*nested, false))
                    return true;
            }
            return false;
        };
        if (extract(*fn->body, true)) {
            fn->body->stmts.insert(fn->body->stmts.begin(),
                                   std::move(extracted));
            return true;
        }
    }
    return false;
}

bool
reduceUnroll(RepairContext &ctx)
{
    bool changed = false;
    forEachPragma(ctx.tu, [&](PragmaStmt &p) {
        if (p.info.kind != PragmaKind::Unroll)
            return;
        long factor = p.info.paramInt("factor", 1);
        long replacement = 8;
        if (ctx.explore_randomly && ctx.rng)
            replacement = 1L << ctx.rng->range(1, 6); // 2..64, may fail
        if (factor >= 50) {
            p.info.params["factor"] = std::to_string(replacement);
            changed = true;
        } else if (factor < 0) {
            p.info.params["factor"] = "2";
            changed = true;
        }
    });
    return changed;
}

bool
insertTripcount(RepairContext &ctx)
{
    bool changed = false;
    forEachStmt(ctx.tu, [&](Stmt &s) {
        Block *body = nullptr;
        bool static_trip = false;
        if (s.kind() == StmtKind::For) {
            auto &loop = static_cast<ForStmt &>(s);
            body = loop.body.get();
            static_trip = hls::staticTripCount(loop).has_value();
        } else if (s.kind() == StmtKind::While) {
            body = static_cast<WhileStmt &>(s).body.get();
        }
        if (!body || static_trip)
            return;
        if (!blockHasPragma(*body, PragmaKind::Unroll) &&
            !blockHasPragma(*body, PragmaKind::Pipeline)) {
            return; // only loops under optimization pragmas need bounds
        }
        if (blockHasPragma(*body, PragmaKind::LoopTripcount))
            return;
        body->stmts.insert(body->stmts.begin(),
                           makePragma(PragmaKind::LoopTripcount,
                                      {{"max", "1024"}}));
        changed = true;
    });
    return changed;
}

bool
insertPipeline(RepairContext &ctx)
{
    // Pipeline every loop level: the toolchain's scheduler flattens a
    // nested loop into its parent's pipeline where profitable, matching
    // Vivado's behaviour of unrolling sub-loops under a pipeline pragma.
    bool changed = false;
    auto process = [&changed](FunctionDecl &fn) {
        if (!fn.body)
            return;
        forEachStmt(static_cast<Stmt &>(*fn.body), [&](Stmt &s) {
            Block *body = nullptr;
            if (s.kind() == StmtKind::For)
                body = static_cast<ForStmt &>(s).body.get();
            else if (s.kind() == StmtKind::While)
                body = static_cast<WhileStmt &>(s).body.get();
            if (!body || blockHasPragma(*body, PragmaKind::Pipeline))
                return;
            body->stmts.insert(body->stmts.begin(),
                               makePragma(PragmaKind::Pipeline,
                                          {{"ii", "1"}}));
            changed = true;
        });
    };
    for (auto &fn : ctx.tu.functions)
        process(*fn);
    for (auto &sd : ctx.tu.structs) {
        for (auto &m : sd->methods)
            process(*m);
    }
    return changed;
}

bool
insertUnroll(RepairContext &ctx)
{
    bool changed = false;
    for (auto &fn : ctx.tu.functions) {
        if (!fn->body)
            continue;
        std::vector<Stmt *> loops;
        collectInnermostLoops(*fn->body, loops);
        for (Stmt *loop : loops) {
            if (loop->kind() != StmtKind::For)
                continue;
            auto trip = hls::staticTripCount(
                static_cast<const ForStmt &>(*loop));
            if (!trip || *trip <= 1)
                continue;
            Block *body = loopBody(loop);
            if (blockHasPragma(*body, PragmaKind::Unroll))
                continue;
            long factor;
            if (ctx.explore_randomly && ctx.rng)
                factor = ctx.rng->range(2, 8);
            else
                factor = largestDivisorAtMost(*trip, 8);
            if (factor <= 1)
                continue;
            body->stmts.insert(
                body->stmts.begin(),
                makePragma(PragmaKind::Unroll,
                           {{"factor", std::to_string(factor)}}));
            changed = true;
        }
    }
    return changed;
}

bool
insertArrayPartition(RepairContext &ctx)
{
    bool changed = false;
    for (auto &fn : ctx.tu.functions) {
        if (!fn->body)
            continue;
        // Arrays indexed inside unrolled loops.
        std::vector<Stmt *> loops;
        collectInnermostLoops(*fn->body, loops);
        for (Stmt *loop : loops) {
            Block *body = loopBody(loop);
            if (!blockHasPragma(*body, PragmaKind::Unroll))
                continue;
            long factor = 1;
            for (const auto &s : body->stmts) {
                if (s->kind() == StmtKind::Pragma) {
                    const auto &p = static_cast<const PragmaStmt &>(*s);
                    if (p.info.kind == PragmaKind::Unroll)
                        factor = p.info.paramInt("factor", 1);
                }
            }
            if (factor <= 1)
                continue;
            std::set<std::string> arrays;
            forEachExpr(static_cast<Stmt &>(*loop), [&](const Expr &e) {
                if (e.kind() != ExprKind::Index)
                    return;
                const auto &idx = static_cast<const Index &>(e);
                if (idx.base->kind() == ExprKind::Ident)
                    arrays.insert(
                        static_cast<const Ident &>(*idx.base).name);
            });
            for (const std::string &name : arrays) {
                long size = arraySizeOf(ctx.tu, name);
                if (size == kUnknownArraySize)
                    continue;
                long f = size % factor == 0
                             ? factor
                             : largestDivisorAtMost(size, factor);
                if (f <= 1)
                    continue;
                bool already = false;
                for (const auto &s : fn->body->stmts) {
                    if (s->kind() != StmtKind::Pragma)
                        continue;
                    const auto &p = static_cast<const PragmaStmt &>(*s);
                    if (p.info.kind == PragmaKind::ArrayPartition &&
                        p.info.paramStr("variable") == name) {
                        already = true;
                    }
                }
                if (already)
                    continue;
                fn->body->stmts.insert(
                    fn->body->stmts.begin(),
                    makePragma(PragmaKind::ArrayPartition,
                               {{"variable", name},
                                {"factor", std::to_string(f)}}));
                changed = true;
            }
        }
    }
    return changed;
}

bool
insertDataflow(RepairContext &ctx)
{
    FunctionDecl *top = ctx.tu.findFunction(ctx.config.top_function);
    if (!top || !top->body)
        return false;
    if (blockHasPragma(*top->body, PragmaKind::Dataflow))
        return false;
    int top_loops = 0;
    for (const auto &s : top->body->stmts) {
        if (s->kind() == StmtKind::For || s->kind() == StmtKind::While)
            ++top_loops;
    }
    if (top_loops < 2)
        return false;
    top->body->stmts.insert(top->body->stmts.begin(),
                            makePragma(PragmaKind::Dataflow));
    return true;
}

} // namespace heterogen::repair::xform

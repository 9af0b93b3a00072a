/** @file Streaming-dataflow transforms: streamification (array arg ->
 * FIFO channel), FIFO-depth sizing, and bank partitioning — the repair
 * actions behind the hang detector's diagnostics (hls/dataflow.h). */

#include <algorithm>
#include <map>
#include <vector>

#include "cir/walk.h"
#include "hls/dataflow.h"
#include "repair/ast_build.h"
#include "repair/transforms.h"

namespace heterogen::repair::xform {

using namespace cir;
using namespace build;

namespace {

/** Ports per unpartitioned array bank — mirrors hls/dataflow.cc. */
constexpr long kBankPorts = 2;

/** The function carrying a top-level dataflow pragma, if any. */
FunctionDecl *
dataflowFunction(TranslationUnit &tu)
{
    for (const auto &fn : tu.functions) {
        if (fn->body && blockHasPragma(*fn->body, PragmaKind::Dataflow))
            return fn.get();
    }
    return nullptr;
}

/** Call statements directly passing `name` as an argument, with the
 * matched parameter index. */
struct CallUse
{
    Call *call = nullptr;
    FunctionDecl *callee = nullptr;
    size_t arg_index = 0;
};

std::vector<CallUse>
callUsesOf(TranslationUnit &tu, FunctionDecl &region,
           const std::string &name)
{
    std::vector<CallUse> uses;
    forEachExpr(static_cast<Stmt &>(*region.body), [&](Expr &e) {
        if (e.kind() != ExprKind::Call)
            return;
        auto &call = static_cast<Call &>(e);
        FunctionDecl *callee = tu.findFunction(call.callee);
        if (!callee)
            return;
        for (size_t i = 0; i < call.args.size(); ++i) {
            if (call.args[i]->kind() == ExprKind::Ident &&
                static_cast<const Ident &>(*call.args[i]).name == name &&
                i < callee->params.size()) {
                uses.push_back({&call, callee, i});
            }
        }
    });
    return uses;
}

/** All Index expressions on `name` under a statement tree. */
int
countIndexUses(const Stmt &root, const std::string &name)
{
    int count = 0;
    forEachExpr(root, [&](const Expr &e) {
        if (e.kind() != ExprKind::Index) {
            return;
        }
        const auto &ix = static_cast<const Index &>(e);
        if (ix.base && ix.base->kind() == ExprKind::Ident &&
            static_cast<const Ident &>(*ix.base).name == name)
            ++count;
    });
    return count;
}

/** The single loop whose subtree holds every Index use of `name`;
 * nullptr when uses are absent, split, or outside any loop. */
ForStmt *
soleAccessLoop(FunctionDecl &fn, const std::string &name)
{
    int total = countIndexUses(*fn.body, name);
    if (total == 0)
        return nullptr;
    ForStmt *found = nullptr;
    int hits = 0;
    for (auto &s : fn.body->stmts) {
        if (s->kind() != StmtKind::For)
            continue;
        int in_loop = countIndexUses(*s, name);
        if (in_loop > 0) {
            ++hits;
            found = static_cast<ForStmt *>(s.get());
        }
    }
    if (hits != 1 || countIndexUses(*found, name) != total)
        return nullptr;
    return found;
}

/** Count statement-position stores `name[i] = rhs` under a loop. */
int
countStores(const Stmt &root, const std::string &name)
{
    int stores = 0;
    forEachStmt(root, [&](const Stmt &s) {
        if (s.kind() != StmtKind::ExprStmt)
            return;
        const auto &es = static_cast<const ExprStmt &>(s);
        if (!es.expr || es.expr->kind() != ExprKind::Assign)
            return;
        const auto &a = static_cast<const Assign &>(*es.expr);
        if (a.op == AssignOp::Plain && a.lhs &&
            a.lhs->kind() == ExprKind::Index) {
            const auto &ix = static_cast<const Index &>(*a.lhs);
            if (ix.base && ix.base->kind() == ExprKind::Ident &&
                static_cast<const Ident &>(*ix.base).name == name)
                ++stores;
        }
    });
    return stores;
}

/** Insert or update `#pragma HLS stream variable=chan depth=depth` in
 * the region function. */
void
upsertStreamPragma(FunctionDecl &region, const std::string &chan,
                   long depth)
{
    bool updated = false;
    forEachStmt(static_cast<Stmt &>(*region.body), [&](Stmt &s) {
        if (s.kind() != StmtKind::Pragma)
            return;
        auto &p = static_cast<PragmaStmt &>(s);
        if (p.info.kind == PragmaKind::StreamDepth &&
            p.info.paramStr("variable") == chan) {
            p.info.params["depth"] = std::to_string(depth);
            updated = true;
        }
    });
    if (updated)
        return;
    // Place after the channel's declaration so the directive reads next
    // to what it configures.
    auto &stmts = region.body->stmts;
    auto at = stmts.begin();
    for (auto it = stmts.begin(); it != stmts.end(); ++it) {
        if ((*it)->kind() == StmtKind::Decl &&
            static_cast<const DeclStmt &>(**it).name == chan) {
            at = it + 1;
            break;
        }
    }
    stmts.insert(at, makePragma(PragmaKind::StreamDepth,
                                {{"variable", chan},
                                 {"depth", std::to_string(depth)}}));
}

/** Channels of every streaming dataflow region, freshly analyzed. */
hls::DataflowTopology
regionTopology(RepairContext &ctx, FunctionDecl *&region_out)
{
    region_out = dataflowFunction(ctx.tu);
    if (!region_out)
        return {};
    return hls::extractTopology(ctx.tu, *region_out, ctx.config);
}

} // namespace

bool
streamifyArray(RepairContext &ctx)
{
    FunctionDecl *region = dataflowFunction(ctx.tu);
    if (!region)
        return false;

    // Candidate arrays: region-local arrays passed to >= 2 processes.
    std::vector<const DeclStmt *> decls;
    for (const auto &s : region->body->stmts) {
        if (s->kind() == StmtKind::Decl) {
            const auto &d = static_cast<const DeclStmt &>(*s);
            if (d.type && d.type->isArray())
                decls.push_back(&d);
        }
    }
    const DeclStmt *target = nullptr;
    std::vector<CallUse> uses;
    for (const DeclStmt *d : decls) {
        if (!ctx.symbol.empty() && d->name != ctx.symbol)
            continue;
        auto u = callUsesOf(ctx.tu, *region, d->name);
        if (u.size() == 2 && u[0].callee != u[1].callee) {
            target = d;
            uses = std::move(u);
            break;
        }
    }
    if (!target)
        return false;
    const std::string name = target->name;
    TypePtr elem = target->type->element();

    // Classify the two endpoints by how the callee uses its parameter.
    auto stores_of = [](const CallUse &u) {
        return countStores(*u.callee->body,
                           u.callee->params[u.arg_index].name);
    };
    CallUse writer = uses[0], reader = uses[1];
    if (stores_of(writer) == 0)
        std::swap(writer, reader);
    const std::string wparam = writer.callee->params[writer.arg_index].name;
    const std::string rparam = reader.callee->params[reader.arg_index].name;
    int wstores = countStores(*writer.callee->body, wparam);
    if (wstores == 0 || countStores(*reader.callee->body, rparam) != 0)
        return false;
    // Strict canonical shape: every access sits in one loop per side,
    // the writer's accesses are exactly its stores (no read-back), and
    // the reader re-reads one element per iteration.
    ForStmt *wloop = soleAccessLoop(*writer.callee, wparam);
    ForStmt *rloop = soleAccessLoop(*reader.callee, rparam);
    if (!wloop || !rloop)
        return false;
    if (countIndexUses(*wloop, wparam) != wstores)
        return false;

    // Writer: p[i] = rhs  ->  p.write(rhs).
    forEachStmt(static_cast<Stmt &>(*writer.callee->body), [&](Stmt &s) {
        if (s.kind() != StmtKind::ExprStmt)
            return;
        auto &es = static_cast<ExprStmt &>(s);
        if (!es.expr || es.expr->kind() != ExprKind::Assign)
            return;
        auto &a = static_cast<Assign &>(*es.expr);
        if (a.op != AssignOp::Plain || !a.lhs ||
            a.lhs->kind() != ExprKind::Index)
            return;
        auto &ix = static_cast<Index &>(*a.lhs);
        if (!ix.base || ix.base->kind() != ExprKind::Ident ||
            static_cast<const Ident &>(*ix.base).name != wparam)
            return;
        std::vector<ExprPtr> args;
        args.push_back(std::move(a.rhs));
        es.expr = std::make_unique<MethodCall>(ident(wparam), "write",
                                               std::move(args));
    });

    // Reader: one read per iteration into a scratch local, then reuse.
    const std::string scratch = rparam + "_v";
    rewriteExprs(static_cast<Stmt &>(*rloop->body), [&](Expr &e) -> ExprPtr {
        if (e.kind() != ExprKind::Index)
            return nullptr;
        auto &ix = static_cast<Index &>(e);
        if (!ix.base || ix.base->kind() != ExprKind::Ident ||
            static_cast<const Ident &>(*ix.base).name != rparam)
            return nullptr;
        return ident(scratch);
    });
    auto read_call = std::make_unique<MethodCall>(
        ident(rparam), "read", std::vector<ExprPtr>{});
    rloop->body->stmts.insert(
        rloop->body->stmts.begin(),
        declStmt(elem, scratch, std::move(read_call)));

    // Retype: region channel declaration and both endpoint parameters.
    for (auto &s : region->body->stmts) {
        if (s->kind() == StmtKind::Decl &&
            static_cast<DeclStmt &>(*s).name == name) {
            static_cast<DeclStmt &>(*s).type = Type::stream(elem);
        }
    }
    writer.callee->params[writer.arg_index].type = Type::stream(elem);
    writer.callee->params[writer.arg_index].is_reference = true;
    reader.callee->params[reader.arg_index].type = Type::stream(elem);
    reader.callee->params[reader.arg_index].is_reference = true;
    return true;
}

bool
sizeStreamDepth(RepairContext &ctx)
{
    FunctionDecl *region = nullptr;
    hls::DataflowTopology topo = regionTopology(ctx, region);
    if (!region || topo.channels.empty())
        return false;
    for (const hls::StreamChannel &ch : topo.channels) {
        if (!ctx.symbol.empty() && ch.name != ctx.symbol)
            continue;
        long required = ch.writer >= 0 && ch.reader < 0
                            ? ch.tokens
                            : hls::requiredDepth(topo, ch);
        if (required <= ch.depth)
            continue;
        // Apply even when the cap falls short of the requirement: the
        // remaining gap is bank_partition's job (capping here instead
        // of refusing keeps the dependence chain moving).
        upsertStreamPragma(*region, ch.name,
                           std::min(required, hls::kMaxStreamDepth));
        return true;
    }
    return false;
}

bool
bankPartition(RepairContext &ctx)
{
    FunctionDecl *region = nullptr;
    hls::DataflowTopology topo = regionTopology(ctx, region);
    if (!region || topo.channels.empty())
        return false;
    for (const hls::StreamChannel &ch : topo.channels) {
        if (ch.writer < 0 || ch.reader < 0)
            continue;
        if (ch.depth >= hls::requiredDepth(topo, ch))
            continue;
        // The reader's initiation interval is inflating the required
        // depth; partition its most bank-conflicted array until one
        // iteration fits in one cycle of port bandwidth.
        FunctionDecl *callee =
            ctx.tu.findFunction(topo.processes[ch.reader].callee);
        if (!callee || !callee->body)
            continue;
        std::map<std::string, long> sizes;
        for (const auto &p : callee->params) {
            if (p.type && p.type->isArray())
                sizes[p.name] = p.type->arraySize();
        }
        forEachStmt(static_cast<const Stmt &>(*callee->body),
                    [&](const Stmt &s) {
                        if (s.kind() != StmtKind::Decl)
                            return;
                        const auto &d = static_cast<const DeclStmt &>(s);
                        if (d.type && d.type->isArray())
                            sizes[d.name] = d.type->arraySize();
                    });
        std::string best;
        long best_accesses = 0;
        for (const auto &[arr, size] : sizes) {
            long accesses = countIndexUses(*callee->body, arr);
            if (accesses > kBankPorts && accesses > best_accesses &&
                size > 0) {
                best = arr;
                best_accesses = accesses;
            }
        }
        if (best.empty())
            continue;
        long size = sizes[best];
        long needed = (best_accesses + kBankPorts - 1) / kBankPorts;
        long factor = size;
        for (long f = needed; f <= size; ++f) {
            if (size % f == 0) {
                factor = f;
                break;
            }
        }
        bool updated = false;
        forEachStmt(static_cast<Stmt &>(*callee->body), [&](Stmt &s) {
            if (s.kind() != StmtKind::Pragma)
                return;
            auto &p = static_cast<PragmaStmt &>(s);
            if (p.info.kind == PragmaKind::ArrayPartition &&
                p.info.paramStr("variable") == best) {
                p.info.params["factor"] = std::to_string(factor);
                updated = true;
            }
        });
        if (!updated) {
            callee->body->stmts.insert(
                callee->body->stmts.begin(),
                makePragma(PragmaKind::ArrayPartition,
                           {{"variable", best},
                            {"factor", std::to_string(factor)},
                            {"type", "cyclic"}}));
        }
        return true;
    }
    return false;
}

} // namespace heterogen::repair::xform

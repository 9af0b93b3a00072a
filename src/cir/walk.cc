#include "cir/walk.h"

namespace heterogen::cir {

namespace {

template <typename StmtT, typename Fn>
void
walkStmt(StmtT &stmt, const Fn &fn)
{
    using StmtBase =
        std::conditional_t<std::is_const_v<StmtT>, const Stmt, Stmt>;
    StmtBase &base = stmt;
    fn(base);
    switch (base.kind()) {
      case StmtKind::Block: {
        auto &b = static_cast<
            std::conditional_t<std::is_const_v<StmtT>, const Block,
                               Block> &>(base);
        for (auto &s : b.stmts)
            walkStmt(static_cast<StmtBase &>(*s), fn);
        break;
      }
      case StmtKind::If: {
        auto &s = static_cast<
            std::conditional_t<std::is_const_v<StmtT>, const IfStmt,
                               IfStmt> &>(base);
        walkStmt(static_cast<StmtBase &>(*s.then_block), fn);
        if (s.else_block)
            walkStmt(static_cast<StmtBase &>(*s.else_block), fn);
        break;
      }
      case StmtKind::While: {
        auto &s = static_cast<
            std::conditional_t<std::is_const_v<StmtT>, const WhileStmt,
                               WhileStmt> &>(base);
        walkStmt(static_cast<StmtBase &>(*s.body), fn);
        break;
      }
      case StmtKind::For: {
        auto &s = static_cast<
            std::conditional_t<std::is_const_v<StmtT>, const ForStmt,
                               ForStmt> &>(base);
        if (s.init)
            walkStmt(static_cast<StmtBase &>(*s.init), fn);
        walkStmt(static_cast<StmtBase &>(*s.body), fn);
        break;
      }
      default:
        break;
    }
}

template <typename ExprT, typename Fn>
void
walkExpr(ExprT &expr, const Fn &fn)
{
    fn(expr);
    switch (expr.kind()) {
      case ExprKind::Unary:
        walkExpr(*static_cast<
                     std::conditional_t<std::is_const_v<ExprT>,
                                        const Unary, Unary> &>(expr)
                      .operand,
                 fn);
        break;
      case ExprKind::Binary: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const Binary,
                               Binary> &>(expr);
        walkExpr(*e.lhs, fn);
        walkExpr(*e.rhs, fn);
        break;
      }
      case ExprKind::Assign: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const Assign,
                               Assign> &>(expr);
        walkExpr(*e.lhs, fn);
        walkExpr(*e.rhs, fn);
        break;
      }
      case ExprKind::Call: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const Call, Call> &>(
            expr);
        for (auto &a : e.args)
            walkExpr(*a, fn);
        break;
      }
      case ExprKind::MethodCall: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const MethodCall,
                               MethodCall> &>(expr);
        walkExpr(*e.base, fn);
        for (auto &a : e.args)
            walkExpr(*a, fn);
        break;
      }
      case ExprKind::Index: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const Index,
                               Index> &>(expr);
        walkExpr(*e.base, fn);
        walkExpr(*e.index, fn);
        break;
      }
      case ExprKind::Member:
        walkExpr(*static_cast<
                     std::conditional_t<std::is_const_v<ExprT>,
                                        const Member, Member> &>(expr)
                      .base,
                 fn);
        break;
      case ExprKind::Cast:
        walkExpr(*static_cast<
                     std::conditional_t<std::is_const_v<ExprT>, const Cast,
                                        Cast> &>(expr)
                      .operand,
                 fn);
        break;
      case ExprKind::Ternary: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const Ternary,
                               Ternary> &>(expr);
        walkExpr(*e.cond, fn);
        walkExpr(*e.then_expr, fn);
        walkExpr(*e.else_expr, fn);
        break;
      }
      case ExprKind::StructLit: {
        auto &e = static_cast<
            std::conditional_t<std::is_const_v<ExprT>, const StructLit,
                               StructLit> &>(expr);
        for (auto &a : e.args)
            walkExpr(*a, fn);
        break;
      }
      default:
        break;
    }
}

template <typename StmtT, typename Fn>
void
walkStmtExprs(StmtT &stmt, const Fn &fn)
{
    auto visit_stmt = [&fn](auto &s) {
        using S = std::remove_reference_t<decltype(s)>;
        constexpr bool is_const = std::is_const_v<S>;
        switch (s.kind()) {
          case StmtKind::Decl: {
            auto &d = static_cast<
                std::conditional_t<is_const, const DeclStmt, DeclStmt> &>(
                s);
            if (d.init)
                walkExpr(*d.init, fn);
            if (d.vla_size)
                walkExpr(*d.vla_size, fn);
            break;
          }
          case StmtKind::ExprStmt:
            walkExpr(
                *static_cast<std::conditional_t<is_const, const ExprStmt,
                                                ExprStmt> &>(s)
                     .expr,
                fn);
            break;
          case StmtKind::If:
            walkExpr(*static_cast<std::conditional_t<is_const, const IfStmt,
                                                     IfStmt> &>(s)
                          .cond,
                     fn);
            break;
          case StmtKind::While:
            walkExpr(
                *static_cast<std::conditional_t<is_const, const WhileStmt,
                                                WhileStmt> &>(s)
                     .cond,
                fn);
            break;
          case StmtKind::For: {
            auto &f = static_cast<
                std::conditional_t<is_const, const ForStmt, ForStmt> &>(s);
            if (f.cond)
                walkExpr(*f.cond, fn);
            if (f.step)
                walkExpr(*f.step, fn);
            break;
          }
          case StmtKind::Return: {
            auto &r = static_cast<
                std::conditional_t<is_const, const ReturnStmt,
                                   ReturnStmt> &>(s);
            if (r.value)
                walkExpr(*r.value, fn);
            break;
          }
          default:
            break;
        }
    };
    walkStmt(stmt, visit_stmt);
}

} // namespace

void
forEachStmt(Block &block, const std::function<void(Stmt &)> &fn)
{
    walkStmt(static_cast<Stmt &>(block), fn);
}

void
forEachStmt(const Block &block, const std::function<void(const Stmt &)> &fn)
{
    walkStmt(static_cast<const Stmt &>(block), fn);
}

void
forEachStmt(Stmt &stmt, const std::function<void(Stmt &)> &fn)
{
    walkStmt(stmt, fn);
}

void
forEachStmt(const Stmt &stmt, const std::function<void(const Stmt &)> &fn)
{
    walkStmt(stmt, fn);
}

void
forEachExpr(Stmt &stmt, const std::function<void(Expr &)> &fn)
{
    walkStmtExprs(stmt, fn);
}

void
forEachExpr(const Stmt &stmt, const std::function<void(const Expr &)> &fn)
{
    walkStmtExprs(stmt, fn);
}

void
forEachExpr(Expr &expr, const std::function<void(Expr &)> &fn)
{
    walkExpr(expr, fn);
}

void
forEachExpr(const Expr &expr, const std::function<void(const Expr &)> &fn)
{
    walkExpr(expr, fn);
}

void
forEachStmt(TranslationUnit &tu, const std::function<void(Stmt &)> &fn)
{
    for (auto &g : tu.globals)
        walkStmt(*g, fn);
    for (auto &f : tu.functions) {
        if (f->body)
            walkStmt(static_cast<Stmt &>(*f->body), fn);
    }
    for (auto &sd : tu.structs) {
        for (auto &m : sd->methods) {
            if (m->body)
                walkStmt(static_cast<Stmt &>(*m->body), fn);
        }
    }
}

void
forEachStmt(const TranslationUnit &tu,
            const std::function<void(const Stmt &)> &fn)
{
    for (const auto &g : tu.globals)
        walkStmt(static_cast<const Stmt &>(*g), fn);
    for (const auto &f : tu.functions) {
        if (f->body)
            walkStmt(static_cast<const Stmt &>(*f->body), fn);
    }
    for (const auto &sd : tu.structs) {
        for (const auto &m : sd->methods) {
            if (m->body)
                walkStmt(static_cast<const Stmt &>(*m->body), fn);
        }
    }
}

void
forEachExpr(TranslationUnit &tu, const std::function<void(Expr &)> &fn)
{
    for (auto &g : tu.globals)
        walkStmtExprs(*g, fn);
    for (auto &f : tu.functions) {
        if (f->body)
            walkStmtExprs(static_cast<Stmt &>(*f->body), fn);
    }
    for (auto &sd : tu.structs) {
        for (auto &m : sd->methods) {
            if (m->body)
                walkStmtExprs(static_cast<Stmt &>(*m->body), fn);
        }
    }
}

void
forEachExpr(const TranslationUnit &tu,
            const std::function<void(const Expr &)> &fn)
{
    for (const auto &g : tu.globals)
        walkStmtExprs(static_cast<const Stmt &>(*g), fn);
    for (const auto &f : tu.functions) {
        if (f->body)
            walkStmtExprs(static_cast<const Stmt &>(*f->body), fn);
    }
    for (const auto &sd : tu.structs) {
        for (const auto &m : sd->methods) {
            if (m->body)
                walkStmtExprs(static_cast<const Stmt &>(*m->body), fn);
        }
    }
}

// --- expression rewriting ----------------------------------------------------

void
rewriteExprs(ExprPtr &slot, const ExprRewriter &fn)
{
    if (!slot)
        return;
    // Bottom-up: rewrite children first.
    switch (slot->kind()) {
      case ExprKind::Unary:
        rewriteExprs(static_cast<Unary &>(*slot).operand, fn);
        break;
      case ExprKind::Binary: {
        auto &e = static_cast<Binary &>(*slot);
        rewriteExprs(e.lhs, fn);
        rewriteExprs(e.rhs, fn);
        break;
      }
      case ExprKind::Assign: {
        auto &e = static_cast<Assign &>(*slot);
        rewriteExprs(e.lhs, fn);
        rewriteExprs(e.rhs, fn);
        break;
      }
      case ExprKind::Call:
        for (auto &a : static_cast<Call &>(*slot).args)
            rewriteExprs(a, fn);
        break;
      case ExprKind::MethodCall: {
        auto &e = static_cast<MethodCall &>(*slot);
        rewriteExprs(e.base, fn);
        for (auto &a : e.args)
            rewriteExprs(a, fn);
        break;
      }
      case ExprKind::Index: {
        auto &e = static_cast<Index &>(*slot);
        rewriteExprs(e.base, fn);
        rewriteExprs(e.index, fn);
        break;
      }
      case ExprKind::Member:
        rewriteExprs(static_cast<Member &>(*slot).base, fn);
        break;
      case ExprKind::Cast:
        rewriteExprs(static_cast<Cast &>(*slot).operand, fn);
        break;
      case ExprKind::Ternary: {
        auto &e = static_cast<Ternary &>(*slot);
        rewriteExprs(e.cond, fn);
        rewriteExprs(e.then_expr, fn);
        rewriteExprs(e.else_expr, fn);
        break;
      }
      case ExprKind::StructLit:
        for (auto &a : static_cast<StructLit &>(*slot).args)
            rewriteExprs(a, fn);
        break;
      default:
        break;
    }
    if (ExprPtr replacement = fn(*slot))
        slot = std::move(replacement);
}

namespace {

/** Apply an expression rewriter to one statement's own expression slots. */
void
rewriteOwnExprs(Stmt &stmt, const ExprRewriter &fn)
{
    switch (stmt.kind()) {
      case StmtKind::Decl: {
        auto &d = static_cast<DeclStmt &>(stmt);
        rewriteExprs(d.init, fn);
        rewriteExprs(d.vla_size, fn);
        break;
      }
      case StmtKind::ExprStmt:
        rewriteExprs(static_cast<ExprStmt &>(stmt).expr, fn);
        break;
      case StmtKind::If:
        rewriteExprs(static_cast<IfStmt &>(stmt).cond, fn);
        break;
      case StmtKind::While:
        rewriteExprs(static_cast<WhileStmt &>(stmt).cond, fn);
        break;
      case StmtKind::For: {
        auto &f = static_cast<ForStmt &>(stmt);
        rewriteExprs(f.cond, fn);
        rewriteExprs(f.step, fn);
        break;
      }
      case StmtKind::Return:
        rewriteExprs(static_cast<ReturnStmt &>(stmt).value, fn);
        break;
      default:
        break;
    }
}

/** forEachPlacedPragma's recursion. */
void
walkPlacedPragmas(const Block &block, const Stmt *loop, bool top_level,
                  const PragmaVisitor &fn)
{
    for (const auto &s : block.stmts) {
        switch (s->kind()) {
          case StmtKind::Pragma:
            fn(static_cast<const PragmaStmt &>(*s), loop, top_level);
            break;
          case StmtKind::For:
            walkPlacedPragmas(*static_cast<const ForStmt &>(*s).body,
                              s.get(), false, fn);
            break;
          case StmtKind::While:
            walkPlacedPragmas(*static_cast<const WhileStmt &>(*s).body,
                              s.get(), false, fn);
            break;
          case StmtKind::If: {
            const auto &i = static_cast<const IfStmt &>(*s);
            walkPlacedPragmas(*i.then_block, loop, false, fn);
            if (i.else_block)
                walkPlacedPragmas(*i.else_block, loop, false, fn);
            break;
          }
          case StmtKind::Block:
            walkPlacedPragmas(static_cast<const Block &>(*s), loop, false,
                              fn);
            break;
          default:
            break;
        }
    }
}

} // namespace

bool
blockHasPragma(const Block &block, PragmaKind kind)
{
    for (const auto &s : block.stmts) {
        if (s->kind() == StmtKind::Pragma &&
            static_cast<const PragmaStmt &>(*s).info.kind == kind)
            return true;
    }
    return false;
}

void
forEachPlacedPragma(const Block &body, const PragmaVisitor &fn)
{
    walkPlacedPragmas(body, nullptr, true, fn);
}

void
rewriteExprs(Stmt &stmt, const ExprRewriter &fn)
{
    walkStmt(stmt, [&fn](Stmt &s) { rewriteOwnExprs(s, fn); });
}

void
rewriteExprs(TranslationUnit &tu, const ExprRewriter &fn)
{
    for (auto &g : tu.globals)
        rewriteExprs(*g, fn);
    for (auto &f : tu.functions) {
        if (f->body)
            rewriteExprs(static_cast<Stmt &>(*f->body), fn);
    }
    for (auto &sd : tu.structs) {
        for (auto &m : sd->methods) {
            if (m->body)
                rewriteExprs(static_cast<Stmt &>(*m->body), fn);
        }
    }
}

} // namespace heterogen::cir

/**
 * @file
 * Generic traversal helpers over CIR trees.
 *
 * forEachStmt / forEachExpr visit every node pre-order with mutable access;
 * transforms use them to locate nodes and the rewriting helpers to splice
 * replacements into statement lists.
 */

#ifndef HETEROGEN_CIR_WALK_H
#define HETEROGEN_CIR_WALK_H

#include <functional>

#include "cir/ast.h"

namespace heterogen::cir {

/** Visit every statement in a block tree, pre-order. */
void forEachStmt(Block &block, const std::function<void(Stmt &)> &fn);
void forEachStmt(const Block &block,
                 const std::function<void(const Stmt &)> &fn);

/** Visit a statement and all statements nested under it, pre-order. */
void forEachStmt(Stmt &stmt, const std::function<void(Stmt &)> &fn);
void forEachStmt(const Stmt &stmt,
                 const std::function<void(const Stmt &)> &fn);

/** Visit every expression under a statement tree, pre-order. */
void forEachExpr(Stmt &stmt, const std::function<void(Expr &)> &fn);
void forEachExpr(const Stmt &stmt,
                 const std::function<void(const Expr &)> &fn);

/** Visit every expression under an expression, including itself. */
void forEachExpr(Expr &expr, const std::function<void(Expr &)> &fn);
void forEachExpr(const Expr &expr,
                 const std::function<void(const Expr &)> &fn);

/** Visit every statement in every function (and struct method) of a TU. */
void forEachStmt(TranslationUnit &tu, const std::function<void(Stmt &)> &fn);
void forEachStmt(const TranslationUnit &tu,
                 const std::function<void(const Stmt &)> &fn);

/** Visit every expression in a TU, including globals' initializers. */
void forEachExpr(TranslationUnit &tu, const std::function<void(Expr &)> &fn);
void forEachExpr(const TranslationUnit &tu,
                 const std::function<void(const Expr &)> &fn);

/** Does `block` directly (not under a nested statement) hold a pragma
 * of `kind`? */
bool blockHasPragma(const Block &block, PragmaKind kind);

/**
 * Visit every pragma placed under `body`, pre-order, with its innermost
 * enclosing for/while loop (null outside any loop) and whether it sits
 * directly in `body`. Loop bodies, if/else arms and nested blocks are
 * entered; if arms and blocks keep the enclosing loop.
 */
using PragmaVisitor = std::function<void(const PragmaStmt &,
                                         const Stmt *loop, bool top_level)>;
void forEachPlacedPragma(const Block &body, const PragmaVisitor &fn);

/**
 * Rewrite every expression edge under a statement: the callback may return
 * a replacement (taking ownership decisions internally) or null to keep the
 * existing node. Applied bottom-up.
 */
using ExprRewriter = std::function<ExprPtr(Expr &)>;
void rewriteExprs(Stmt &stmt, const ExprRewriter &fn);
void rewriteExprs(TranslationUnit &tu, const ExprRewriter &fn);
void rewriteExprs(ExprPtr &slot, const ExprRewriter &fn);

} // namespace heterogen::cir

#endif // HETEROGEN_CIR_WALK_H

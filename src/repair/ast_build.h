/**
 * @file
 * Tiny AST construction helpers shared by the repair transforms.
 */

#ifndef HETEROGEN_REPAIR_AST_BUILD_H
#define HETEROGEN_REPAIR_AST_BUILD_H

#include <map>
#include <memory>
#include <string>

#include "cir/ast.h"

namespace heterogen::repair::build {

inline cir::ExprPtr
ident(const std::string &name)
{
    return std::make_unique<cir::Ident>(name);
}

inline cir::ExprPtr
intLit(long value)
{
    return std::make_unique<cir::IntLit>(value);
}

inline cir::ExprPtr
binary(cir::BinaryOp op, cir::ExprPtr lhs, cir::ExprPtr rhs)
{
    return std::make_unique<cir::Binary>(op, std::move(lhs),
                                         std::move(rhs));
}

inline cir::ExprPtr
assign(cir::ExprPtr lhs, cir::ExprPtr rhs)
{
    return std::make_unique<cir::Assign>(cir::AssignOp::Plain,
                                         std::move(lhs), std::move(rhs));
}

inline cir::ExprPtr
index(cir::ExprPtr base, cir::ExprPtr idx)
{
    return std::make_unique<cir::Index>(std::move(base), std::move(idx));
}

inline cir::StmtPtr
exprStmt(cir::ExprPtr e)
{
    return std::make_unique<cir::ExprStmt>(std::move(e));
}

inline cir::StmtPtr
assignStmt(cir::ExprPtr lhs, cir::ExprPtr rhs)
{
    return exprStmt(assign(std::move(lhs), std::move(rhs)));
}

inline cir::StmtPtr
declStmt(cir::TypePtr type, const std::string &name,
         cir::ExprPtr init = nullptr)
{
    return std::make_unique<cir::DeclStmt>(std::move(type), name,
                                           std::move(init));
}

inline cir::StmtPtr
makePragma(cir::PragmaKind kind,
           std::map<std::string, std::string> params = {})
{
    cir::PragmaInfo info;
    info.kind = kind;
    info.params = std::move(params);
    return std::make_unique<cir::PragmaStmt>(std::move(info));
}

inline cir::BlockPtr
block()
{
    return std::make_unique<cir::Block>();
}

} // namespace heterogen::repair::build

#endif // HETEROGEN_REPAIR_AST_BUILD_H

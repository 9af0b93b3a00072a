#include "stylecheck/stylecheck.h"

#include "cir/walk.h"
#include "hls/synth_check.h"

namespace heterogen::style {

using namespace cir;

namespace {

class StyleChecker
{
  public:
    explicit StyleChecker(const TranslationUnit &tu) : tu_(tu) {}

    StyleReport
    run()
    {
        checkRecursion();
        for (const auto &sd : tu_.structs)
            checkStruct(*sd);
        for (const auto &g : tu_.globals) {
            if (g->kind() == StmtKind::Decl)
                checkDecl(static_cast<const DeclStmt &>(*g));
        }
        for (const auto &fn : tu_.functions)
            checkFunction(*fn);
        for (const auto &sd : tu_.structs) {
            for (const auto &m : sd->methods)
                checkFunction(*m);
        }
        return std::move(report_);
    }

  private:
    void
    issue(std::string message, SourceLoc loc)
    {
        report_.issues.push_back({std::move(message), loc});
    }

    void
    checkRecursion()
    {
        for (const std::string &fn : hls::recursiveFunctions(tu_)) {
            SourceLoc loc;
            if (const FunctionDecl *decl = tu_.findFunction(fn))
                loc = decl->loc;
            issue("recursive function '" + fn + "'", loc);
        }
    }

    void
    checkStruct(const StructDecl &sd)
    {
        if (sd.is_union)
            issue("union '" + sd.name + "' is not HLS style", sd.loc);
        for (const Field &f : sd.fields) {
            if (f.type->isPointer())
                issue("pointer field '" + sd.name + "::" + f.name + "'",
                      sd.loc);
            if (f.type->kind() == TypeKind::LongDouble)
                issue("long double field '" + sd.name + "::" + f.name +
                          "'",
                      sd.loc);
        }
    }

    void
    checkDecl(const DeclStmt &d)
    {
        if (d.type->isPointer())
            issue("pointer variable '" + d.name + "'", d.loc);
        if (d.type->kind() == TypeKind::LongDouble)
            issue("long double variable '" + d.name + "'", d.loc);
        const Type *t = d.type.get();
        while (t->isArray()) {
            if (t->arraySize() == kUnknownArraySize) {
                issue("array '" + d.name + "' has no compile-time size",
                      d.loc);
                break;
            }
            t = t->element().get();
        }
    }

    void
    checkFunction(const FunctionDecl &fn)
    {
        if (fn.ret_type->kind() == TypeKind::LongDouble)
            issue("long double return type on '" + fn.name + "'", fn.loc);
        for (const Param &p : fn.params) {
            if (p.type->isPointer())
                issue("pointer parameter '" + p.name + "'", fn.loc);
            if (p.type->kind() == TypeKind::LongDouble)
                issue("long double parameter '" + p.name + "'", fn.loc);
            if (p.type->isArray() &&
                p.type->arraySize() == kUnknownArraySize) {
                issue("array parameter '" + p.name +
                          "' has no compile-time size",
                      fn.loc);
            }
        }
        if (!fn.body)
            return;
        forEachStmt(static_cast<const Stmt &>(*fn.body),
                    [this](const Stmt &s) {
                        if (s.kind() == StmtKind::Decl)
                            checkDecl(static_cast<const DeclStmt &>(s));
                    });
        forEachExpr(static_cast<const Stmt &>(*fn.body),
                    [this, &fn](const Expr &e) { checkExpr(e, fn); });
        checkPragmaPlacement(fn);
    }

    void
    checkExpr(const Expr &e, const FunctionDecl &fn)
    {
        switch (e.kind()) {
          case ExprKind::Call: {
            const auto &c = static_cast<const Call &>(e);
            if (c.callee == "malloc" || c.callee == "free")
                issue("dynamic allocation in '" + fn.name + "'", e.loc);
            break;
          }
          case ExprKind::Unary: {
            const auto &u = static_cast<const Unary &>(e);
            if (u.op == UnaryOp::AddrOf || u.op == UnaryOp::Deref)
                issue("pointer expression in '" + fn.name + "'", e.loc);
            break;
          }
          case ExprKind::Cast:
            if (static_cast<const Cast &>(e).type->kind() ==
                TypeKind::LongDouble) {
                issue("cast to long double in '" + fn.name + "'", e.loc);
            }
            break;
          case ExprKind::StructLit: {
            const auto &lit = static_cast<const StructLit &>(e);
            const StructDecl *sd = tu_.findStruct(lit.struct_name);
            if (sd && !sd->ctor && !sd->methods.empty()) {
                issue("struct '" + lit.struct_name +
                          "' instantiated without explicit constructor",
                      e.loc);
            }
            break;
          }
          default:
            break;
        }
    }

    /**
     * Placement rules: unroll/pipeline/loop_tripcount belong directly
     * inside a loop body; dataflow belongs at function-body top level;
     * array_partition must name a variable visible in the function.
     */
    void
    checkPragmaPlacement(const FunctionDecl &fn)
    {
        forEachPlacedPragma(*fn.body, [&](const PragmaStmt &p,
                                          const Stmt *loop, bool at_top) {
            switch (p.info.kind) {
              case PragmaKind::Unroll:
              case PragmaKind::Pipeline:
              case PragmaKind::LoopTripcount:
                if (!loop) {
                    issue("'" + pragmaKindName(p.info.kind) +
                              "' pragma outside a loop body",
                          p.loc);
                }
                break;
              case PragmaKind::Dataflow:
                if (!at_top) {
                    issue("'dataflow' pragma must be at the top of a "
                          "function body",
                          p.loc);
                }
                break;
              case PragmaKind::ArrayPartition: {
                const std::string var = p.info.paramStr("variable");
                if (!var.empty() && !variableVisible(fn, var)) {
                    issue("'array_partition' names unknown variable '" +
                              var + "'",
                          p.loc);
                }
                break;
              }
              default:
                break;
            }
        });
    }

    bool
    variableVisible(const FunctionDecl &fn, const std::string &name) const
    {
        for (const Param &p : fn.params) {
            if (p.name == name)
                return true;
        }
        bool found = false;
        forEachStmt(static_cast<const Stmt &>(*fn.body),
                    [&](const Stmt &s) {
                        if (s.kind() == StmtKind::Decl &&
                            static_cast<const DeclStmt &>(s).name == name)
                            found = true;
                    });
        if (found)
            return true;
        for (const auto &g : tu_.globals) {
            if (g->kind() == StmtKind::Decl &&
                static_cast<const DeclStmt &>(*g).name == name)
                return true;
        }
        return false;
    }

    const TranslationUnit &tu_;
    StyleReport report_;
};

} // namespace

StyleReport
checkStyle(const TranslationUnit &tu)
{
    return StyleChecker(tu).run();
}

} // namespace heterogen::style

/** @file Unsupported-data-type transforms: long double replacement,
 * explicit casting, operator-overload helpers, bitwidth narrowing. */

#include <map>

#include "cir/walk.h"
#include "repair/ast_build.h"
#include "repair/transforms.h"
#include "support/strings.h"

namespace heterogen::repair::xform {

using namespace cir;
using namespace build;

namespace {

/** fpga_float<8,71> — the paper's replacement for long double. */
TypePtr
wideFpgaFloat()
{
    return Type::fpgaFloat(8, 71);
}

/** Recursively replace long double within a type. */
TypePtr
replaceLongDouble(const TypePtr &t, bool &changed)
{
    if (!t)
        return t;
    switch (t->kind()) {
      case TypeKind::LongDouble:
        changed = true;
        return wideFpgaFloat();
      case TypeKind::Pointer: {
        TypePtr elem = replaceLongDouble(t->element(), changed);
        return changed ? Type::pointer(elem) : t;
      }
      case TypeKind::Array: {
        bool local = false;
        TypePtr elem = replaceLongDouble(t->element(), local);
        if (local) {
            changed = true;
            return Type::array(elem, t->arraySize());
        }
        return t;
      }
      case TypeKind::Stream: {
        bool local = false;
        TypePtr elem = replaceLongDouble(t->element(), local);
        if (local) {
            changed = true;
            return Type::stream(elem);
        }
        return t;
      }
      default:
        return t;
    }
}

/** Per-function variable typing good enough for cast insertion. */
class LocalTyper
{
  public:
    LocalTyper(const TranslationUnit &tu, const FunctionDecl &fn)
        : tu_(tu)
    {
        for (const auto &g : tu.globals) {
            if (g->kind() == StmtKind::Decl) {
                const auto &d = static_cast<const DeclStmt &>(*g);
                vars_[d.name] = d.type;
            }
        }
        for (const auto &p : fn.params)
            vars_[p.name] = p.type;
        if (fn.body) {
            forEachStmt(static_cast<const Stmt &>(*fn.body),
                        [this](const Stmt &s) {
                            if (s.kind() == StmtKind::Decl) {
                                const auto &d =
                                    static_cast<const DeclStmt &>(s);
                                vars_[d.name] = d.type;
                            }
                        });
        }
    }

    /** Type of an expression when it is plainly an fpga_float. */
    TypePtr
    fpgaFloatTypeOf(const Expr &e) const
    {
        switch (e.kind()) {
          case ExprKind::Ident: {
            auto it = vars_.find(static_cast<const Ident &>(e).name);
            if (it != vars_.end() && it->second &&
                it->second->kind() == TypeKind::FpgaFloat) {
                return it->second;
            }
            return nullptr;
          }
          case ExprKind::Cast: {
            const auto &c = static_cast<const Cast &>(e);
            return c.type->kind() == TypeKind::FpgaFloat ? c.type
                                                         : nullptr;
          }
          case ExprKind::Binary: {
            const auto &b = static_cast<const Binary &>(e);
            if (TypePtr t = fpgaFloatTypeOf(*b.lhs))
                return t;
            return fpgaFloatTypeOf(*b.rhs);
          }
          case ExprKind::Call: {
            // The callee's declared type, e.g. a generated overload
            // helper's fpga type.
            const FunctionDecl *callee =
                tu_.findFunction(static_cast<const Call &>(e).callee);
            return callee && callee->ret_type &&
                           callee->ret_type->kind() == TypeKind::FpgaFloat
                       ? callee->ret_type
                       : nullptr;
          }
          default:
            return nullptr;
        }
    }

  private:
    const TranslationUnit &tu_;
    std::map<std::string, TypePtr> vars_;
};

} // namespace

bool
typeTransform(RepairContext &ctx)
{
    TranslationUnit &tu = ctx.tu;
    bool changed = false;
    forEachStmt(tu, [&](Stmt &s) {
        if (s.kind() == StmtKind::Decl) {
            auto &d = static_cast<DeclStmt &>(s);
            d.type = replaceLongDouble(d.type, changed);
        }
    });
    auto fix_fn = [&](FunctionDecl &fn) {
        fn.ret_type = replaceLongDouble(fn.ret_type, changed);
        for (auto &p : fn.params)
            p.type = replaceLongDouble(p.type, changed);
    };
    for (auto &fn : tu.functions)
        fix_fn(*fn);
    for (auto &sd : tu.structs) {
        for (auto &f : sd->fields)
            f.type = replaceLongDouble(f.type, changed);
        for (auto &m : sd->methods)
            fix_fn(*m);
    }
    rewriteExprs(tu, [&](Expr &e) -> ExprPtr {
        if (e.kind() == ExprKind::Cast) {
            auto &c = static_cast<Cast &>(e);
            c.type = replaceLongDouble(c.type, changed);
        } else if (e.kind() == ExprKind::FloatLit) {
            auto &f = static_cast<FloatLit &>(e);
            if (f.long_double) {
                f.long_double = false;
                changed = true;
            }
        } else if (e.kind() == ExprKind::SizeofType) {
            auto &so = static_cast<SizeofType &>(e);
            so.type = replaceLongDouble(so.type, changed);
        }
        return nullptr;
    });
    return changed;
}

bool
typeCasting(RepairContext &ctx)
{
    TranslationUnit &tu = ctx.tu;
    bool changed = false;
    auto process = [&](FunctionDecl &fn) {
        if (!fn.body)
            return;
        LocalTyper typer(tu, fn);
        rewriteExprs(static_cast<Stmt &>(*fn.body),
                     [&](Expr &e) -> ExprPtr {
                         if (e.kind() != ExprKind::Binary)
                             return nullptr;
                         auto &b = static_cast<Binary &>(e);
                         switch (b.op) {
                           case BinaryOp::Add:
                           case BinaryOp::Sub:
                           case BinaryOp::Mul:
                           case BinaryOp::Div:
                             break;
                           default:
                             return nullptr;
                         }
                         TypePtr lt = typer.fpgaFloatTypeOf(*b.lhs);
                         TypePtr rt = typer.fpgaFloatTypeOf(*b.rhs);
                         if (lt && !rt &&
                             b.rhs->kind() != ExprKind::Cast) {
                             b.rhs = std::make_unique<Cast>(
                                 lt, std::move(b.rhs));
                             changed = true;
                         } else if (rt && !lt &&
                                    b.lhs->kind() != ExprKind::Cast) {
                             b.lhs = std::make_unique<Cast>(
                                 rt, std::move(b.lhs));
                             changed = true;
                         }
                         return nullptr;
                     });
    };
    for (auto &fn : tu.functions)
        process(*fn);
    for (auto &sd : tu.structs) {
        for (auto &m : sd->methods)
            process(*m);
    }
    return changed;
}

bool
opOverload(RepairContext &ctx)
{
    TranslationUnit &tu = ctx.tu;
    bool changed = false;
    std::map<std::string, std::pair<BinaryOp, TypePtr>> needed;

    auto helper_name = [](BinaryOp op, const TypePtr &t) {
        std::string base;
        switch (op) {
          case BinaryOp::Add: base = "sum"; break;
          case BinaryOp::Sub: base = "sub"; break;
          case BinaryOp::Mul: base = "mul"; break;
          default: base = "div"; break;
        }
        int bits = 1 + t->exponentBits() + t->mantissaBits();
        return base + "_" + std::to_string(bits);
    };

    auto process = [&](FunctionDecl &fn) {
        if (!fn.body)
            return;
        LocalTyper typer(tu, fn);
        rewriteExprs(static_cast<Stmt &>(*fn.body),
                     [&](Expr &e) -> ExprPtr {
                         if (e.kind() != ExprKind::Binary)
                             return nullptr;
                         auto &b = static_cast<Binary &>(e);
                         switch (b.op) {
                           case BinaryOp::Add:
                           case BinaryOp::Sub:
                           case BinaryOp::Mul:
                           case BinaryOp::Div:
                             break;
                           default:
                             return nullptr;
                         }
                         TypePtr lt = typer.fpgaFloatTypeOf(*b.lhs);
                         TypePtr rt = typer.fpgaFloatTypeOf(*b.rhs);
                         if (!lt || !rt)
                             return nullptr;
                         std::string name = helper_name(b.op, lt);
                         needed.emplace(name, std::make_pair(b.op, lt));
                         std::vector<ExprPtr> args;
                         args.push_back(std::move(b.lhs));
                         args.push_back(std::move(b.rhs));
                         changed = true;
                         return std::make_unique<Call>(name,
                                                       std::move(args));
                     });
    };
    for (auto &fn : tu.functions)
        process(*fn);
    for (auto &sd : tu.structs) {
        for (auto &m : sd->methods)
            process(*m);
    }

    for (const auto &[name, spec] : needed) {
        if (tu.findFunction(name))
            continue;
        auto [op, type] = spec;
        auto fn = std::make_unique<FunctionDecl>();
        fn->ret_type = type;
        fn->name = name;
        fn->params.push_back({type, "a", false});
        fn->params.push_back({type, "b", false});
        fn->body = block();
        fn->body->stmts.push_back(std::make_unique<ReturnStmt>(
            binary(op, ident("a"), ident("b"))));
        tu.functions.insert(tu.functions.begin(), std::move(fn));
    }
    return changed;
}

bool
bitwidthNarrow(RepairContext &ctx)
{
    if (!ctx.profile)
        return false;
    TranslationUnit &tu = ctx.tu;
    bool changed = false;
    for (auto &fn : tu.functions) {
        if (!fn->body)
            continue;
        forEachStmt(static_cast<Stmt &>(*fn->body), [&](Stmt &s) {
            if (s.kind() != StmtKind::Decl)
                return;
            auto &d = static_cast<DeclStmt &>(s);
            if (!d.type ||
                (d.type->kind() != TypeKind::Int &&
                 d.type->kind() != TypeKind::Long)) {
                return;
            }
            const interp::ValueRange *range =
                ctx.profile->find(fn->name + "::" + d.name);
            if (!range || !range->saw_int || range->saw_float)
                return;
            if (range->nonNegative()) {
                int bits = range->requiredUnsignedBits();
                if (bits < d.type->storageBits()) {
                    d.type = Type::fpgaUint(bits);
                    changed = true;
                }
            } else {
                int bits = range->requiredSignedBits();
                if (bits < d.type->storageBits()) {
                    d.type = Type::fpgaInt(bits);
                    changed = true;
                }
            }
        });
    }
    return changed;
}

} // namespace heterogen::repair::xform

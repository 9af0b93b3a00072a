#include "hls/synth_check.h"

#include <map>
#include <set>

#include "cir/printer.h"
#include "cir/sema.h"
#include "cir/walk.h"
#include "hls/dataflow.h"

namespace heterogen::hls {

using namespace cir;

std::optional<long>
staticTripCount(const ForStmt &loop)
{
    if (!loop.init || !loop.cond || !loop.step)
        return std::nullopt;
    // init: DeclStmt "T i = c0" or ExprStmt "i = c0".
    std::string var;
    long start = 0;
    if (loop.init->kind() == StmtKind::Decl) {
        const auto &d = static_cast<const DeclStmt &>(*loop.init);
        if (!d.init || d.init->kind() != ExprKind::IntLit)
            return std::nullopt;
        var = d.name;
        start = static_cast<const IntLit &>(*d.init).value;
    } else if (loop.init->kind() == StmtKind::ExprStmt) {
        const auto &es = static_cast<const ExprStmt &>(*loop.init);
        if (es.expr->kind() != ExprKind::Assign)
            return std::nullopt;
        const auto &a = static_cast<const Assign &>(*es.expr);
        if (a.op != AssignOp::Plain ||
            a.lhs->kind() != ExprKind::Ident ||
            a.rhs->kind() != ExprKind::IntLit) {
            return std::nullopt;
        }
        var = static_cast<const Ident &>(*a.lhs).name;
        start = static_cast<const IntLit &>(*a.rhs).value;
    } else {
        return std::nullopt;
    }
    // cond: "i < c1" or "i <= c1".
    if (loop.cond->kind() != ExprKind::Binary)
        return std::nullopt;
    const auto &cond = static_cast<const Binary &>(*loop.cond);
    if ((cond.op != BinaryOp::Lt && cond.op != BinaryOp::Le) ||
        cond.lhs->kind() != ExprKind::Ident ||
        static_cast<const Ident &>(*cond.lhs).name != var ||
        cond.rhs->kind() != ExprKind::IntLit) {
        return std::nullopt;
    }
    long bound = static_cast<const IntLit &>(*cond.rhs).value;
    if (cond.op == BinaryOp::Le)
        bound += 1;
    // step: "i++" / "++i" / "i += c2".
    long stride = 0;
    if (loop.step->kind() == ExprKind::Unary) {
        const auto &u = static_cast<const Unary &>(*loop.step);
        if ((u.op == UnaryOp::PostInc || u.op == UnaryOp::PreInc) &&
            u.operand->kind() == ExprKind::Ident &&
            static_cast<const Ident &>(*u.operand).name == var) {
            stride = 1;
        }
    } else if (loop.step->kind() == ExprKind::Assign) {
        const auto &a = static_cast<const Assign &>(*loop.step);
        if (a.op == AssignOp::Add && a.lhs->kind() == ExprKind::Ident &&
            static_cast<const Ident &>(*a.lhs).name == var &&
            a.rhs->kind() == ExprKind::IntLit) {
            stride = static_cast<const IntLit &>(*a.rhs).value;
        }
    }
    if (stride <= 0)
        return std::nullopt;
    if (bound <= start)
        return 0;
    return (bound - start + stride - 1) / stride;
}

std::vector<std::string>
recursiveFunctions(const TranslationUnit &tu)
{
    auto graph = callGraph(tu);
    std::vector<std::string> result;
    // A function is recursive if it can reach itself.
    for (const auto &[fn, edges] : graph) {
        std::set<std::string> seen;
        std::vector<std::string> work(edges.begin(), edges.end());
        bool cyclic = false;
        while (!work.empty() && !cyclic) {
            std::string cur = work.back();
            work.pop_back();
            if (cur == fn) {
                cyclic = true;
                break;
            }
            if (!seen.insert(cur).second)
                continue;
            auto it = graph.find(cur);
            if (it != graph.end())
                work.insert(work.end(), it->second.begin(),
                            it->second.end());
        }
        if (cyclic)
            result.push_back(fn);
    }
    return result;
}

namespace {

/** Flow-insensitive expression typing for the checks that need types. */
class ExprTyper
{
  public:
    ExprTyper(const TranslationUnit &tu, const FunctionDecl &fn,
              const StructDecl *owner)
        : tu_(tu)
    {
        for (const auto &g : tu.globals) {
            if (g->kind() == StmtKind::Decl) {
                const auto &d = static_cast<const DeclStmt &>(*g);
                vars_[d.name] = d.type;
            }
        }
        if (owner) {
            for (const auto &f : owner->fields)
                vars_[f.name] = f.type;
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

    TypePtr
    typeOf(const Expr &e) const
    {
        switch (e.kind()) {
          case ExprKind::IntLit:
            return Type::intType();
          case ExprKind::FloatLit:
            return static_cast<const FloatLit &>(e).long_double
                       ? Type::longDoubleType()
                       : Type::doubleType();
          case ExprKind::Ident: {
            auto it = vars_.find(static_cast<const Ident &>(e).name);
            return it == vars_.end() ? nullptr : it->second;
          }
          case ExprKind::Unary: {
            const auto &u = static_cast<const Unary &>(e);
            TypePtr t = typeOf(*u.operand);
            if (u.op == UnaryOp::Deref)
                return t && t->isPointer() ? t->element() : nullptr;
            if (u.op == UnaryOp::AddrOf)
                return t ? Type::pointer(t) : nullptr;
            return t;
          }
          case ExprKind::Binary: {
            const auto &b = static_cast<const Binary &>(e);
            TypePtr l = typeOf(*b.lhs);
            TypePtr r = typeOf(*b.rhs);
            return promote(l, r);
          }
          case ExprKind::Assign:
            return typeOf(*static_cast<const Assign &>(e).lhs);
          case ExprKind::Call: {
            const auto &c = static_cast<const Call &>(e);
            if (const FunctionDecl *fn = tu_.findFunction(c.callee))
                return fn->ret_type;
            return Type::doubleType(); // math intrinsics
          }
          case ExprKind::Index: {
            TypePtr t = typeOf(*static_cast<const Index &>(e).base);
            return t && (t->isArray() || t->isPointer()) ? t->element()
                                                         : nullptr;
          }
          case ExprKind::Member: {
            const auto &m = static_cast<const Member &>(e);
            TypePtr bt = typeOf(*m.base);
            if (bt && bt->isPointer())
                bt = bt->element();
            if (!bt || !bt->isStruct())
                return nullptr;
            const StructDecl *sd = tu_.findStruct(bt->structName());
            if (!sd)
                return nullptr;
            const Field *f = sd->findField(m.field);
            return f ? f->type : nullptr;
          }
          case ExprKind::Cast:
            return static_cast<const Cast &>(e).type;
          case ExprKind::Ternary:
            return typeOf(*static_cast<const Ternary &>(e).then_expr);
          case ExprKind::SizeofType:
            return Type::intType();
          case ExprKind::StructLit:
            return Type::structType(
                static_cast<const StructLit &>(e).struct_name);
          default:
            return nullptr;
        }
    }

  private:
    static TypePtr
    promote(const TypePtr &a, const TypePtr &b)
    {
        auto rank = [](const TypePtr &t) {
            if (!t)
                return 0;
            switch (t->kind()) {
              case TypeKind::LongDouble: return 6;
              case TypeKind::FpgaFloat: return 5;
              case TypeKind::Double: return 4;
              case TypeKind::Float: return 3;
              case TypeKind::Long: return 2;
              default: return 1;
            }
        };
        return rank(a) >= rank(b) ? a : b;
    }

    const TranslationUnit &tu_;
    std::map<std::string, TypePtr> vars_;
};

/** Stateful checker over one translation unit. */
class Checker
{
  public:
    Checker(const TranslationUnit &tu, const HlsConfig &config)
        : tu_(tu), config_(config)
    {}

    std::vector<HlsError>
    run()
    {
        checkTopConfig();
        checkRecursion();
        for (const auto &sd : tu_.structs)
            checkStructDecl(*sd);
        for (const auto &g : tu_.globals) {
            if (g->kind() == StmtKind::Decl)
                checkDecl(static_cast<const DeclStmt &>(*g));
        }
        for (const auto &fn : tu_.functions)
            checkFunction(*fn, nullptr);
        for (const auto &sd : tu_.structs) {
            for (const auto &m : sd->methods)
                checkFunction(*m, sd.get());
        }
        return std::move(errors_);
    }

  private:
    void
    emit(HlsError e)
    {
        // Deduplicate identical (code, symbol, line) triples.
        for (const HlsError &seen : errors_) {
            if (seen.code == e.code && seen.symbol == e.symbol &&
                seen.loc.line == e.loc.line) {
                return;
            }
        }
        errors_.push_back(std::move(e));
    }

    // --- top function configuration --------------------------------------

    void
    checkTopConfig()
    {
        const FunctionDecl *top = tu_.findFunction(config_.top_function);
        if (!top)
            emit(diag::missingTopFunction(config_.top_function));
        if (config_.clock_mhz < 50.0 || config_.clock_mhz > 500.0)
            emit(diag::invalidClock(config_.clock_mhz));
        if (!findDevice(config_.device))
            emit(diag::unknownDevice(config_.device));
        if (top) {
            for (const Param &p : top->params) {
                if (p.type->isArray() &&
                    p.type->arraySize() == kUnknownArraySize) {
                    emit(diag::unknownArraySize(p.name, top->loc));
                }
            }
        }
    }

    // --- recursion --------------------------------------------------------

    void
    checkRecursion()
    {
        for (const std::string &fn : recursiveFunctions(tu_)) {
            SourceLoc loc;
            if (const FunctionDecl *decl = tu_.findFunction(fn))
                loc = decl->loc;
            emit(diag::recursiveFunction(fn, loc));
        }
    }

    // --- structs -----------------------------------------------------------

    void
    checkStructDecl(const StructDecl &sd)
    {
        if (sd.is_union)
            emit(diag::unionNotSupported(sd.name, sd.loc));
        for (const Field &f : sd.fields) {
            if (f.type->isPointer())
                emit(diag::pointerUsage(sd.name + "::" + f.name, sd.loc));
            if (f.type->kind() == TypeKind::LongDouble)
                emit(diag::longDoubleType(sd.name + "::" + f.name,
                                          sd.loc));
        }
    }

    // --- declarations -------------------------------------------------------

    void
    checkDecl(const DeclStmt &d)
    {
        if (d.type->isPointer())
            emit(diag::pointerUsage(d.name, d.loc));
        if (d.type->kind() == TypeKind::LongDouble)
            emit(diag::longDoubleType(d.name, d.loc));
        if (d.type->isArray()) {
            const Type *t = d.type.get();
            while (t->isArray()) {
                if (t->arraySize() == kUnknownArraySize) {
                    emit(diag::unknownArraySize(d.name, d.loc));
                    break;
                }
                t = t->element().get();
            }
        }
    }

    // --- functions -----------------------------------------------------------

    void
    checkFunction(const FunctionDecl &fn, const StructDecl *owner)
    {
        ExprTyper typer(tu_, fn, owner);
        // Parameter and return types.
        if (fn.ret_type->kind() == TypeKind::LongDouble)
            emit(diag::longDoubleType(fn.name, fn.loc));
        for (const Param &p : fn.params) {
            if (p.type->isPointer())
                emit(diag::pointerUsage(p.name, fn.loc));
            if (p.type->kind() == TypeKind::LongDouble)
                emit(diag::longDoubleType(p.name, fn.loc));
        }
        if (!fn.body)
            return;

        bool has_dataflow = blockHasPragma(*fn.body, PragmaKind::Dataflow);
        if (has_dataflow)
            checkDataflowRegion(fn);

        forEachStmt(static_cast<const Stmt &>(*fn.body),
                    [&](const Stmt &s) { checkStmt(s, fn, typer); });
        forEachExpr(static_cast<const Stmt &>(*fn.body),
                    [&](const Expr &e) { checkExpr(e, fn, typer); });
        forEachPlacedPragma(
            *fn.body, [&](const PragmaStmt &p, const Stmt *loop, bool) {
                checkPragma(p, fn, loop, has_dataflow, typer);
            });
    }

    void
    checkStmt(const Stmt &s, const FunctionDecl &fn, const ExprTyper &typer)
    {
        (void)typer;
        (void)fn;
        if (s.kind() == StmtKind::Decl)
            checkDecl(static_cast<const DeclStmt &>(s));
    }

    void
    checkExpr(const Expr &e, const FunctionDecl &fn, const ExprTyper &typer)
    {
        switch (e.kind()) {
          case ExprKind::Call: {
            const auto &c = static_cast<const Call &>(e);
            if (c.callee == "malloc" || c.callee == "free") {
                emit(diag::dynamicAllocation(fn.name, e.loc));
            } else if (!tu_.findFunction(c.callee)) {
                // Math intrinsic: reject long double arguments, which
                // make the C++ overload set ambiguous under HLS.
                for (const auto &a : c.args) {
                    TypePtr t = typer.typeOf(*a);
                    if (t && t->kind() == TypeKind::LongDouble) {
                        emit(diag::ambiguousOverload(c.callee, e.loc));
                        break;
                    }
                }
            }
            break;
          }
          case ExprKind::Unary: {
            const auto &u = static_cast<const Unary &>(e);
            if (u.op == UnaryOp::AddrOf || u.op == UnaryOp::Deref) {
                std::string sym = "<expr>";
                if (u.operand->kind() == ExprKind::Ident)
                    sym = static_cast<const Ident &>(*u.operand).name;
                emit(diag::pointerUsage(sym, e.loc));
            }
            break;
          }
          case ExprKind::Cast: {
            const auto &c = static_cast<const Cast &>(e);
            if (c.type->kind() == TypeKind::LongDouble)
                emit(diag::longDoubleType("<cast>", e.loc));
            break;
          }
          case ExprKind::Binary: {
            const auto &b = static_cast<const Binary &>(e);
            checkFpgaFloatMixing(b, typer);
            break;
          }
          case ExprKind::StructLit: {
            const auto &lit = static_cast<const StructLit &>(e);
            const StructDecl *sd = tu_.findStruct(lit.struct_name);
            if (sd && !sd->ctor && !sd->methods.empty())
                emit(diag::unsynthesizableStruct(lit.struct_name, e.loc));
            break;
          }
          default:
            break;
        }
    }

    /**
     * Arithmetic mixing a custom fpga_float with any other type requires
     * an explicit cast on the non-fpga operand.
     */
    void
    checkFpgaFloatMixing(const Binary &b, const ExprTyper &typer)
    {
        switch (b.op) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::Div:
            break;
          default:
            return;
        }
        TypePtr lt = typer.typeOf(*b.lhs);
        TypePtr rt = typer.typeOf(*b.rhs);
        auto is_fpga_float = [](const TypePtr &t) {
            return t && t->kind() == TypeKind::FpgaFloat;
        };
        auto cast_ok = [&](const Expr &operand, const TypePtr &other) {
            // The operand is acceptable if it is itself fpga_float of the
            // same shape or explicitly cast.
            if (operand.kind() == ExprKind::Cast)
                return true;
            TypePtr t = typer.typeOf(operand);
            return is_fpga_float(t) && other && t->equals(*other);
        };
        if (is_fpga_float(lt) && !cast_ok(*b.rhs, lt)) {
            emit(diag::implicitFpgaConversion(cir::print(b), b.loc));
        } else if (is_fpga_float(rt) && !cast_ok(*b.lhs, rt)) {
            emit(diag::implicitFpgaConversion(cir::print(b), b.loc));
        }
    }

    // --- dataflow region checks ------------------------------------------------

    void
    checkDataflowRegion(const FunctionDecl &fn)
    {
        // Streaming regions — those passing stream-typed locals as call
        // arguments — are judged by the FIFO-aware process-network
        // model (hls/dataflow.h): the hang detector subsumes the legacy
        // shared-array rule (unserialized traffic must flow through a
        // fifo) and adds deadlock/starvation diagnostics. Regions
        // without stream channels keep the legacy checks byte-for-byte.
        DataflowTopology topo = extractTopology(tu_, fn, config_);
        if (!topo.channels.empty()) {
            for (HlsError &e : detectHangs(topo))
                emit(std::move(e));
            return;
        }

        // Count argument uses of each local (non-stream) array across the
        // call statements of the dataflow region and stream uses across
        // struct-literal connections.
        std::map<std::string, int> array_arg_uses;
        std::map<std::string, int> stream_lit_uses;
        std::map<std::string, const DeclStmt *> local_decls;
        forEachStmt(static_cast<const Stmt &>(*fn.body),
                    [&](const Stmt &s) {
                        if (s.kind() == StmtKind::Decl) {
                            const auto &d =
                                static_cast<const DeclStmt &>(s);
                            local_decls[d.name] = &d;
                        }
                    });
        forEachExpr(static_cast<const Stmt &>(*fn.body),
                    [&](const Expr &e) {
                        if (e.kind() == ExprKind::Call) {
                            const auto &c = static_cast<const Call &>(e);
                            for (const auto &a : c.args) {
                                if (a->kind() != ExprKind::Ident)
                                    continue;
                                const std::string &name =
                                    static_cast<const Ident &>(*a).name;
                                auto it = local_decls.find(name);
                                if (it != local_decls.end() &&
                                    it->second->type->isArray()) {
                                    array_arg_uses[name]++;
                                }
                            }
                        } else if (e.kind() == ExprKind::StructLit) {
                            for (const auto &a :
                                 static_cast<const StructLit &>(e).args) {
                                if (a->kind() != ExprKind::Ident)
                                    continue;
                                const std::string &name =
                                    static_cast<const Ident &>(*a).name;
                                auto it = local_decls.find(name);
                                if (it != local_decls.end() &&
                                    it->second->type->isStream()) {
                                    stream_lit_uses[name]++;
                                }
                            }
                        }
                    });
        for (const auto &[name, uses] : array_arg_uses) {
            if (uses >= 2)
                emit(diag::dataflowArgument(name,
                                            local_decls[name]->loc));
        }
        for (const auto &[name, uses] : stream_lit_uses) {
            if (uses >= 2 && !local_decls[name]->is_static)
                emit(diag::nonStaticStream(name, local_decls[name]->loc));
        }
    }

    // --- loop / pragma legality ---------------------------------------------------

    void
    checkPragma(const PragmaStmt &p, const FunctionDecl &fn,
                const Stmt *enclosing_loop, bool has_dataflow,
                const ExprTyper &typer)
    {
        switch (p.info.kind) {
          case PragmaKind::Unroll: {
            long factor = p.info.paramInt("factor", 0);
            if (factor < 0) {
                emit(diag::preSynthesisFailed(
                    "factor must be positive", p.loc));
                break;
            }
            if (!enclosing_loop)
                break; // placement is the style checker's concern
            if (has_dataflow && factor >= 50) {
                emit(diag::preSynthesisFailed(
                    "factor " + std::to_string(factor) +
                        " interacts with the enclosing dataflow region",
                    p.loc));
            }
            if (enclosing_loop->kind() == StmtKind::For) {
                const auto &loop =
                    static_cast<const ForStmt &>(*enclosing_loop);
                if (!staticTripCount(loop).has_value() &&
                    !blockHasPragma(*loop.body,
                                    PragmaKind::LoopTripcount)) {
                    emit(diag::variableTripCount(
                        "loop at " + loop.loc.str(), p.loc));
                }
            } else if (enclosing_loop->kind() == StmtKind::While) {
                const auto &loop =
                    static_cast<const WhileStmt &>(*enclosing_loop);
                if (!blockHasPragma(*loop.body, PragmaKind::LoopTripcount)) {
                    emit(diag::variableTripCount(
                        "while loop at " + loop.loc.str(), p.loc));
                }
            }
            break;
          }
          case PragmaKind::Pipeline: {
            long ii = p.info.paramInt("ii", 1);
            if (ii < 1)
                emit(diag::preSynthesisFailed("pipeline II must be >= 1",
                                              p.loc));
            break;
          }
          case PragmaKind::ArrayPartition: {
            const std::string var = p.info.paramStr("variable");
            long factor = p.info.paramInt("factor", 1);
            TypePtr t;
            if (!var.empty()) {
                Ident probe(var);
                t = typer.typeOf(probe);
            }
            if (t && t->isArray() &&
                t->arraySize() != kUnknownArraySize && factor > 1 &&
                t->arraySize() % factor != 0) {
                emit(diag::arrayPartitionMismatch(var, t->arraySize(),
                                                  factor, p.loc));
            }
            break;
          }
          case PragmaKind::Interface: {
            const std::string port = p.info.paramStr("port");
            if (!port.empty()) {
                bool found = false;
                for (const Param &param : fn.params)
                    found |= param.name == port;
                if (!found) {
                    emit(diag::badInterfacePragma(
                        "port '" + port + "' is not a parameter of '" +
                            fn.name + "'",
                        p.loc));
                }
            }
            break;
          }
          default:
            break;
        }
    }

    const TranslationUnit &tu_;
    const HlsConfig &config_;
    std::vector<HlsError> errors_;
};

} // namespace

std::vector<HlsError>
checkSynthesizability(const TranslationUnit &tu, const HlsConfig &config)
{
    return Checker(tu, config).run();
}

} // namespace heterogen::hls

/**
 * @file
 * The tree-walking reference interpreter (docs/INTERP.md).
 *
 * Executes the AST directly: scoped name lookup, lvalue evaluation into
 * Memory places, and the same step, cycle, coverage, profile and
 * branch-event accounting the bytecode VM performs. It is the
 * evaluation order the VM is proven against, not a production engine.
 * The leaf semantics both engines share (kernel boundary, arithmetic,
 * math intrinsics, cell counts) come from interp/runtime.h.
 */

#include "cir/sema.h"
#include "interp/reference/reference.h"
#include "interp/runtime.h"

namespace heterogen::interp::reference {

using namespace cir;

namespace {

/** Control-flow signal from statement execution. */
enum class Flow { Normal, Break, Continue, Return };

/** Struct layout: field order and per-field types. */
struct Layout
{
    std::vector<std::string> field_names;
    std::vector<const Type *> field_types;
    std::vector<bool> field_is_ref;

    int
    indexOf(const std::string &name) const
    {
        for (size_t i = 0; i < field_names.size(); ++i) {
            if (field_names[i] == name)
                return static_cast<int>(i);
        }
        return -1;
    }

    int size() const { return static_cast<int>(field_names.size()); }
};

/** A named binding in a scope frame. */
struct Binding
{
    Place place;
    const cir::Type *type = nullptr;
};

/** One call frame of lexical scopes. */
struct Frame
{
    std::vector<std::map<std::string, Binding>> scopes;
    std::string function;

    void pushScope() { scopes.emplace_back(); }
    void popScope() { scopes.pop_back(); }

    Binding *
    find(const std::string &name)
    {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            auto hit = it->find(name);
            if (hit != it->end())
                return &hit->second;
        }
        return nullptr;
    }

    void
    bind(const std::string &name, Binding b)
    {
        scopes.back()[name] = std::move(b);
    }
};

/** Result of lvalue evaluation: a cell plus its static type. */
struct PlaceAndType
{
    Place place;
    const cir::Type *type = nullptr;
};

class Engine
{
  public:
    Engine(const TranslationUnit &tu, const RunOptions &opts)
        : tu_(tu), opts_(opts), structs_(tu)
    {
        buildLayouts();
        seed_.arm(opts);
    }

    RunResult
    run(const std::string &function, const std::vector<KernelArg> &args)
    {
        RunResult result;
        try {
            initGlobals();
            const FunctionDecl *fn = tu_.findFunction(function);
            if (!fn)
                throw Trap("no such function: " + function);
            KernelArgs kernel_args(memory_, *fn, args);
            Value ret = callFunction(*fn, kernel_args.values(), nullptr);
            kernel_args.finish(ret, result);
        } catch (const Trap &t) {
            result.ok = false;
            result.trap = t.what();
        }
        result.cycles = cycles_;
        result.steps = steps_;
        return result;
    }

  private:
    // --- setup ---------------------------------------------------------------

    void
    buildLayouts()
    {
        for (const auto &sd : tu_.structs) {
            Layout layout;
            for (const Field &f : sd->fields) {
                layout.field_names.push_back(f.name);
                layout.field_types.push_back(f.type.get());
                layout.field_is_ref.push_back(f.is_reference);
            }
            layouts_[sd->name] = std::move(layout);
        }
    }

    void
    initGlobals()
    {
        frames_.clear();
        frames_.emplace_back();
        frames_.back().function = "<globals>";
        frames_.back().pushScope();
        for (const auto &g : tu_.globals) {
            if (g->kind() == StmtKind::Decl)
                execDecl(static_cast<const DeclStmt &>(*g), true);
        }
    }

    const Layout &
    layoutOf(const std::string &name) const
    {
        auto it = layouts_.find(name);
        if (it == layouts_.end())
            throw Trap("unknown struct layout: " + name);
        return it->second;
    }

    // --- bookkeeping ----------------------------------------------------------

    void
    step()
    {
        if (++steps_ > opts_.max_steps)
            throw Trap("step limit exceeded (possible non-termination)");
    }

    void
    charge(uint64_t c)
    {
        cycles_ += c;
        if (opts_.loop_profile) {
            if (loop_stack_.empty())
                opts_.loop_profile->root_cycles += c;
            else
                opts_.loop_profile->loops[loop_stack_.back()]
                    .cycles_exclusive += c;
        }
    }

    /** RAII frame attributing cycles to a loop while it runs. */
    class LoopScope
    {
      public:
        LoopScope(Engine &engine, int node_id) : engine_(engine)
        {
            rec_ = nullptr;
            if (engine_.opts_.loop_profile) {
                rec_ = &engine_.opts_.loop_profile->loops[node_id];
                rec_->node_id = node_id;
                rec_->parent_id = engine_.loop_stack_.empty()
                                      ? -1
                                      : engine_.loop_stack_.back();
                rec_->entries += 1;
                engine_.loop_stack_.push_back(node_id);
            }
        }

        ~LoopScope()
        {
            if (rec_)
                engine_.loop_stack_.pop_back();
        }

        void
        iteration()
        {
            if (rec_)
                rec_->iterations += 1;
        }

      private:
        Engine &engine_;
        LoopRecord *rec_;
    };

    void
    recordBranch(int branch_id, bool taken)
    {
        charge(CpuCosts::kBranch);
        if (opts_.coverage)
            opts_.coverage->record(branch_id, taken);
        if (opts_.branch_log)
            opts_.branch_log->events.push_back(
                {branch_id, taken, steps_, cycles_});
    }

    void
    profileStore(const std::string &var, const Value &v)
    {
        if (!opts_.profile)
            return;
        std::string key = frames_.back().function + "::" + var;
        if (v.isInt())
            opts_.profile->note(key, v.asInt());
        else if (v.isFloat())
            opts_.profile->noteFloat(key, v.asFloat());
    }

    // --- declarations / frames -------------------------------------------------

    Frame &frame() { return frames_.back(); }
    Frame &globalFrame() { return frames_.front(); }

    Binding *
    lookup(const std::string &name)
    {
        if (Binding *b = frame().find(name))
            return b;
        if (Binding *b = globalFrame().find(name))
            return b;
        return nullptr;
    }

    /** Allocate storage for a declared variable and bind it. */
    void
    execDecl(const DeclStmt &decl, bool /*is_global*/)
    {
        step();
        const TypePtr &t = decl.type;
        Binding b;
        b.type = t.get();
        if (t->isArray()) {
            TypePtr scalar = t;
            long total = 1;
            // Flatten nested dims; a single unknown dim uses vla_size.
            while (scalar->isArray()) {
                long d = scalar->arraySize();
                if (d == kUnknownArraySize) {
                    if (!decl.vla_size)
                        throw Trap("array '" + decl.name +
                                   "' has unknown size");
                    Value sz = eval(*decl.vla_size);
                    d = sz.asInt();
                    if (d < 0)
                        throw Trap("negative array size");
                }
                total *= d;
                scalar = scalar->element();
            }
            if (scalar->isStruct()) {
                const Layout &layout = layoutOf(scalar->structName());
                b.place = {memory_.allocatePattern(int(total), scalar,
                                                   layout.field_types),
                           0};
            } else {
                b.place = {memory_.allocate(int(total), scalar), 0};
            }
        } else if (t->isStruct()) {
            const Layout &layout = layoutOf(t->structName());
            b.place = {memory_.allocatePattern(1, t, layout.field_types),
                       0};
        } else if (t->isStream()) {
            int32_t block = memory_.allocate(1, t);
            int32_t id;
            if (decl.is_static) {
                auto hit = static_streams_.find(decl.node_id);
                if (hit != static_streams_.end()) {
                    id = hit->second;
                } else {
                    id = memory_.createStream();
                    static_streams_[decl.node_id] = id;
                }
            } else {
                id = memory_.createStream();
            }
            memory_.storeRaw({block, 0}, Value::makeStream(id));
            b.place = {block, 0};
        } else {
            b.place = {memory_.allocate(1, t), 0};
        }
        if (decl.init) {
            Value v = eval(*decl.init);
            charge(CpuCosts::kMem);
            if (t->isStruct() && v.isPointer()) {
                copyStruct(v.asPlace(), b.place, t.get());
            } else {
                memory_.store(b.place, v);
                profileStore(decl.name, memory_.load(b.place));
            }
        }
        frame().bind(decl.name, b);
    }

    void
    copyStruct(Place from, Place to, const cir::Type *t)
    {
        const Layout &layout = layoutOf(t->structName());
        for (int i = 0; i < layout.size(); ++i) {
            Value v = memory_.load({from.block, from.offset + i});
            memory_.store({to.block, to.offset + i}, v);
            charge(CpuCosts::kMem);
        }
    }

    // --- function calls ---------------------------------------------------------

    Value
    callFunction(const FunctionDecl &fn, const std::vector<Value> &args,
                 const StructDecl *owner_struct, Place self = {})
    {
        if (static_cast<int>(frames_.size()) > kMaxCallDepth)
            throw Trap("call depth exceeded (runaway recursion?)");
        charge(CpuCosts::kCall);
        if (seed_.due(fn.name))
            seed_.capture(memory_, fn, args);

        frames_.emplace_back();
        frame().function = owner_struct
                               ? owner_struct->name + "::" + fn.name
                               : fn.name;
        frame().pushScope();

        if (owner_struct) {
            const Layout &layout = layoutOf(owner_struct->name);
            for (int i = 0; i < layout.size(); ++i) {
                Binding b;
                b.place = {self.block, self.offset + i};
                b.type = layout.field_types[i];
                frame().bind(layout.field_names[i], b);
            }
        }

        for (size_t i = 0; i < fn.params.size(); ++i) {
            const Param &p = fn.params[i];
            Binding b;
            b.type = p.type.get();
            if (p.type->isArray() || p.type->isPointer() ||
                p.type->isStream() || p.is_reference) {
                // Decay/reference semantics: one cell holding the handle.
                // An array parameter decays to a pointer binding so name
                // lookups load the handle instead of aliasing the cell.
                if (p.type->isArray())
                    b.type = Type::pointer(p.type->element()).get();
                int32_t cell = memory_.allocate(1, nullptr);
                memory_.storeRaw({cell, 0}, args[i]);
                b.place = {cell, 0};
            } else if (p.type->isStruct()) {
                const Layout &layout = layoutOf(p.type->structName());
                int32_t block = memory_.allocatePattern(
                    1, p.type, layout.field_types);
                if (!args[i].isPointer())
                    throw Trap("struct argument mismatch");
                copyStruct(args[i].asPlace(), {block, 0}, p.type.get());
                b.place = {block, 0};
            } else {
                int32_t cell = memory_.allocate(1, p.type);
                memory_.store({cell, 0}, args[i]);
                profileStore(p.name, memory_.load({cell, 0}));
                b.place = {cell, 0};
            }
            frame().bind(p.name, b);
        }

        Value ret;
        Flow flow = execBlock(*fn.body, ret);
        if (flow != Flow::Return)
            ret = Value::makeInt(0);
        frames_.pop_back();
        if (!fn.ret_type->isVoid())
            return coerceToType(ret, fn.ret_type);
        return Value::makeInt(0);
    }

    // --- statements ---------------------------------------------------------------

    Flow
    execBlock(const Block &block, Value &ret)
    {
        frame().pushScope();
        Flow flow = Flow::Normal;
        for (const auto &s : block.stmts) {
            flow = execStmt(*s, ret);
            if (flow != Flow::Normal)
                break;
        }
        frame().popScope();
        return flow;
    }

    Flow
    execStmt(const Stmt &stmt, Value &ret)
    {
        step();
        switch (stmt.kind()) {
          case StmtKind::Block:
            return execBlock(static_cast<const Block &>(stmt), ret);
          case StmtKind::Decl:
            execDecl(static_cast<const DeclStmt &>(stmt), false);
            return Flow::Normal;
          case StmtKind::ExprStmt:
            eval(*static_cast<const ExprStmt &>(stmt).expr);
            return Flow::Normal;
          case StmtKind::If: {
            const auto &s = static_cast<const IfStmt &>(stmt);
            bool cond = eval(*s.cond).truthy();
            recordBranch(s.branch_id, cond);
            if (cond)
                return execBlock(*s.then_block, ret);
            if (s.else_block)
                return execBlock(*s.else_block, ret);
            return Flow::Normal;
          }
          case StmtKind::While: {
            const auto &s = static_cast<const WhileStmt &>(stmt);
            LoopScope scope(*this, s.node_id);
            for (;;) {
                step();
                bool cond = eval(*s.cond).truthy();
                recordBranch(s.branch_id, cond);
                if (!cond)
                    return Flow::Normal;
                scope.iteration();
                Flow flow = execBlock(*s.body, ret);
                if (flow == Flow::Break)
                    return Flow::Normal;
                if (flow == Flow::Return)
                    return flow;
            }
          }
          case StmtKind::For: {
            const auto &s = static_cast<const ForStmt &>(stmt);
            frame().pushScope();
            Value ignored;
            if (s.init)
                execStmt(*s.init, ignored);
            Flow out = Flow::Normal;
            LoopScope scope(*this, s.node_id);
            for (;;) {
                step();
                bool cond = true;
                if (s.cond)
                    cond = eval(*s.cond).truthy();
                recordBranch(s.branch_id, cond);
                if (!cond)
                    break;
                scope.iteration();
                Flow flow = execBlock(*s.body, ret);
                if (flow == Flow::Break)
                    break;
                if (flow == Flow::Return) {
                    out = flow;
                    break;
                }
                if (s.step)
                    eval(*s.step);
            }
            frame().popScope();
            return out;
          }
          case StmtKind::Return: {
            const auto &s = static_cast<const ReturnStmt &>(stmt);
            if (s.value)
                ret = eval(*s.value);
            else
                ret = Value::makeInt(0);
            return Flow::Return;
          }
          case StmtKind::Break:
            return Flow::Break;
          case StmtKind::Continue:
            return Flow::Continue;
          case StmtKind::Pragma:
            return Flow::Normal; // pragmas are scheduling hints only
        }
        return Flow::Normal;
    }

    // --- expressions -----------------------------------------------------------------

    Value
    eval(const Expr &expr)
    {
        step();
        switch (expr.kind()) {
          case ExprKind::IntLit:
            return Value::makeInt(static_cast<const IntLit &>(expr).value);
          case ExprKind::FloatLit:
            return Value::makeFloat(
                static_cast<const FloatLit &>(expr).value);
          case ExprKind::StringLit:
            return Value::makeInt(0);
          case ExprKind::Ident:
            return evalIdent(static_cast<const Ident &>(expr));
          case ExprKind::Unary:
            return evalUnary(static_cast<const Unary &>(expr));
          case ExprKind::Binary:
            return evalBinary(static_cast<const Binary &>(expr));
          case ExprKind::Assign:
            return evalAssign(static_cast<const Assign &>(expr));
          case ExprKind::Call:
            return evalCall(static_cast<const Call &>(expr));
          case ExprKind::MethodCall:
            return evalMethodCall(static_cast<const MethodCall &>(expr));
          case ExprKind::Index:
          case ExprKind::Member: {
            PlaceAndType pt = evalPlace(expr);
            charge(CpuCosts::kMem);
            if (pt.type && (pt.type->isArray() || pt.type->isStruct()))
                return Value::makePointer(pt.place); // decay
            return memory_.load(pt.place);
          }
          case ExprKind::Cast: {
            const auto &e = static_cast<const Cast &>(expr);
            Value v = eval(*e.operand);
            if (e.type->isPointer())
                return v; // pointer reinterpretation
            return coerceToType(v, e.type);
          }
          case ExprKind::Ternary: {
            const auto &e = static_cast<const Ternary &>(expr);
            bool cond = eval(*e.cond).truthy();
            recordBranch(e.branch_id, cond);
            return cond ? eval(*e.then_expr) : eval(*e.else_expr);
          }
          case ExprKind::SizeofType: {
            const auto &e = static_cast<const SizeofType &>(expr);
            return Value::makeInt(flatCells(e.type.get(), structs_));
          }
          case ExprKind::StructLit:
            return evalStructLit(static_cast<const StructLit &>(expr));
        }
        throw Trap("unhandled expression kind");
    }

    Value
    evalIdent(const Ident &e)
    {
        Binding *b = lookup(e.name);
        if (!b)
            throw Trap("unbound identifier: " + e.name);
        charge(CpuCosts::kMem);
        if (b->type &&
            (b->type->isArray() || b->type->isStruct())) {
            return Value::makePointer(b->place); // decay to handle
        }
        return memory_.load(b->place);
    }

    Value
    evalUnary(const Unary &e)
    {
        switch (e.op) {
          case UnaryOp::AddrOf: {
            PlaceAndType pt = evalPlace(*e.operand);
            return Value::makePointer(pt.place);
          }
          case UnaryOp::Deref: {
            Value p = eval(*e.operand);
            if (!p.isPointer())
                throw Trap("dereference of non-pointer");
            charge(CpuCosts::kMem);
            return memory_.load(p.asPlace());
          }
          case UnaryOp::Neg: {
            Value v = eval(*e.operand);
            charge(v.isFloat() ? CpuCosts::kFloatAlu : CpuCosts::kIntAlu);
            if (v.isFloat())
                return Value::makeFloat(-v.asFloat());
            return Value::makeInt(wrapNeg(v.asInt()));
          }
          case UnaryOp::Not: {
            Value v = eval(*e.operand);
            charge(CpuCosts::kIntAlu);
            return Value::makeInt(v.truthy() ? 0 : 1);
          }
          case UnaryOp::BitNot: {
            Value v = eval(*e.operand);
            charge(CpuCosts::kIntAlu);
            return Value::makeInt(~v.asInt());
          }
          case UnaryOp::PreInc:
          case UnaryOp::PreDec:
          case UnaryOp::PostInc:
          case UnaryOp::PostDec: {
            PlaceAndType pt = evalPlace(*e.operand);
            Value old = memory_.load(pt.place);
            charge(CpuCosts::kIntAlu + 2 * CpuCosts::kMem);
            long delta =
                (e.op == UnaryOp::PreInc || e.op == UnaryOp::PostInc) ? 1
                                                                      : -1;
            memory_.store(pt.place, incDec(old, delta, pt.type, structs_));
            if (e.operand->kind() == ExprKind::Ident) {
                profileStore(static_cast<const Ident &>(*e.operand).name,
                             memory_.load(pt.place));
            }
            bool post = e.op == UnaryOp::PostInc || e.op == UnaryOp::PostDec;
            return post ? old : memory_.load(pt.place);
          }
        }
        throw Trap("unhandled unary operator");
    }

    Value
    evalBinary(const Binary &e)
    {
        if (e.op == BinaryOp::LogAnd || e.op == BinaryOp::LogOr) {
            bool lhs = eval(*e.lhs).truthy();
            bool shortcut = (e.op == BinaryOp::LogAnd) ? !lhs : lhs;
            recordBranch(e.branch_id, lhs);
            if (shortcut)
                return Value::makeInt(e.op == BinaryOp::LogAnd ? 0 : 1);
            return Value::makeInt(eval(*e.rhs).truthy() ? 1 : 0);
        }
        Value a = eval(*e.lhs);
        Value b = eval(*e.rhs);
        return binary(e.op, a, b);
    }

    /** Charge `a op b`, then apply it. */
    Value
    binary(BinaryOp op, const Value &a, const Value &b)
    {
        charge(binaryCycles(op, a, b));
        return applyBinary(op, a, b, memory_, structs_);
    }

    Value
    evalAssign(const Assign &e)
    {
        PlaceAndType pt = evalPlace(*e.lhs);
        Value rhs = eval(*e.rhs);
        charge(CpuCosts::kMem);
        Value result;
        if (e.op == AssignOp::Plain) {
            if (pt.type && pt.type->isStruct() && rhs.isPointer()) {
                copyStruct(rhs.asPlace(), pt.place, pt.type);
                result = rhs;
            } else {
                memory_.store(pt.place, rhs);
                result = memory_.load(pt.place);
            }
        } else {
            Value old = memory_.load(pt.place);
            Value combined = binary(compoundOp(e.op), old, rhs);
            memory_.store(pt.place, combined);
            result = memory_.load(pt.place);
        }
        if (e.lhs->kind() == ExprKind::Ident) {
            profileStore(static_cast<const Ident &>(*e.lhs).name, result);
        }
        return result;
    }

    Value
    evalCall(const Call &e)
    {
        if (isBuiltin(e.callee))
            return evalBuiltin(e);
        const FunctionDecl *fn = tu_.findFunction(e.callee);
        if (!fn)
            throw Trap("call to unknown function: " + e.callee);
        if (fn->params.size() != e.args.size())
            throw Trap("wrong argument count calling " + e.callee);
        std::vector<Value> args;
        args.reserve(e.args.size());
        for (const auto &a : e.args)
            args.push_back(eval(*a));
        return callFunction(*fn, args, nullptr);
    }

    bool
    isBuiltin(const std::string &name) const
    {
        return cir::isIntrinsic(name);
    }

    Value
    evalBuiltin(const Call &e)
    {
        const std::string &name = e.callee;
        if (name == "malloc")
            return evalMalloc(e);
        if (name == "free") {
            if (e.args.size() != 1)
                throw Trap("free expects one argument");
            Value p = eval(*e.args[0]);
            if (!p.isPointer())
                throw Trap("free of non-pointer");
            memory_.release(p.asPlace());
            return Value::makeInt(0);
        }
        if (name == "printf") {
            for (const auto &a : e.args)
                eval(*a);
            charge(CpuCosts::kCall);
            return Value::makeInt(0);
        }
        std::vector<Value> args;
        for (const auto &a : e.args)
            args.push_back(eval(*a));
        charge(CpuCosts::kMath);
        return applyMath(mathFnOf(name), name, args);
    }

    Value
    evalMalloc(const Call &e)
    {
        if (e.args.size() != 1)
            throw Trap("malloc expects one argument");
        const Expr &arg = *e.args[0];
        charge(CpuCosts::kCall + CpuCosts::kMem);
        // Recognize malloc(sizeof(T)), malloc(n * sizeof(T)),
        // malloc(sizeof(T) * n); anything else allocates untyped cells.
        const SizeofType *so = nullptr;
        const Expr *count_expr = nullptr;
        if (arg.kind() == ExprKind::SizeofType) {
            so = static_cast<const SizeofType *>(&arg);
        } else if (arg.kind() == ExprKind::Binary) {
            const auto &bin = static_cast<const Binary &>(arg);
            if (bin.op == BinaryOp::Mul) {
                if (bin.lhs->kind() == ExprKind::SizeofType) {
                    so = static_cast<const SizeofType *>(bin.lhs.get());
                    count_expr = bin.rhs.get();
                } else if (bin.rhs->kind() == ExprKind::SizeofType) {
                    so = static_cast<const SizeofType *>(bin.rhs.get());
                    count_expr = bin.lhs.get();
                }
            }
        }
        if (!so) {
            long cells = eval(arg).asInt();
            if (cells > Memory::kMaxCells)
                throw Trap("allocation exceeds interpreter heap limit");
            int32_t block =
                memory_.allocate(int(cells), nullptr, true);
            return Value::makePointer({block, 0});
        }
        long count = 1;
        if (count_expr)
            count = eval(*count_expr).asInt();
        if (count < 0)
            throw Trap("malloc with negative count");
        const TypePtr &t = so->type;
        int32_t block;
        if (t->isStruct()) {
            const Layout &layout = layoutOf(t->structName());
            if (count > Memory::kMaxCells)
                throw Trap("allocation exceeds interpreter heap limit");
            block = memory_.allocatePattern(int(count), t,
                                            layout.field_types, true);
        } else {
            long cells = wrapMul(count, flatCells(t.get(), structs_));
            if (cells > Memory::kMaxCells)
                throw Trap("allocation exceeds interpreter heap limit");
            block = memory_.allocate(int(cells), t, true);
        }
        return Value::makePointer({block, 0});
    }

    Value
    evalMethodCall(const MethodCall &e)
    {
        // Stream methods operate on the stream handle value.
        Value base = eval(*e.base);
        if (base.isStream())
            return evalStreamMethod(base, e);
        // Struct method: need the object place and its struct type.
        PlaceAndType pt = evalPlaceOfObject(*e.base, base);
        if (!pt.type || !pt.type->isStruct())
            throw Trap("method call on non-struct value");
        const StructDecl *sd = tu_.findStruct(pt.type->structName());
        if (!sd)
            throw Trap("unknown struct: " + pt.type->structName());
        const FunctionDecl *method = sd->findMethod(e.method);
        if (!method)
            throw Trap("no method '" + e.method + "' on struct " +
                       sd->name);
        if (method->params.size() != e.args.size())
            throw Trap("wrong argument count calling method " + e.method);
        std::vector<Value> args;
        for (const auto &a : e.args)
            args.push_back(eval(*a));
        return callFunction(*method, args, sd, pt.place);
    }

    Value
    evalStreamMethod(const Value &stream, const MethodCall &e)
    {
        charge(CpuCosts::kStream);
        int32_t id = stream.streamId();
        if (e.method == "write") {
            if (e.args.size() != 1)
                throw Trap("stream.write expects one argument");
            memory_.streamWrite(id, eval(*e.args[0]));
            return Value::makeInt(0);
        }
        if (e.method == "read") {
            if (!e.args.empty())
                throw Trap("stream.read expects no arguments");
            return memory_.streamRead(id);
        }
        if (e.method == "empty")
            return Value::makeInt(memory_.streamEmpty(id) ? 1 : 0);
        if (e.method == "full")
            return Value::makeInt(0);
        if (e.method == "size")
            return Value::makeInt(long(memory_.streamSize(id)));
        throw Trap("unknown stream method: " + e.method);
    }

    Value
    evalStructLit(const StructLit &e)
    {
        const StructDecl *sd = tu_.findStruct(e.struct_name);
        if (!sd)
            throw Trap("unknown struct: " + e.struct_name);
        const Layout &layout = layoutOf(e.struct_name);
        int32_t block = memory_.allocatePattern(
            1, Type::structType(e.struct_name), layout.field_types);
        std::vector<Value> args;
        for (const auto &a : e.args)
            args.push_back(eval(*a));
        if (sd->ctor) {
            if (args.size() != sd->ctor->params.size())
                throw Trap("wrong argument count for " + e.struct_name +
                           " constructor");
            for (const auto &[field, param] : sd->ctor->inits) {
                int fi = layout.indexOf(field);
                int pi = -1;
                for (size_t k = 0; k < sd->ctor->params.size(); ++k) {
                    if (sd->ctor->params[k].name == param)
                        pi = static_cast<int>(k);
                }
                if (fi < 0 || pi < 0)
                    throw Trap("bad constructor initializer in " +
                               e.struct_name);
                memory_.store({block, fi}, args[pi]);
            }
        } else {
            if (args.size() > layout.field_names.size())
                throw Trap("too many initializers for " + e.struct_name);
            for (size_t k = 0; k < args.size(); ++k)
                memory_.store({block, int32_t(k)}, args[k]);
        }
        return Value::makePointer({block, 0});
    }

    // --- lvalues ----------------------------------------------------------------

    PlaceAndType
    evalPlace(const Expr &expr)
    {
        step();
        switch (expr.kind()) {
          case ExprKind::Ident: {
            const auto &e = static_cast<const Ident &>(expr);
            Binding *b = lookup(e.name);
            if (!b)
                throw Trap("unbound identifier: " + e.name);
            // Array/pointer parameter cells hold handles; using the name
            // as a place targets the cell itself.
            return {b->place, b->type};
          }
          case ExprKind::Unary: {
            const auto &e = static_cast<const Unary &>(expr);
            if (e.op == UnaryOp::Deref) {
                Value p = eval(*e.operand);
                if (!p.isPointer())
                    throw Trap("dereference of non-pointer");
                // Static pointee type when the operand type is known.
                return {p.asPlace(), nullptr};
            }
            break;
          }
          case ExprKind::Index: {
            const auto &e = static_cast<const Index &>(expr);
            PlaceAndType base = evalIndexBase(*e.base);
            Value idx = eval(*e.index);
            long i = idx.asInt();
            charge(CpuCosts::kIntAlu);
            long stride = 1;
            const cir::Type *elem = nullptr;
            if (base.type && base.type->isArray()) {
                elem = base.type->element().get();
                stride = flatCells(elem, structs_);
            } else if (base.type && base.type->isPointer()) {
                elem = base.type->element().get();
                stride = flatCells(elem, structs_);
            } else {
                const cir::Type *bt = memory_.blockType(base.place.block);
                if (bt && bt->isStruct()) {
                    elem = bt;
                    stride = layoutOf(bt->structName()).size();
                }
            }
            return {{base.place.block,
                     base.place.offset + int32_t(i * stride)},
                    elem};
          }
          case ExprKind::Member: {
            const auto &e = static_cast<const Member &>(expr);
            PlaceAndType base;
            if (e.is_arrow) {
                Value p = eval(*e.base);
                if (!p.isPointer())
                    throw Trap("-> on non-pointer");
                base.place = p.asPlace();
                base.type = memory_.blockType(base.place.block);
            } else {
                Value v = eval(*e.base);
                if (v.isPointer()) {
                    base.place = v.asPlace();
                    base.type = memory_.blockType(base.place.block);
                } else {
                    base = evalPlace(*e.base);
                }
            }
            if (!base.type || !base.type->isStruct())
                throw Trap("member access on non-struct");
            const Layout &layout = layoutOf(base.type->structName());
            int fi = layout.indexOf(e.field);
            if (fi < 0)
                throw Trap("no field '" + e.field + "' in struct " +
                           base.type->structName());
            return {{base.place.block, base.place.offset + fi},
                    layout.field_types[fi]};
          }
          default:
            break;
        }
        throw Trap("expression is not assignable");
    }

    /**
     * Base resolution for indexing: arrays decay via their binding; a
     * pointer value loads the handle cell.
     */
    PlaceAndType
    evalIndexBase(const Expr &base)
    {
        if (base.kind() == ExprKind::Ident) {
            const auto &e = static_cast<const Ident &>(base);
            Binding *b = lookup(e.name);
            if (!b)
                throw Trap("unbound identifier: " + e.name);
            if (b->type && b->type->isArray())
                return {b->place, b->type};
            // Pointer variable (including decayed array params).
            Value v = memory_.load(b->place);
            if (v.isPointer())
                return {v.asPlace(), b->type};
            throw Trap("subscript of non-array: " + e.name);
        }
        // Nested index/member/deref: evaluate place then decay.
        PlaceAndType pt = evalPlace(base);
        if (pt.type && pt.type->isArray())
            return pt;
        Value v = memory_.load(pt.place);
        if (v.isPointer())
            return {v.asPlace(), pt.type};
        throw Trap("subscript of non-array value");
    }

    /** Place+type for a method call receiver. */
    PlaceAndType
    evalPlaceOfObject(const Expr &base, const Value &value)
    {
        if (value.isPointer()) {
            Place p = value.asPlace();
            const cir::Type *bt = memory_.blockType(p.block);
            if (bt && bt->isStruct())
                return {p, bt};
        }
        return evalPlace(base);
    }

    const TranslationUnit &tu_;
    const RunOptions &opts_;
    Memory memory_;
    std::vector<Frame> frames_;
    std::map<std::string, Layout> layouts_;
    std::map<int, int32_t> static_streams_;
    std::vector<int> loop_stack_;
    StructCells structs_;
    SeedCapture seed_;
    uint64_t steps_ = 0;
    uint64_t cycles_ = 0;
};

} // namespace

RunResult
runWalker(const TranslationUnit &tu, const std::string &function,
          const std::vector<KernelArg> &args, const RunOptions &options)
{
    Engine engine(tu, options);
    return engine.run(function, args);
}

} // namespace heterogen::interp::reference

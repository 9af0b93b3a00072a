/**
 * @file
 * One-pass CIR AST -> bytecode compiler (docs/INTERP.md).
 *
 * The compiler lowers each walker evaluation fragment to exactly one
 * opcode carrying the step() calls that precede it as `pre_steps`.
 * Pending steps are flushed into a bare Step op before any label is
 * bound, so folded steps never leak across a control-flow join: a
 * jump skips precisely the steps the walker would have skipped.
 *
 * Name resolution is static. Every declaration gets a dense frame
 * slot (globals are encoded as -1 - index); a use site that the
 * walker would fail to resolve compiles to a TrapOp with the exact
 * "unbound identifier" message, executed only if reached.
 */

#include "interp/bytecode/bytecode.h"

#include <atomic>
#include <set>
#include <utility>

#include "cir/sema.h"
#include "support/diagnostics.h"

namespace heterogen::interp::bytecode {

namespace {

using namespace cir;

/** Compile-time view of a bound name. */
struct SlotInfo
{
    int slot = 0;
    TypePtr type;
    bool is_reg = false; ///< value lives in the slot, not in Memory
};

class Compiler
{
  public:
    explicit Compiler(const TranslationUnit &tu) : tu_(tu)
    {
        program_ = std::make_unique<Program>();
        program_->tu = &tu;
    }

    std::unique_ptr<Program>
    compile()
    {
        scanAddressed();
        buildLayouts();
        registerFunctions();
        compileGlobals();
        for (FnJob &job : jobs_)
            compileFunction(job);
        fuseOps(program_->globals.ops);
        for (CompiledFunction &fn : program_->functions)
            fuseOps(fn.ops);
        return std::move(program_);
    }

    /**
     * Peephole pass: rewrite the first op of each hot sequence to its
     * fused superinstruction (see the OpCode doc block). The trailing
     * ops are left in place as operand words, so no index shifts and
     * jump targets stay valid. Longer patterns are matched first; `i`
     * skips consumed ops so a trailing op is never fused twice.
     */
    static void
    fuseOps(std::vector<Op> &ops)
    {
        auto at = [&](size_t i) {
            return i < ops.size() ? ops[i].code : OpCode::Halt;
        };
        for (size_t i = 0; i < ops.size(); ++i) {
            OpCode c1 = ops[i].code;
            OpCode c2 = at(i + 1);
            OpCode c3 = at(i + 2);
            OpCode c4 = at(i + 3);
            bool idx_base = c1 == OpCode::IndexBaseArr ||
                            c1 == OpCode::IndexBaseLoad;
            if (idx_base && c2 == OpCode::LoadReg &&
                c3 == OpCode::Const && c4 == OpCode::Binary &&
                at(i + 4) == OpCode::LoadReg &&
                at(i + 5) == OpCode::Binary &&
                at(i + 6) == OpCode::IndexCombine &&
                at(i + 7) == OpCode::PlaceToValue) {
                ops[i].code = c1 == OpCode::IndexBaseArr
                                  ? OpCode::FuseIdxArrAffineLoad
                                  : OpCode::FuseIdxLoadAffineLoad;
                i += 7;
            } else if (idx_base && c2 == OpCode::LoadReg &&
                c3 == OpCode::Const && c4 == OpCode::Binary &&
                at(i + 4) == OpCode::IndexCombine &&
                at(i + 5) == OpCode::PlaceToValue) {
                ops[i].code = c1 == OpCode::IndexBaseArr
                                  ? OpCode::FuseIdxArrRegConstBinaryLoad
                                  : OpCode::FuseIdxLoadRegConstBinaryLoad;
                i += 5;
            } else if ((idx_base || c1 == OpCode::IndexBaseLoadReg) &&
                       c2 == OpCode::LoadReg &&
                       c3 == OpCode::IndexCombine &&
                       c4 == OpCode::PlaceToValue) {
                ops[i].code = c1 == OpCode::IndexBaseArr
                                  ? OpCode::FuseIdxArrRegLoad
                              : c1 == OpCode::IndexBaseLoad
                                  ? OpCode::FuseIdxLoadRegLoad
                                  : OpCode::FuseIdxLoadRegRegLoad;
                i += 3;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::LoadReg &&
                c3 == OpCode::Binary && c4 == OpCode::BranchFalse) {
                ops[i].code = OpCode::FuseLoadRegLoadRegBinaryBranchFalse;
                i += 3;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::LoadReg &&
                       c3 == OpCode::Binary && c4 == OpCode::BranchLoop) {
                ops[i].code = OpCode::FuseLoadRegLoadRegBinaryBranchLoop;
                i += 3;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::Const &&
                       c3 == OpCode::Binary && c4 == OpCode::BranchFalse) {
                ops[i].code = OpCode::FuseLoadRegConstBinaryBranchFalse;
                i += 3;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::Const &&
                       c3 == OpCode::Binary && c4 == OpCode::BranchLoop) {
                ops[i].code = OpCode::FuseLoadRegConstBinaryBranchLoop;
                i += 3;
            } else if (c1 == OpCode::IncDecReg && c2 == OpCode::Drop &&
                       c3 == OpCode::Jump) {
                ops[i].code = OpCode::FuseIncDecRegDropJump;
                i += 2;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::Const &&
                       c3 == OpCode::Binary) {
                ops[i].code = OpCode::FuseLoadRegConstBinary;
                i += 2;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::LoadReg &&
                       c3 == OpCode::Binary) {
                ops[i].code = OpCode::FuseLoadRegLoadRegBinary;
                i += 2;
            } else if (c1 == OpCode::LoadReg &&
                       c2 == OpCode::MemberArrow &&
                       c3 == OpCode::MemberCombine &&
                       c4 == OpCode::PlaceToValue) {
                ops[i].code = OpCode::FuseLoadRegArrowMemberLoad;
                i += 3;
            } else if (c1 == OpCode::MemberArrow &&
                       c2 == OpCode::MemberCombine &&
                       c3 == OpCode::PlaceToValue) {
                ops[i].code = OpCode::FuseArrowMemberLoad;
                i += 2;
            } else if (c1 == OpCode::LoadReg &&
                       c2 == OpCode::MemberArrow &&
                       c3 == OpCode::MemberCombine) {
                ops[i].code = OpCode::FuseLoadRegArrowMember;
                i += 2;
            } else if (c1 == OpCode::LoadReg && c2 == OpCode::Binary) {
                ops[i].code = OpCode::FuseLoadRegBinary;
                i += 1;
            } else if (c1 == OpCode::Const && c2 == OpCode::Binary) {
                ops[i].code = OpCode::FuseConstBinary;
                i += 1;
            } else if (c1 == OpCode::IndexCombine &&
                       c2 == OpCode::PlaceToValue) {
                ops[i].code = OpCode::FuseIndexLoad;
                i += 1;
            } else if (c1 == OpCode::MemberArrow &&
                       c2 == OpCode::MemberCombine) {
                ops[i].code = OpCode::FuseArrowMember;
                i += 1;
            } else if (c1 == OpCode::MemberCombine &&
                       c2 == OpCode::PlaceToValue) {
                ops[i].code = OpCode::FuseMemberLoad;
                i += 1;
            } else if (c1 == OpCode::Binary &&
                       c2 == OpCode::BranchFalse) {
                ops[i].code = OpCode::FuseBinaryBranchFalse;
                i += 1;
            } else if (c1 == OpCode::Binary &&
                       c2 == OpCode::BranchLoop) {
                ops[i].code = OpCode::FuseBinaryBranchLoop;
                i += 1;
            } else if (c1 == OpCode::AssignReg && c2 == OpCode::Drop) {
                ops[i].code = OpCode::FuseAssignRegDrop;
                i += 1;
            } else if (c1 == OpCode::IncDecReg && c2 == OpCode::Drop) {
                ops[i].code = OpCode::FuseIncDecRegDrop;
                i += 1;
            } else if (c1 == OpCode::Assign && c2 == OpCode::Drop) {
                ops[i].code = OpCode::FuseAssignDrop;
                i += 1;
            }
        }
    }

  private:
    struct FnJob
    {
        int id = 0;
        const FunctionDecl *decl = nullptr;
        const StructDecl *owner = nullptr;
    };

    // --- program-wide pools --------------------------------------------------

    int
    internName(const std::string &s)
    {
        auto [it, fresh] =
            name_ids_.emplace(s, int(program_->names.size()));
        if (fresh)
            program_->names.push_back(s);
        return it->second;
    }

    int
    internType(const TypePtr &t)
    {
        program_->types.push_back(t);
        return int(program_->types.size()) - 1;
    }

    int
    internConst(Value v)
    {
        program_->const_pool.push_back(std::move(v));
        return int(program_->const_pool.size()) - 1;
    }

    void
    buildLayouts()
    {
        for (const auto &sd : tu_.structs) {
            StructLayout layout;
            layout.name = sd->name;
            std::vector<TypePtr> owned_types;
            for (const Field &f : sd->fields) {
                layout.field_names.push_back(f.name);
                layout.field_types.push_back(f.type.get());
                owned_types.push_back(f.type);
            }
            layout_type_ptrs_.push_back(std::move(owned_types));
            int idx = int(program_->layouts.size());
            program_->layouts.push_back(std::move(layout));
            // findStruct keeps the first declaration, layoutOf the last.
            program_->struct_ids.emplace(sd->name, idx);
            program_->layout_ids[sd->name] = idx;
        }
    }

    void
    registerFunctions()
    {
        for (const auto &fn : tu_.functions) {
            int id = int(jobs_.size());
            jobs_.push_back({id, fn.get(), nullptr});
            program_->function_ids.emplace(fn->name, id);
        }
        for (const auto &sd : tu_.structs) {
            int layout_idx = program_->struct_ids.at(sd->name);
            for (const auto &m : sd->methods) {
                int id = int(jobs_.size());
                jobs_.push_back({id, m.get(), sd.get()});
                program_->layouts[layout_idx].method_ids.emplace(m->name,
                                                                 id);
            }
        }
        program_->functions.resize(jobs_.size());
    }

    int
    layoutIdx(const std::string &name) const
    {
        auto it = program_->layout_ids.find(name);
        return it == program_->layout_ids.end() ? -1 : it->second;
    }

    /** Mirror of the walker's flatCells; empty reason means success. */
    long
    flatCells(const TypePtr &t, std::string *trap) const
    {
        if (!t)
            return 1;
        if (t->isArray()) {
            long n = t->arraySize();
            if (n == kUnknownArraySize) {
                *trap = "sizeof of unknown-size array";
                return 1;
            }
            return n * flatCells(t->element(), trap);
        }
        if (t->isStruct()) {
            int li = layoutIdx(t->structName());
            if (li < 0) {
                *trap = "unknown struct layout: " + t->structName();
                return 1;
            }
            return program_->layouts[li].size();
        }
        return 1;
    }

    // --- per-function emission ----------------------------------------------

    void
    addStep()
    {
        if (pending_steps_ == 0xFFFF)
            flush();
        ++pending_steps_;
    }

    /** Append an op, folding the pending steps into it. */
    int
    emit(OpCode code, int32_t a = 0, int32_t b = 0, int32_t c = 0)
    {
        Op op;
        op.code = code;
        op.pre_steps = static_cast<uint16_t>(pending_steps_);
        op.a = a;
        op.b = b;
        op.c = c;
        pending_steps_ = 0;
        ops_->push_back(op);
        return int(ops_->size()) - 1;
    }

    /** Flush pending steps so a label never absorbs skipped steps. */
    void
    flush()
    {
        if (pending_steps_ > 0)
            emit(OpCode::Step);
    }

    /** Current position as a jump target (flushes pending steps). */
    int
    here()
    {
        flush();
        return int(ops_->size());
    }

    void patchA(int op, int target) { (*ops_)[op].a = target; }
    void patchB(int op, int target) { (*ops_)[op].b = target; }
    void patchC(int op, int target) { (*ops_)[op].c = target; }

    int
    emitTrap(const std::string &message)
    {
        return emit(OpCode::TrapOp, internName(message));
    }

    // --- scopes and slots ----------------------------------------------------

    void pushScope() { scopes_.emplace_back(); }
    void popScope() { scopes_.pop_back(); }

    void
    bind(const std::string &name, int slot, TypePtr type,
         bool is_reg = false)
    {
        SlotInfo info{slot, std::move(type), is_reg};
        if (in_globals_)
            globals_map_[name] = info;
        else
            scopes_.back()[name] = info;
    }

    const SlotInfo *
    resolve(const std::string &name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto hit = it->find(name);
            if (hit != it->end())
                return &hit->second;
        }
        auto hit = globals_map_.find(name);
        if (hit != globals_map_.end())
            return &hit->second;
        return nullptr;
    }

    int
    allocSlot()
    {
        if (in_globals_)
            return -1 - program_->num_globals++;
        return slot_count_++;
    }

    int
    profileKey(const std::string &var)
    {
        return internName(display_ + "::" + var);
    }

    int allocCache() { return program_->num_caches++; }

    // --- address-taken pre-scan ----------------------------------------------

    /**
     * Collect every name that appears as `&name` anywhere in the TU.
     * The analysis is name-based (not slot-based) and so conservative
     * across scopes: a single `&x` pins every `x` in the program to
     * Memory. Scalars whose name never appears keep their value in the
     * frame slot itself — no pointer to them can exist, so skipping
     * the block allocation is unobservable.
     */
    void
    scanAddressed()
    {
        for (const auto &g : tu_.globals)
            scanStmt(*g);
        for (const auto &fn : tu_.functions)
            scanStmt(*fn->body);
        for (const auto &sd : tu_.structs) {
            for (const auto &m : sd->methods)
                scanStmt(*m->body);
        }
    }

    void
    scanStmt(const Stmt &stmt)
    {
        switch (stmt.kind()) {
          case StmtKind::Block:
            for (const auto &s : static_cast<const Block &>(stmt).stmts)
                scanStmt(*s);
            return;
          case StmtKind::Decl: {
            const auto &s = static_cast<const DeclStmt &>(stmt);
            if (s.init)
                scanExpr(*s.init);
            if (s.vla_size)
                scanExpr(*s.vla_size);
            return;
          }
          case StmtKind::ExprStmt:
            scanExpr(*static_cast<const ExprStmt &>(stmt).expr);
            return;
          case StmtKind::If: {
            const auto &s = static_cast<const IfStmt &>(stmt);
            scanExpr(*s.cond);
            scanStmt(*s.then_block);
            if (s.else_block)
                scanStmt(*s.else_block);
            return;
          }
          case StmtKind::While: {
            const auto &s = static_cast<const WhileStmt &>(stmt);
            scanExpr(*s.cond);
            scanStmt(*s.body);
            return;
          }
          case StmtKind::For: {
            const auto &s = static_cast<const ForStmt &>(stmt);
            if (s.init)
                scanStmt(*s.init);
            if (s.cond)
                scanExpr(*s.cond);
            if (s.step)
                scanExpr(*s.step);
            scanStmt(*s.body);
            return;
          }
          case StmtKind::Return: {
            const auto &s = static_cast<const ReturnStmt &>(stmt);
            if (s.value)
                scanExpr(*s.value);
            return;
          }
          case StmtKind::Break:
          case StmtKind::Continue:
          case StmtKind::Pragma:
            return;
        }
    }

    void
    scanExpr(const Expr &expr)
    {
        switch (expr.kind()) {
          case ExprKind::Unary: {
            const auto &e = static_cast<const Unary &>(expr);
            if (e.op == UnaryOp::AddrOf &&
                e.operand->kind() == ExprKind::Ident) {
                addressed_.insert(
                    static_cast<const Ident &>(*e.operand).name);
            }
            scanExpr(*e.operand);
            return;
          }
          case ExprKind::Binary: {
            const auto &e = static_cast<const Binary &>(expr);
            scanExpr(*e.lhs);
            scanExpr(*e.rhs);
            return;
          }
          case ExprKind::Assign: {
            const auto &e = static_cast<const Assign &>(expr);
            scanExpr(*e.lhs);
            scanExpr(*e.rhs);
            return;
          }
          case ExprKind::Call:
            for (const auto &a : static_cast<const Call &>(expr).args)
                scanExpr(*a);
            return;
          case ExprKind::MethodCall: {
            const auto &e = static_cast<const MethodCall &>(expr);
            scanExpr(*e.base);
            for (const auto &a : e.args)
                scanExpr(*a);
            return;
          }
          case ExprKind::Index: {
            const auto &e = static_cast<const Index &>(expr);
            scanExpr(*e.base);
            scanExpr(*e.index);
            return;
          }
          case ExprKind::Member:
            scanExpr(*static_cast<const Member &>(expr).base);
            return;
          case ExprKind::Cast:
            scanExpr(*static_cast<const Cast &>(expr).operand);
            return;
          case ExprKind::Ternary: {
            const auto &e = static_cast<const Ternary &>(expr);
            scanExpr(*e.cond);
            scanExpr(*e.then_expr);
            scanExpr(*e.else_expr);
            return;
          }
          case ExprKind::StructLit:
            for (const auto &a :
                 static_cast<const StructLit &>(expr).args)
                scanExpr(*a);
            return;
          case ExprKind::IntLit:
          case ExprKind::FloatLit:
          case ExprKind::StringLit:
          case ExprKind::Ident:
          case ExprKind::SizeofType:
            return;
        }
    }

    /** True when a declared name's value can live in its slot. */
    bool
    registerable(const TypePtr &t, const std::string &name) const
    {
        return !t->isArray() && !t->isStruct() && !t->isStream() &&
               addressed_.find(name) == addressed_.end();
    }

    /** The lhs' SlotInfo if it is an Ident bound to a register slot. */
    const SlotInfo *
    resolveReg(const Expr &lhs) const
    {
        if (lhs.kind() != ExprKind::Ident)
            return nullptr;
        const SlotInfo *info =
            resolve(static_cast<const Ident &>(lhs).name);
        return info && info->is_reg ? info : nullptr;
    }

    // --- top-level compilation ------------------------------------------------

    void
    compileGlobals()
    {
        in_globals_ = true;
        display_ = "<globals>";
        ops_ = &program_->globals.ops;
        pending_steps_ = 0;
        program_->globals.display = display_;
        for (const auto &g : tu_.globals) {
            if (g->kind() == StmtKind::Decl)
                compileDecl(static_cast<const DeclStmt &>(*g));
        }
        flush();
        emit(OpCode::Halt);
        in_globals_ = false;
    }

    void
    compileFunction(FnJob &job)
    {
        CompiledFunction &out = program_->functions[job.id];
        const FunctionDecl &fn = *job.decl;
        out.decl = &fn;
        out.display = job.owner ? job.owner->name + "::" + fn.name
                                : fn.name;
        out.ret_type = fn.ret_type;
        out.ret_void = fn.ret_type->isVoid();

        display_ = out.display;
        ops_ = &out.ops;
        pending_steps_ = 0;
        slot_count_ = 0;
        scopes_.clear();
        loops_.clear();
        epilogue_jumps_.clear();
        pushScope();

        // Method receiver fields occupy the first slots; the VM binds
        // them from `self` before the parameter plans run.
        if (job.owner) {
            out.owner_layout =
                layoutIdx(job.owner->name); // last layout, as layoutOf
            const StructLayout &layout = program_->layouts[out.owner_layout];
            const std::vector<TypePtr> &owned =
                layout_type_ptrs_[size_t(out.owner_layout)];
            for (int i = 0; i < layout.size(); ++i)
                bind(layout.field_names[i], slot_count_++, owned[i]);
        }

        for (const Param &p : fn.params) {
            ParamPlan plan;
            plan.slot = slot_count_++;
            plan.type = p.type;
            TypePtr bound = p.type;
            if (p.type->isArray() || p.type->isPointer() ||
                p.type->isStream() || p.is_reference) {
                plan.kind = ParamPlan::Kind::Handle;
                if (p.type->isArray())
                    bound = Type::pointer(p.type->element());
            } else if (p.type->isStruct()) {
                plan.kind = ParamPlan::Kind::Struct;
                plan.layout = layoutIdx(p.type->structName());
            } else {
                plan.kind = addressed_.count(p.name)
                                ? ParamPlan::Kind::Scalar
                                : ParamPlan::Kind::Reg;
                plan.profile_key = profileKey(p.name);
            }
            plan.bound = bound;
            bind(p.name, plan.slot, bound,
                 plan.kind == ParamPlan::Kind::Reg);
            out.params.push_back(std::move(plan));
        }

        compileBlockInner(*fn.body);

        // Fall-off and loop-less break/continue all return Int(0).
        int epilogue = here();
        for (int op : epilogue_jumps_)
            patchA(op, epilogue);
        emit(OpCode::Ret, 0);

        popScope();
        out.num_slots = slot_count_;
    }

    // --- statements -----------------------------------------------------------

    /** execBlock: scope push/pop, no step for the block itself. */
    void
    compileBlockInner(const Block &block)
    {
        pushScope();
        for (const auto &s : block.stmts)
            compileStmt(*s);
        popScope();
    }

    void
    compileStmt(const Stmt &stmt)
    {
        switch (stmt.kind()) {
          case StmtKind::Block:
            addStep();
            compileBlockInner(static_cast<const Block &>(stmt));
            return;
          case StmtKind::Decl:
            addStep(); // execStmt steps, then execDecl steps again
            compileDecl(static_cast<const DeclStmt &>(stmt));
            return;
          case StmtKind::ExprStmt:
            addStep(); // execStmt's step()
            addStep(); // eval() steps for the expression
            compileExpr(*static_cast<const ExprStmt &>(stmt).expr);
            emit(OpCode::Drop);
            return;
          case StmtKind::If: {
            const auto &s = static_cast<const IfStmt &>(stmt);
            addStep(); // execStmt's step()
            addStep(); // eval() steps for the condition
            compileExpr(*s.cond);
            int branch = emit(OpCode::BranchFalse, s.branch_id, -1);
            compileBlockInner(*s.then_block);
            if (s.else_block) {
                int skip = emit(OpCode::Jump, -1);
                patchB(branch, here());
                compileBlockInner(*s.else_block);
                patchA(skip, here());
            } else {
                patchB(branch, here());
            }
            return;
          }
          case StmtKind::While: {
            const auto &s = static_cast<const WhileStmt &>(stmt);
            addStep();
            emit(OpCode::LoopEnter, s.node_id);
            int top = here();
            addStep(); // the per-iteration step()
            addStep(); // eval() steps for the condition
            compileExpr(*s.cond);
            int branch =
                emit(OpCode::BranchLoop, s.branch_id, -1, s.node_id);
            loops_.push_back({{}, top});
            compileBlockInner(*s.body);
            emit(OpCode::Jump, top);
            int exit = here();
            patchB(branch, exit);
            for (int op : loops_.back().break_jumps)
                patchA(op, exit);
            loops_.pop_back();
            emit(OpCode::LoopExit);
            return;
          }
          case StmtKind::For: {
            const auto &s = static_cast<const ForStmt &>(stmt);
            addStep();
            pushScope();
            if (s.init)
                compileStmt(*s.init);
            emit(OpCode::LoopEnter, s.node_id);
            int top = here();
            addStep(); // the per-iteration step()
            int branch = -1;
            if (s.cond) {
                addStep(); // eval() steps for the condition
                compileExpr(*s.cond);
                branch =
                    emit(OpCode::BranchLoop, s.branch_id, -1, s.node_id);
            } else {
                emit(OpCode::LoopAlways, s.branch_id, 0, s.node_id);
            }
            loops_.push_back({{}, -1});
            compileBlockInner(*s.body);
            int incr = here();
            loops_.back().continue_target = incr;
            for (int op : loops_.back().continue_jumps)
                patchA(op, incr);
            if (s.step) {
                addStep(); // eval() steps for the step expression
                compileExpr(*s.step);
                emit(OpCode::Drop);
            }
            emit(OpCode::Jump, top);
            int exit = here();
            if (branch >= 0)
                patchB(branch, exit);
            for (int op : loops_.back().break_jumps)
                patchA(op, exit);
            loops_.pop_back();
            emit(OpCode::LoopExit);
            popScope();
            return;
          }
          case StmtKind::Return: {
            const auto &s = static_cast<const ReturnStmt &>(stmt);
            addStep();
            if (s.value) {
                addStep(); // eval() steps for the value
                compileExpr(*s.value);
                emit(OpCode::Ret, 1);
            } else {
                emit(OpCode::Ret, 0);
            }
            return;
          }
          case StmtKind::Break: {
            addStep();
            int op = emit(OpCode::Jump, -1);
            if (loops_.empty())
                epilogue_jumps_.push_back(op);
            else
                loops_.back().break_jumps.push_back(op);
            return;
          }
          case StmtKind::Continue: {
            addStep();
            int op = emit(OpCode::Jump, -1);
            if (loops_.empty()) {
                epilogue_jumps_.push_back(op);
            } else if (loops_.back().continue_target >= 0) {
                patchA(op, loops_.back().continue_target);
            } else {
                loops_.back().continue_jumps.push_back(op);
            }
            return;
          }
          case StmtKind::Pragma:
            addStep(); // scheduling hint: the walker only steps
            return;
        }
        panic("bytecode compiler: unhandled statement kind");
    }

    void
    compileDecl(const DeclStmt &decl)
    {
        addStep(); // execDecl's step()
        const TypePtr &t = decl.type;
        int slot = allocSlot();
        bool is_reg = registerable(t, decl.name);
        bool ok = emitDeclStorage(decl, t, slot, is_reg);
        if (ok && decl.init) {
            addStep(); // eval() steps for the initializer
            compileExpr(*decl.init);
            if (is_reg) {
                emit(OpCode::DeclInitReg, slot, profileKey(decl.name));
            } else {
                int layout =
                    t->isStruct() ? layoutIdx(t->structName()) : -1;
                emit(OpCode::DeclInit, slot, profileKey(decl.name),
                     layout);
            }
        }
        bind(decl.name, slot, t, is_reg);
    }

    /** Storage allocation ops for a decl; false when a trap was emitted. */
    bool
    emitDeclStorage(const DeclStmt &decl, const TypePtr &t, int slot,
                    bool is_reg)
    {
        if (t->isArray()) {
            ArrayDeclPlan plan;
            plan.type = t;
            TypePtr scalar = t;
            while (scalar->isArray()) {
                long d = scalar->arraySize();
                if (d == kUnknownArraySize) {
                    if (!decl.vla_size) {
                        emitTrap("array '" + decl.name +
                                 "' has unknown size");
                        return false;
                    }
                    addStep(); // eval() steps for the size expression
                    compileExpr(*decl.vla_size);
                    emit(OpCode::CheckDim);
                    ++plan.runtime_dims;
                }
                plan.dims.push_back(d);
                scalar = scalar->element();
            }
            plan.scalar = scalar;
            if (scalar->isStruct()) {
                plan.layout = layoutIdx(scalar->structName());
                if (plan.layout < 0) {
                    emitTrap("unknown struct layout: " +
                             scalar->structName());
                    return false;
                }
            }
            program_->arrays.push_back(std::move(plan));
            emit(OpCode::DeclArray, slot,
                 int(program_->arrays.size()) - 1);
            return true;
        }
        if (t->isStruct()) {
            int li = layoutIdx(t->structName());
            if (li < 0) {
                emitTrap("unknown struct layout: " + t->structName());
                return false;
            }
            emit(OpCode::DeclStruct, slot, li, internType(t));
            return true;
        }
        if (t->isStream()) {
            emit(OpCode::DeclStream, slot, internType(t),
                 decl.is_static ? decl.node_id : -1);
            return true;
        }
        emit(is_reg ? OpCode::DeclReg : OpCode::DeclScalar, slot,
             internType(t));
        return true;
    }

    // --- expressions -----------------------------------------------------------

    /** eval(): one addStep for the node, then the operator's ops. */
    void
    compileExpr(const Expr &expr)
    {
        switch (expr.kind()) {
          case ExprKind::IntLit:
            emit(OpCode::Const,
                 internConst(Value::makeInt(
                     static_cast<const IntLit &>(expr).value)));
            return;
          case ExprKind::FloatLit:
            emit(OpCode::Const,
                 internConst(Value::makeFloat(
                     static_cast<const FloatLit &>(expr).value)));
            return;
          case ExprKind::StringLit:
            emit(OpCode::Const, internConst(Value::makeInt(0)));
            return;
          case ExprKind::Ident: {
            const auto &e = static_cast<const Ident &>(expr);
            const SlotInfo *info = resolve(e.name);
            if (!info) {
                emitTrap("unbound identifier: " + e.name);
                return;
            }
            if (info->is_reg) {
                emit(OpCode::LoadReg, info->slot);
                return;
            }
            bool handle = info->type && (info->type->isArray() ||
                                         info->type->isStruct());
            emit(handle ? OpCode::LoadHandle : OpCode::LoadScalar,
                 info->slot);
            return;
          }
          case ExprKind::Unary:
            compileUnary(static_cast<const Unary &>(expr));
            return;
          case ExprKind::Binary:
            compileBinary(static_cast<const Binary &>(expr));
            return;
          case ExprKind::Assign: {
            const auto &e = static_cast<const Assign &>(expr);
            addStep(); // evalPlace() steps for the left-hand side
            if (const SlotInfo *reg = resolveReg(*e.lhs)) {
                addStep(); // eval() steps for the right-hand side
                compileExpr(*e.rhs);
                emit(OpCode::AssignReg, int32_t(e.op),
                     profileKey(
                         static_cast<const Ident &>(*e.lhs).name),
                     reg->slot);
                return;
            }
            compilePlaceInner(*e.lhs);
            addStep(); // eval() steps for the right-hand side
            compileExpr(*e.rhs);
            int key = e.lhs->kind() == ExprKind::Ident
                          ? profileKey(
                                static_cast<const Ident &>(*e.lhs).name)
                          : -1;
            emit(OpCode::Assign, int32_t(e.op), key);
            return;
          }
          case ExprKind::Call:
            compileCall(static_cast<const Call &>(expr));
            return;
          case ExprKind::MethodCall:
            compileMethodCall(static_cast<const MethodCall &>(expr));
            return;
          case ExprKind::Index:
          case ExprKind::Member:
            addStep(); // evalPlace() steps again for the same node
            compilePlaceInner(expr);
            emit(OpCode::PlaceToValue);
            return;
          case ExprKind::Cast: {
            const auto &e = static_cast<const Cast &>(expr);
            addStep(); // eval() steps for the operand
            compileExpr(*e.operand);
            if (!e.type->isPointer())
                emit(OpCode::CastTo, internType(e.type));
            return;
          }
          case ExprKind::Ternary: {
            const auto &e = static_cast<const Ternary &>(expr);
            addStep(); // eval() steps for the condition
            compileExpr(*e.cond);
            int branch = emit(OpCode::BranchFalse, e.branch_id, -1);
            addStep(); // eval() steps for the then-branch
            compileExpr(*e.then_expr);
            int skip = emit(OpCode::Jump, -1);
            patchB(branch, here());
            addStep(); // eval() steps for the else-branch
            compileExpr(*e.else_expr);
            patchA(skip, here());
            return;
          }
          case ExprKind::SizeofType: {
            const auto &e = static_cast<const SizeofType &>(expr);
            std::string trap;
            long cells = flatCells(e.type, &trap);
            if (!trap.empty())
                emitTrap(trap);
            else
                emit(OpCode::Const,
                     internConst(Value::makeInt(cells)));
            return;
          }
          case ExprKind::StructLit:
            compileStructLit(static_cast<const StructLit &>(expr));
            return;
        }
        panic("bytecode compiler: unhandled expression kind");
    }

    void
    compileUnary(const Unary &e)
    {
        switch (e.op) {
          case UnaryOp::AddrOf:
            addStep(); // evalPlace() steps for the operand
            compilePlaceInner(*e.operand);
            emit(OpCode::AddrOf);
            return;
          case UnaryOp::Deref:
            addStep(); // eval() steps for the operand
            compileExpr(*e.operand);
            emit(OpCode::DerefLoad);
            return;
          case UnaryOp::Neg:
            addStep();
            compileExpr(*e.operand);
            emit(OpCode::Neg);
            return;
          case UnaryOp::Not:
            addStep();
            compileExpr(*e.operand);
            emit(OpCode::Not);
            return;
          case UnaryOp::BitNot:
            addStep();
            compileExpr(*e.operand);
            emit(OpCode::BitNot);
            return;
          case UnaryOp::PreInc:
          case UnaryOp::PreDec:
          case UnaryOp::PostInc:
          case UnaryOp::PostDec: {
            addStep(); // evalPlace() steps for the operand
            int mode = e.op == UnaryOp::PreInc    ? 0
                       : e.op == UnaryOp::PreDec  ? 1
                       : e.op == UnaryOp::PostInc ? 2
                                                  : 3;
            if (const SlotInfo *reg = resolveReg(*e.operand)) {
                emit(OpCode::IncDecReg, mode,
                     profileKey(static_cast<const Ident &>(
                                    *e.operand)
                                    .name),
                     reg->slot);
                return;
            }
            compilePlaceInner(*e.operand);
            int key = e.operand->kind() == ExprKind::Ident
                          ? profileKey(static_cast<const Ident &>(
                                           *e.operand)
                                           .name)
                          : -1;
            emit(OpCode::IncDec, mode, key);
            return;
          }
        }
        panic("bytecode compiler: unhandled unary operator");
    }

    void
    compileBinary(const Binary &e)
    {
        if (e.op == BinaryOp::LogAnd || e.op == BinaryOp::LogOr) {
            addStep(); // eval() steps for the left operand
            compileExpr(*e.lhs);
            int test = emit(OpCode::LogicalTest,
                            e.op == BinaryOp::LogAnd ? 1 : 0,
                            e.branch_id, -1);
            addStep(); // eval() steps for the right operand
            compileExpr(*e.rhs);
            emit(OpCode::Truthy01);
            patchC(test, here());
            return;
        }
        addStep(); // eval() steps for the left operand
        compileExpr(*e.lhs);
        addStep(); // eval() steps for the right operand
        compileExpr(*e.rhs);
        emit(OpCode::Binary, int32_t(e.op));
    }

    void
    compileCall(const Call &e)
    {
        if (cir::isIntrinsic(e.callee)) {
            compileBuiltin(e);
            return;
        }
        auto it = program_->function_ids.find(e.callee);
        if (it == program_->function_ids.end()) {
            emitTrap("call to unknown function: " + e.callee);
            return;
        }
        const FnJob &job = jobs_[it->second];
        if (job.decl->params.size() != e.args.size()) {
            emitTrap("wrong argument count calling " + e.callee);
            return;
        }
        for (const auto &a : e.args) {
            addStep(); // eval() steps per argument
            compileExpr(*a);
        }
        emit(OpCode::CallFn, it->second, int32_t(e.args.size()));
    }

    void
    compileBuiltin(const Call &e)
    {
        const std::string &name = e.callee;
        if (name == "malloc") {
            compileMalloc(e);
            return;
        }
        if (name == "free") {
            if (e.args.size() != 1) {
                emitTrap("free expects one argument");
                return;
            }
            addStep(); // eval() steps for the argument
            compileExpr(*e.args[0]);
            emit(OpCode::FreeOp);
            return;
        }
        if (name == "printf") {
            for (const auto &a : e.args) {
                addStep();
                compileExpr(*a);
            }
            emit(OpCode::Printf, int32_t(e.args.size()));
            return;
        }
        for (const auto &a : e.args) {
            addStep();
            compileExpr(*a);
        }
        MathFn fn = MathFn::Unknown;
        if (name == "sqrt" || name == "sqrtf")
            fn = MathFn::Sqrt;
        else if (name == "fabs")
            fn = MathFn::Fabs;
        else if (name == "abs")
            fn = MathFn::Abs;
        else if (name == "pow" || name == "powf")
            fn = MathFn::Pow;
        else if (name == "sin")
            fn = MathFn::Sin;
        else if (name == "cos")
            fn = MathFn::Cos;
        else if (name == "tan")
            fn = MathFn::Tan;
        else if (name == "exp")
            fn = MathFn::Exp;
        else if (name == "log")
            fn = MathFn::Log;
        else if (name == "floor")
            fn = MathFn::Floor;
        else if (name == "ceil")
            fn = MathFn::Ceil;
        else if (name == "min")
            fn = MathFn::Min;
        else if (name == "max")
            fn = MathFn::Max;
        emit(OpCode::Math, int32_t(fn), int32_t(e.args.size()),
             internName(name));
    }

    void
    compileMalloc(const Call &e)
    {
        if (e.args.size() != 1) {
            emitTrap("malloc expects one argument");
            return;
        }
        const Expr &arg = *e.args[0];
        // The walker charges kCall + kMem before inspecting the shape.
        emit(OpCode::Charge, int32_t(CpuCosts::kCall + CpuCosts::kMem));
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
            addStep(); // eval() steps for the size argument
            compileExpr(arg);
            emit(OpCode::MallocRaw);
            return;
        }
        MallocPlan plan;
        plan.type = so->type;
        plan.has_count = count_expr != nullptr;
        if (so->type->isStruct()) {
            plan.layout = layoutIdx(so->type->structName());
            if (plan.layout < 0)
                plan.trap =
                    "unknown struct layout: " + so->type->structName();
        } else {
            plan.cells_per = flatCells(so->type, &plan.trap);
        }
        if (count_expr) {
            addStep(); // eval() steps for the count
            compileExpr(*count_expr);
        }
        program_->mallocs.push_back(std::move(plan));
        emit(OpCode::MallocTyped, int(program_->mallocs.size()) - 1);
    }

    void
    compileMethodCall(const MethodCall &e)
    {
        addStep(); // eval() steps for the receiver expression
        compileExpr(*e.base);
        MethodPlan plan;
        plan.method = e.method;
        plan.argc = int(e.args.size());
        if (e.method == "write")
            plan.stream_kind = 0;
        else if (e.method == "read")
            plan.stream_kind = 1;
        else if (e.method == "empty")
            plan.stream_kind = 2;
        else if (e.method == "full")
            plan.stream_kind = 3;
        else if (e.method == "size")
            plan.stream_kind = 4;
        else
            plan.stream_kind = 5;
        int plan_idx = int(program_->methods.size());
        program_->methods.push_back(plan);
        emit(OpCode::MethodEnter, plan_idx);
        // Slow path: re-evaluate the receiver as a place (side effects
        // run twice, exactly as the walker's evalPlaceOfObject does).
        addStep(); // evalPlace() steps for the receiver
        compilePlaceInner(*e.base);
        int bind_pc = here();
        emit(OpCode::MethodBind, plan_idx);
        for (const auto &a : e.args) {
            addStep(); // eval() steps per argument
            compileExpr(*a);
        }
        emit(OpCode::MethodInvoke, plan_idx);
        program_->methods[plan_idx].bind_pc = bind_pc;
        program_->methods[plan_idx].end_pc = here();
    }

    void
    compileStructLit(const StructLit &e)
    {
        auto sit = program_->struct_ids.find(e.struct_name);
        if (sit == program_->struct_ids.end()) {
            emitTrap("unknown struct: " + e.struct_name);
            return;
        }
        const StructDecl *sd = tu_.findStruct(e.struct_name);
        StructLitPlan plan;
        plan.layout = layoutIdx(e.struct_name);
        plan.type = Type::structType(e.struct_name);
        plan.argc = int(e.args.size());
        const StructLayout &layout = program_->layouts[plan.layout];
        if (sd->ctor) {
            if (e.args.size() != sd->ctor->params.size()) {
                plan.trap = "wrong argument count for " + e.struct_name +
                            " constructor";
                plan.trap_before = true;
            } else {
                for (const auto &[field, param] : sd->ctor->inits) {
                    int fi = layout.indexOf(field);
                    int pi = -1;
                    for (size_t k = 0; k < sd->ctor->params.size(); ++k) {
                        if (sd->ctor->params[k].name == param)
                            pi = int(k);
                    }
                    if (fi < 0 || pi < 0) {
                        // Stores before the bad initializer still land.
                        plan.trap = "bad constructor initializer in " +
                                    e.struct_name;
                        plan.trap_before = false;
                        break;
                    }
                    plan.stores.push_back({fi, pi});
                }
            }
        } else if (e.args.size() > layout.field_names.size()) {
            plan.trap = "too many initializers for " + e.struct_name;
            plan.trap_before = true;
        } else {
            for (int k = 0; k < int(e.args.size()); ++k)
                plan.stores.push_back({k, k});
        }
        int plan_idx = int(program_->struct_lits.size());
        program_->struct_lits.push_back(std::move(plan));
        emit(OpCode::StructLitAlloc, plan_idx);
        for (const auto &a : e.args) {
            addStep(); // eval() steps per initializer
            compileExpr(*a);
        }
        emit(OpCode::StructLitInit, plan_idx);
    }

    // --- lvalues ----------------------------------------------------------------

    /**
     * evalPlace() minus its leading step(), which the caller accounts
     * for (rvalue Index/Member steps twice: eval then evalPlace).
     */
    void
    compilePlaceInner(const Expr &expr)
    {
        switch (expr.kind()) {
          case ExprKind::Ident: {
            const auto &e = static_cast<const Ident &>(expr);
            const SlotInfo *info = resolve(e.name);
            if (!info) {
                emitTrap("unbound identifier: " + e.name);
                return;
            }
            // Register slots have no place; consumers of this entry
            // (MemberCombine / MethodBind) trap on the static type
            // before touching the place, since registers are never
            // structs. Assign / IncDec / AddrOf never reach here for
            // a register.
            emit(info->is_reg ? OpCode::PlaceReg : OpCode::PlaceSlot,
                 info->slot);
            return;
          }
          case ExprKind::Unary: {
            const auto &e = static_cast<const Unary &>(expr);
            if (e.op == UnaryOp::Deref) {
                addStep(); // eval() steps for the operand
                compileExpr(*e.operand);
                emit(OpCode::PlaceDeref);
                return;
            }
            emitTrap("expression is not assignable");
            return;
          }
          case ExprKind::Index: {
            const auto &e = static_cast<const Index &>(expr);
            compileIndexBase(*e.base);
            addStep(); // eval() steps for the index
            compileExpr(*e.index);
            emit(OpCode::IndexCombine, allocCache());
            return;
          }
          case ExprKind::Member: {
            const auto &e = static_cast<const Member &>(expr);
            if (e.is_arrow) {
                addStep(); // eval() steps for the base
                compileExpr(*e.base);
                emit(OpCode::MemberArrow);
                emit(OpCode::MemberCombine, internName(e.field), 0,
                     allocCache());
            } else {
                addStep(); // eval() steps for the base
                compileExpr(*e.base);
                int test = emit(OpCode::MemberDotTest, -1);
                addStep(); // evalPlace() re-evaluates the base
                compilePlaceInner(*e.base);
                patchA(test, here());
                emit(OpCode::MemberCombine, internName(e.field), 0,
                     allocCache());
            }
            return;
          }
          default:
            emitTrap("expression is not assignable");
            return;
        }
    }

    /** evalIndexBase: the Ident fast path does not step. */
    void
    compileIndexBase(const Expr &base)
    {
        if (base.kind() == ExprKind::Ident) {
            const auto &e = static_cast<const Ident &>(base);
            const SlotInfo *info = resolve(e.name);
            if (!info) {
                emitTrap("unbound identifier: " + e.name);
                return;
            }
            if (info->type && info->type->isArray())
                emit(OpCode::IndexBaseArr, info->slot);
            else
                emit(info->is_reg ? OpCode::IndexBaseLoadReg
                                  : OpCode::IndexBaseLoad,
                     info->slot, 0,
                     internName("subscript of non-array: " + e.name));
            return;
        }
        addStep(); // evalPlace() steps for the nested base
        compilePlaceInner(base);
        emit(OpCode::IndexBaseDecay);
    }

    const TranslationUnit &tu_;
    std::unique_ptr<Program> program_;
    std::vector<FnJob> jobs_;
    std::map<std::string, int> name_ids_;
    /** Owning field-type copies parallel to program_->layouts. */
    std::vector<std::vector<TypePtr>> layout_type_ptrs_;

    // Per-function emission state.
    struct LoopCtx
    {
        std::vector<int> break_jumps;
        int continue_target = -1; // while: loop top; for: patched later
        std::vector<int> continue_jumps;

        LoopCtx(std::vector<int> breaks, int cont)
            : break_jumps(std::move(breaks)), continue_target(cont)
        {
        }
    };
    std::vector<Op> *ops_ = nullptr;
    uint32_t pending_steps_ = 0;
    int slot_count_ = 0;
    std::string display_;
    bool in_globals_ = false;
    std::vector<std::map<std::string, SlotInfo>> scopes_;
    std::map<std::string, SlotInfo> globals_map_;
    /** Names that appear as `&name` anywhere in the TU. */
    std::set<std::string> addressed_;
    std::vector<LoopCtx> loops_;
    std::vector<int> epilogue_jumps_;
};

} // namespace

std::unique_ptr<const Program>
compileProgram(const TranslationUnit &tu)
{
    std::unique_ptr<Program> program = Compiler(tu).compile();
    static std::atomic<uint64_t> next_serial{0};
    program->serial = ++next_serial;
    return program;
}

} // namespace heterogen::interp::bytecode

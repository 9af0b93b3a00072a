/**
 * @file
 * One-pass CIR AST -> bytecode compiler (docs/INTERP.md).
 *
 * The compiler lowers each walker evaluation fragment to exactly one
 * opcode carrying the step() calls that precede it and its static
 * cycle charge (OpCost). Pending steps are flushed into a bare Step op
 * before any label is bound, so folded steps never leak across a
 * control-flow join: a jump skips precisely the steps the walker would
 * have skipped. Every label and every op after a control transfer,
 * call, return or loop entry/exit opens a basic block with a Block
 * header. Per function, the peephole typeOps() then rewrites integer
 * register sequences into typed ops, and finalizeBlocks() fills in
 * each block's sums.
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
#include "cir/walk.h"
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
        // Every name that appears as `&name` anywhere in the TU. The
        // analysis is by name, so conservative across scopes: one `&x`
        // pins every `x` in the program to Memory. A scalar whose name
        // never appears keeps its value in its frame slot; no pointer to
        // it can exist, so skipping its block allocation is unobservable.
        forEachExpr(tu_, [this](const Expr &expr) {
            if (expr.kind() != ExprKind::Unary)
                return;
            const auto &e = static_cast<const Unary &>(expr);
            if (e.op == UnaryOp::AddrOf &&
                e.operand->kind() == ExprKind::Ident)
                addressed_.insert(static_cast<const Ident &>(*e.operand).name);
        });
        buildLayouts();
        registerFunctions();
        compileGlobals();
        finalizeBlocks(program_->globals);
        for (FnJob &job : jobs_) {
            CompiledFunction &fn = program_->functions[job.id];
            compileFunction(job);
            typeOps(fn);
            finalizeBlocks(fn);
        }
        return std::move(program_);
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
        program_->structs = StructCells(tu_);
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

    /** flatCells at compile time: a trap becomes the message to raise. */
    long
    cellsOrTrap(const TypePtr &t, std::string &trap) const
    {
        try {
            return flatCells(t.get(), program_->structs);
        } catch (const Trap &e) {
            trap = e.what();
            return 1;
        }
    }

    // --- per-function emission ----------------------------------------------

    void
    addStep()
    {
        if (pending_steps_ == 0xFFFF)
            flush();
        ++pending_steps_;
    }

    /**
     * The part of an op's cycle charge that is static and precedes
     * every trap point of its handler; the handler charges the rest.
     */
    static uint8_t
    staticCycles(OpCode code, int32_t a)
    {
        switch (code) {
          case OpCode::LoadScalar:
          case OpCode::LoadHandle:
          case OpCode::LoadReg:
          case OpCode::PlaceToValue:
          case OpCode::DeclInit:
          case OpCode::DeclInitReg:
          case OpCode::Assign:
          case OpCode::AssignReg:
            return CpuCosts::kMem;
          case OpCode::IndexCombine:
          case OpCode::Not:
          case OpCode::BitNot:
            return CpuCosts::kIntAlu;
          case OpCode::IncDecReg:
            return CpuCosts::kIntAlu + 2 * CpuCosts::kMem;
          case OpCode::LogicalTest:
          case OpCode::BranchFalse:
          case OpCode::BranchLoop:
          case OpCode::LoopAlways:
            return CpuCosts::kBranch;
          case OpCode::Printf:
            return CpuCosts::kCall;
          case OpCode::Math:
            return CpuCosts::kMath;
          case OpCode::Charge:
            return uint8_t(a);
          default:
            return 0;
        }
    }

    /** Ops after which the next op starts a new basic block. */
    static bool
    endsBlock(OpCode code)
    {
        switch (code) {
          case OpCode::Jump:
          case OpCode::BranchFalse:
          case OpCode::BranchLoop:
          case OpCode::LogicalTest:
          case OpCode::MemberDotTest:
          case OpCode::CallFn:
          case OpCode::Ret:
          case OpCode::Halt:
          case OpCode::MethodEnter:
          case OpCode::MethodInvoke:
          case OpCode::LoopEnter:
          case OpCode::LoopExit:
          case OpCode::TrapOp:
            return true;
          default:
            return false;
        }
    }

    void
    push(OpCode code, int32_t a, int32_t b, int32_t c, uint16_t steps)
    {
        Op op;
        op.code = code;
        op.a = a;
        op.b = b;
        op.c = c;
        ops_->push_back(op);
        OpCost cost;
        cost.steps = steps;
        cost.cycles = staticCycles(code, a);
        costs_->push_back(cost);
    }

    /** Append an op, folding the pending steps into it. */
    int
    emit(OpCode code, int32_t a = 0, int32_t b = 0, int32_t c = 0)
    {
        if (!block_open_)
            push(OpCode::Block, 0, 0, 0, 0);
        push(code, a, b, c, uint16_t(pending_steps_));
        pending_steps_ = 0;
        block_open_ = !endsBlock(code);
        return int(ops_->size()) - 1;
    }

    /** Flush pending steps so a label never absorbs skipped steps. */
    void
    flush()
    {
        if (pending_steps_ > 0)
            emit(OpCode::Step);
    }

    /** Current position as a jump target: a (possibly shared) Block. */
    int
    here()
    {
        flush();
        if (ops_->empty() || ops_->back().code != OpCode::Block) {
            push(OpCode::Block, 0, 0, 0, 0);
            block_open_ = true;
        }
        return int(ops_->size()) - 1;
    }

    /** Fill each Block header with its block's step and cycle sums. */
    static void
    finalizeBlocks(CompiledFunction &fn)
    {
        Op *head = nullptr;
        for (size_t i = 0; i < fn.ops.size(); ++i) {
            if (fn.ops[i].code == OpCode::Block) {
                head = &fn.ops[i];
            } else {
                head->a += fn.costs[i].steps;
                head->b += fn.costs[i].cycles;
            }
        }
    }

    // --- typed register ops ---------------------------------------------------

    /** The declaration bound to an encoded slot of this function. */
    const SlotInfo *
    slotInfo(int32_t slot) const
    {
        const std::vector<SlotInfo> &table =
            slot >= 0 ? local_slots_ : global_slots_;
        size_t index = size_t(slot >= 0 ? slot : -1 - slot);
        return index < table.size() && table[index].type ? &table[index]
                                                          : nullptr;
    }

    /**
     * Local integer-family register (Bool included: it holds 0/1).
     * Only local slots: their frame is the typed ops' `slots` base.
     */
    bool
    intSlot(int32_t slot) const
    {
        const SlotInfo *info = slot >= 0 ? slotInfo(slot) : nullptr;
        return info && info->is_reg && info->type->isInteger();
    }

    /** Op::wrap of a typed store target; 0 when the slot is not one. */
    uint8_t
    wrapOf(int32_t slot) const
    {
        if (!intSlot(slot))
            return 0;
        const Type &t = *slotInfo(slot)->type;
        switch (t.kind()) {
          case TypeKind::Char: return 8 | kWrapSigned;
          case TypeKind::Int: return 32 | kWrapSigned;
          case TypeKind::Long: return 64 | kWrapSigned;
          case TypeKind::FpgaInt:
          case TypeKind::FpgaUint: {
            if (t.width() < 1)
                return 0;
            uint8_t bits = uint8_t(t.width() < 64 ? t.width() : 64);
            return t.kind() == TypeKind::FpgaInt ? bits | kWrapSigned
                                                 : bits;
          }
          default:
            return 0; // Bool coerces by truthiness
        }
    }

    /** An integer register load or int32 literal: the typed operand. */
    bool
    intOperand(const Op &w, int32_t &value, bool &is_const) const
    {
        if (w.code == OpCode::LoadReg && intSlot(w.a)) {
            value = w.a;
            is_const = false;
            return true;
        }
        if (w.code == OpCode::Const) {
            const Value &v = program_->const_pool[size_t(w.a)];
            if (v.isInt() && v.asInt() >= INT32_MIN &&
                v.asInt() <= INT32_MAX) {
                value = int32_t(v.asInt());
                is_const = true;
                return true;
            }
        }
        return false;
    }

    /**
     * An IndexBase* word whose base is statically an array or pointer
     * with a scalar element: IndexCombine's stride is then 1 and it
     * cannot trap, and PlaceToValue loads.
     */
    bool
    scalarIndexBase(const Op &w) const
    {
        if (w.code != OpCode::IndexBaseArr &&
            w.code != OpCode::IndexBaseLoad &&
            w.code != OpCode::IndexBaseLoadReg)
            return false;
        const SlotInfo *info = slotInfo(w.a);
        if (!info || !(info->type->isArray() || info->type->isPointer()))
            return false;
        const TypePtr &elem = info->type->element();
        return elem && !elem->isArray() && !elem->isStruct();
    }

    static bool
    traps(BinaryOp op)
    {
        return op == BinaryOp::Div || op == BinaryOp::Mod;
    }

    /**
     * Typed peephole: rewrite the first word of each integer register
     * sequence into its typed op (see the OpCode doc block). Longer
     * patterns match first; a Block header never matches a pattern
     * word, so no typed op spans a label.
     */
    void
    typeOps(CompiledFunction &fn)
    {
        std::vector<Op> &ops = fn.ops;
        std::vector<OpCost> &costs = fn.costs;
        auto code = [&](size_t i) {
            return i < ops.size() ? ops[i].code : OpCode::Halt;
        };
        auto storeTo = [&](Op &op, int32_t slot, int32_t key,
                           int32_t type) {
            op.c = slot;
            op.d = key;
            op.e = type;
            op.wrap = wrapOf(slot);
        };
        for (size_t i = 0; i < ops.size(); ++i) {
            int32_t l = 0;
            int32_t r = 0;
            bool lc = false;
            bool rc = false;
            Op &op = ops[i];
            if (intOperand(op, l, lc) && i + 2 < ops.size() &&
                intOperand(ops[i + 1], r, rc) &&
                code(i + 2) == OpCode::Binary) {
                BinaryOp bop = BinaryOp(ops[i + 2].a);
                Op typed;
                typed.bop = uint8_t(bop);
                typed.mode = uint8_t((lc ? kConstL : 0) |
                                     (rc ? kConstR : 0));
                typed.a = l;
                typed.b = r;
                const Op &next = i + 3 < ops.size() ? ops[i + 3] : op;
                // A typed op accounts all its words before it computes,
                // so an op that can trap never absorbs a later word.
                if (!traps(bop) &&
                    (code(i + 3) == OpCode::BranchLoop ||
                     code(i + 3) == OpCode::BranchFalse)) {
                    typed.code = code(i + 3) == OpCode::BranchLoop
                                     ? OpCode::IntLoop
                                     : OpCode::IntBranch;
                    typed.c = next.b;
                    typed.d = next.a;
                    typed.e = next.c;
                    typed.len = 4;
                } else if (!traps(bop) &&
                           code(i + 3) == OpCode::AssignReg &&
                           AssignOp(next.a) == AssignOp::Plain &&
                           wrapOf(next.c) && code(i + 4) == OpCode::Drop) {
                    typed.code = OpCode::IntStore;
                    typed.mode |= kBinary;
                    storeTo(typed, next.c, next.b,
                            internType(slotInfo(next.c)->type));
                    typed.len = 5;
                } else if (!traps(bop) &&
                           code(i + 3) == OpCode::DeclInitReg &&
                           wrapOf(next.a)) {
                    typed.code = OpCode::IntStore;
                    typed.mode |= kBinary;
                    storeTo(typed, next.a, next.b, next.c);
                    typed.len = 4;
                } else {
                    typed.code = OpCode::IntBin;
                    typed.len = 3;
                }
                costs[i + 2].cycles = intCycles(bop);
                op = typed;
                i += op.len - 1;
            } else if (intOperand(op, r, rc) &&
                       code(i + 1) == OpCode::AssignReg &&
                       wrapOf(ops[i + 1].c) &&
                       code(i + 2) == OpCode::Drop &&
                       costs[i + 2].steps == 0) {
                const Op &assign = ops[i + 1];
                Op typed;
                typed.code = OpCode::IntStore;
                typed.mode = rc ? kConstR : 0;
                typed.b = r;
                if (AssignOp(assign.a) != AssignOp::Plain) {
                    BinaryOp bop = compoundOp(AssignOp(assign.a));
                    typed.bop = uint8_t(bop);
                    typed.mode |= kStoreAcc;
                    costs[i + 1].cycles += intCycles(bop);
                }
                storeTo(typed, assign.c, assign.b,
                        internType(slotInfo(assign.c)->type));
                typed.len = 3;
                op = typed;
                i += 2;
            } else if (intOperand(op, r, rc) &&
                       code(i + 1) == OpCode::DeclInitReg &&
                       wrapOf(ops[i + 1].a)) {
                const Op &decl = ops[i + 1];
                Op typed;
                typed.code = OpCode::IntStore;
                typed.mode = rc ? kConstR : 0;
                typed.b = r;
                storeTo(typed, decl.a, decl.b, decl.c);
                typed.len = 2;
                op = typed;
                i += 1;
            } else if (scalarIndexBase(op) && i + 3 < ops.size() &&
                       intOperand(ops[i + 1], r, rc)) {
                // The index: one operand, or operand bop operand.
                l = r;
                lc = rc;
                size_t at = i + 2;
                bool binary = false;
                if (i + 5 < ops.size() && intOperand(ops[i + 2], r, rc) &&
                    code(i + 3) == OpCode::Binary) {
                    binary = true;
                    at = i + 4;
                } else {
                    r = l;
                    rc = lc;
                }
                if (code(at) != OpCode::IndexCombine ||
                    code(at + 1) != OpCode::PlaceToValue)
                    continue;
                Op typed;
                typed.code = OpCode::IntLoadIndex;
                typed.a = op.a;
                typed.b = r;
                typed.mode = rc ? kConstR : 0;
                if (binary) {
                    BinaryOp bop = BinaryOp(ops[i + 3].a);
                    typed.bop = uint8_t(bop);
                    typed.d = l;
                    typed.mode |= kBinary | (lc ? kConstL : 0);
                    costs[i + 3].cycles = intCycles(bop);
                }
                typed.c = op.c;
                typed.e = op.code == OpCode::IndexBaseArr ? kIndexArray
                          : op.code == OpCode::IndexBaseLoad ? kIndexCell
                                                             : kIndexReg;
                typed.len = uint8_t(at + 2 - i);
                op = typed;
                i += typed.len - 1;
            } else if (op.code == OpCode::IncDecReg && wrapOf(op.c) &&
                       code(i + 1) == OpCode::Drop) {
                Op typed;
                bool jump = code(i + 2) == OpCode::Jump;
                typed.code = jump ? OpCode::IntIncJump : OpCode::IntInc;
                typed.a = op.c;
                typed.b = (op.a == 0 || op.a == 2) ? 1 : -1;
                typed.c = jump ? ops[i + 2].a : 0;
                typed.d = op.b;
                typed.wrap = wrapOf(op.c);
                typed.len = jump ? 3 : 2;
                op = typed;
                i += op.len - 1;
            } else if ((op.code == OpCode::MemberArrow ||
                        (op.code == OpCode::LoadReg &&
                         code(i + 1) == OpCode::MemberArrow)) &&
                       code(i + (op.code == OpCode::LoadReg ? 2 : 1)) ==
                           OpCode::MemberCombine) {
                bool stack = op.code == OpCode::MemberArrow;
                size_t combine = i + (stack ? 1 : 2);
                bool load = code(combine + 1) == OpCode::PlaceToValue;
                Op typed;
                typed.code = OpCode::ArrowMember;
                typed.a = stack ? 0 : op.a;
                typed.mode = uint8_t((stack ? kStackBase : 0) |
                                     (load ? kLoadField : 0));
                typed.len = uint8_t(combine + (load ? 2 : 1) - i);
                op = typed;
                i += typed.len - 1;
            } else if ((op.code == OpCode::Assign ||
                        op.code == OpCode::AssignReg ||
                        op.code == OpCode::IncDec ||
                        op.code == OpCode::IncDecReg) &&
                       code(i + 1) == OpCode::Drop &&
                       costs[i + 1].steps == 0) {
                op.mode |= kDiscard;
                op.len = 2;
                i += 1;
            }
        }
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
        std::vector<SlotInfo> &table = in_globals_ ? global_slots_
                                                   : local_slots_;
        size_t index = size_t(slot >= 0 ? slot : -1 - slot);
        if (index >= table.size())
            table.resize(index + 1);
        table[index] = {slot, type, is_reg};
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

    /** Dense per-program slot of a loop statement (flat loop profile). */
    int
    loopSlot(int node_id)
    {
        auto [it, fresh] = loop_slots_.emplace(
            node_id, int(program_->loop_nodes.size()));
        if (fresh)
            program_->loop_nodes.push_back(node_id);
        return it->second;
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
        costs_ = &program_->globals.costs;
        pending_steps_ = 0;
        block_open_ = false;
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
        costs_ = &out.costs;
        pending_steps_ = 0;
        block_open_ = false;
        slot_count_ = 0;
        local_slots_.clear();
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
            int branch =
                emit(OpCode::BranchFalse, s.branch_id, -1);
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
            int slot = loopSlot(s.node_id);
            emit(OpCode::LoopEnter, slot);
            int top = here();
            addStep(); // the per-iteration step()
            addStep(); // eval() steps for the condition
            compileExpr(*s.cond);
            int branch = emit(OpCode::BranchLoop, s.branch_id,
                              -1, slot);
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
            int slot = loopSlot(s.node_id);
            emit(OpCode::LoopEnter, slot);
            int top = here();
            addStep(); // the per-iteration step()
            int branch = -1;
            if (s.cond) {
                addStep(); // eval() steps for the condition
                compileExpr(*s.cond);
                branch = emit(OpCode::BranchLoop, s.branch_id,
                              -1, slot);
            } else {
                emit(OpCode::LoopAlways, s.branch_id, 0, slot);
            }
            loops_.push_back({{}, -1});
            compileBlockInner(*s.body);
            // The increment is a label only when a continue jumps there.
            if (!loops_.back().continue_jumps.empty()) {
                int incr = here();
                for (int op : loops_.back().continue_jumps)
                    patchA(op, incr);
            }
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
                emit(OpCode::DeclInitReg, slot, profileKey(decl.name),
                     internType(t));
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
        // A register with an initializer is bound by DeclInitReg alone:
        // nothing can read the slot between the two, so the reset's
        // steps simply fold into the initializer's first op.
        if (is_reg && decl.init)
            return true;
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
            int branch =
                emit(OpCode::BranchFalse, e.branch_id, -1);
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
            long cells = cellsOrTrap(e.type, trap);
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
        MathFn fn = mathFnOf(name);
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
            plan.cells_per = cellsOrTrap(so->type, plan.trap);
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
        int write_pc = here();
        for (const auto &a : e.args) {
            addStep(); // eval() steps per argument
            compileExpr(*a);
        }
        emit(OpCode::MethodInvoke, plan_idx);
        program_->methods[plan_idx].bind_pc = bind_pc;
        program_->methods[plan_idx].write_pc = write_pc;
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
    std::vector<OpCost> *costs_ = nullptr;
    uint32_t pending_steps_ = 0;
    bool block_open_ = false;
    /** Slot -> its declaration, for the typed peephole. */
    std::vector<SlotInfo> local_slots_;
    std::vector<SlotInfo> global_slots_; ///< by -1 - encoded slot
    std::map<int, int> loop_slots_; ///< loop node id -> loop slot
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

/**
 * @file
 * Dispatch-loop VM for the CIR bytecode (docs/INTERP.md).
 *
 * Every opcode handler is a transliteration of the walker fragment it
 * replaces (interp/reference/walker.cc is the source of truth): the
 * same memory calls in the same order, the same cycle charges from the
 * shared CpuCosts table, the same trap messages, the same coverage /
 * value-profile / loop-profile records. The leaf semantics — kernel
 * boundary, arithmetic, math intrinsics, cell counts — are not copied:
 * both engines call the shared runtime (interp/runtime.h).
 *
 * Accounting is per basic block (docs/INTERP.md). A Block header
 * charges its block's steps and static cycles at once when they cannot
 * cross max_steps; a trap inside such a block subtracts the costs of
 * the block's words after the trapping op. Otherwise the block runs on
 * the slow path: each word's steps via doSteps() — which clamps the
 * counter to max_steps + 1 on overflow, exactly the value the walker's
 * one-at-a-time increment leaves — then its static cycles, before the
 * op acts. Runs with a branch-event log, or with the test-only
 * corrupt_branch_event hook armed, take the slow path throughout, so
 * every BranchEvent carries exact counters.
 *
 * Branches go straight into the caller's CoverageMap. Value ranges
 * (by interned profile key) and loop records (by loop slot) go into
 * flat per-run arrays, folded into the caller's ValueProfile /
 * LoopProfile once at the end of the run, trapped or not. Both folds
 * are order-free sums and extrema, so the sinks end up as the walker
 * leaves them.
 */

#include "interp/bytecode/bytecode.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace heterogen::interp::bytecode {

namespace testing {
int corrupt_branch_event = -1;
} // namespace testing

namespace {

using namespace cir;

/** Operand-stack entry: a value, or a place (pointer + static type). */
struct StackVal
{
    Value v;
    const Type *t = nullptr;
};

/**
 * Runtime view of one bound slot. Memory-resident slots hold a pointer
 * to their cell; register slots (DeclReg / ParamPlan::Kind::Reg) hold
 * the variable's value directly.
 */
struct Binding
{
    Value v;
    const Type *type = nullptr;
};

/**
 * Per-site inline cache keyed on static-type identity (types are
 * interned for the process lifetime, so pointer equality is type
 * equality). Misses recompute and refill; traps never populate the
 * cache, so the trapping lookups re-run — and re-trap — exactly as
 * the walker's per-access string resolution would.
 */
struct SiteCache
{
    const Type *key = nullptr;
    const StructLayout *layout = nullptr; ///< MemberCombine
    const Type *elem = nullptr;           ///< IndexCombine
    long stride = 1;
    int field = -1;
};

/** MethodBind receiver-type -> compiled-method cache, one per plan. */
struct BindCache
{
    const Type *key = nullptr;
    int fn_id = -1;
};

class VM
{
  public:
    explicit VM(const Program &program)
        : p_(program), caches_(size_t(program.num_caches)),
          bind_caches_(program.methods.size()),
          ranges_(program.names.size()),
          root_loop_(program.loop_nodes.size()),
          loop_cycles_(program.loop_nodes.size() + 1),
          loop_runs_(program.loop_nodes.size())
    {
        stack_.reserve(64);
        frames_.reserve(16);
        slot_stack_.reserve(128);
    }

    /**
     * Arm the VM for one run. Run-visible state — memory, stacks,
     * counters — comes out as freshly constructed, but vector
     * capacities and the type-keyed inline caches stay warm; cache
     * contents depend only on the immutable Program and the interned
     * types, never on run state, so reuse cannot change observables.
     */
    void
    reset(const RunOptions &opts)
    {
        seed_.arm(opts);
        max_steps_ = opts.max_steps;
        loop_profile_ = opts.loop_profile;
        coverage_ = opts.coverage;
        profile_ = opts.profile;
        branch_log_ = opts.branch_log;
        corrupt_at_ = testing::corrupt_branch_event;
        fast_ok_ = !branch_log_ && corrupt_at_ < 0;
        for (int key : touched_ranges_)
            ranges_[size_t(key)] = ValueRange{};
        touched_ranges_.clear();
        std::fill(loop_cycles_.begin(), loop_cycles_.end(), 0);
        std::fill(loop_runs_.begin(), loop_runs_.end(), LoopRun{});
        cur_loop_ = root_loop_;
        memory_.reset();
        stack_.clear();
        frames_.clear();
        slot_stack_.clear();
        globals_.clear();
        static_streams_.clear();
        loop_stack_.clear();
        steps_ = 0;
        cycles_ = 0;
        branch_records_ = 0;
    }

    RunResult
    run(const std::string &function, const std::vector<KernelArg> &args)
    {
        RunResult result;
        try {
            frames_.push_back(Frame{&p_.globals, 0, 0, 0});
            execLoop(0); // until Halt
            auto fit = p_.function_ids.find(function);
            if (fit == p_.function_ids.end())
                throw Trap("no such function: " + function);
            KernelArgs kernel_args(memory_,
                                   *p_.functions[fit->second].decl, args);
            const std::vector<Value> &values = kernel_args.values();
            for (const Value &v : values)
                push(v);
            invoke(fit->second, int(values.size()),
                   stack_.size() - values.size(), {});
            execLoop(1); // until the top call returns
            kernel_args.finish(popV(), result);
        } catch (const Trap &t) {
            result.ok = false;
            result.trap = t.what();
        }
        foldSinks();
        result.cycles = cycles_;
        result.steps = steps_;
        return result;
    }

  private:
    struct Frame
    {
        const CompiledFunction *fn = nullptr;
        int pc = 0;
        size_t slot_base = 0; ///< this frame's span in slot_stack_
        size_t loop_base = 0;
    };

    /** Per-run record of one loop slot, folded into a LoopRecord. */
    struct LoopRun
    {
        uint64_t iterations = 0;
        uint64_t entries = 0;
        int parent = -1; ///< enclosing loop node at the latest entry
    };

    // --- bookkeeping (walker step/charge/recordBranch/profileStore) ----------

    void
    doSteps(uint32_t n)
    {
        if (n == 0)
            return;
        if (steps_ + n > max_steps_) {
            // The walker increments one at a time and traps on the
            // first step past the limit, leaving steps_ == max + 1.
            steps_ = max_steps_ + 1;
            throw Trap("step limit exceeded (possible non-termination)");
        }
        steps_ += n;
    }

    /** Dynamic charge; loop_cycles_ is the innermost loop's (or root's). */
    void
    charge(uint64_t c)
    {
        cycles_ += c;
        loop_cycles_[cur_loop_] += c;
    }

    /** Slow path: account the `len` words at ops[pc..] in order. */
    void
    account(const OpCost *costs, int pc, int len)
    {
        for (int i = pc; i < pc + len; ++i) {
            doSteps(costs[i].steps);
            charge(costs[i].cycles);
        }
    }

    /** The kBranch charge is static: the op's accounting made it. */
    void
    recordBranch(int branch_id, bool taken)
    {
        if (coverage_)
            coverage_->record(branch_id, taken);
        if (!fast_ok_)
            logBranch(branch_id, taken);
    }

    void
    logBranch(int branch_id, bool taken)
    {
        if (corrupt_at_ >= 0 && branch_records_ == uint64_t(corrupt_at_))
            charge(1); // simulated single-opcode miscompile (tests only)
        ++branch_records_;
        if (branch_log_)
            branch_log_->events.push_back(
                {branch_id, taken, steps_, cycles_});
    }

    ValueRange &
    rangeOf(int key)
    {
        ValueRange &r = ranges_[size_t(key)];
        if (!r.saw_int && !r.saw_float)
            touched_ranges_.push_back(key);
        return r;
    }

    void
    profileStore(int key, const Value &v)
    {
        if (!profile_ || key < 0)
            return;
        if (v.isInt())
            rangeOf(key).noteInt(v.asInt());
        else if (v.isFloat())
            rangeOf(key).noteFloat(v.asFloat());
    }

    void
    loopEnter(int slot)
    {
        LoopRun &run = loop_runs_[size_t(slot)];
        run.entries += 1;
        run.parent = loop_stack_.empty()
                         ? -1
                         : p_.loop_nodes[size_t(loop_stack_.back())];
        loop_stack_.push_back(slot);
        cur_loop_ = size_t(slot);
    }

    /** Innermost loop slot after the loop stack shrank. */
    void
    resumeLoop()
    {
        cur_loop_ = loop_stack_.empty() ? root_loop_
                                        : size_t(loop_stack_.back());
    }

    /** Fold the run's flat sinks into the caller's. */
    void
    foldSinks()
    {
        if (profile_) {
            for (int key : touched_ranges_)
                profile_->mergeRange(p_.names[size_t(key)],
                                     ranges_[size_t(key)]);
        }
        if (loop_profile_) {
            loop_profile_->root_cycles += loop_cycles_[root_loop_];
            for (size_t slot = 0; slot < loop_runs_.size(); ++slot) {
                const LoopRun &run = loop_runs_[slot];
                if (run.entries == 0)
                    continue;
                int node = p_.loop_nodes[slot];
                LoopRecord &rec = loop_profile_->loops[node];
                rec.node_id = node;
                rec.parent_id = run.parent;
                rec.iterations += run.iterations;
                rec.cycles_exclusive += loop_cycles_[slot];
                rec.entries += run.entries;
            }
        }
    }

    // --- layout / type helpers -----------------------------------------------

    /** MemberCombine's field resolution: trap checks + inline cache. */
    SiteCache &
    memberCache(const Type *t, const Op &mop)
    {
        if (!t || !t->isStruct())
            throw Trap("member access on non-struct");
        SiteCache &c = caches_[size_t(mop.c)];
        if (t != c.key) {
            const StructLayout &layout = layoutOf(t->structName());
            const std::string &field = p_.names[size_t(mop.a)];
            int fi = layout.indexOf(field);
            if (fi < 0)
                throw Trap("no field '" + field + "' in struct " +
                           t->structName());
            c.key = t;
            c.layout = &layout;
            c.field = fi;
        }
        return c;
    }

    /**
     * IndexCombine's element-place computation (pops index + base);
     * its kIntAlu is the op's static charge.
     */
    std::pair<Place, const Type *>
    indexElement(const Op &op)
    {
        long i = popV().asInt();
        StackVal base = pop();
        const Type *base_t = base.t;
        long stride = 1;
        const Type *elem = nullptr;
        SiteCache &c = caches_[size_t(op.a)];
        if (base_t && base_t == c.key) {
            elem = c.elem;
            stride = c.stride;
        } else if (base_t &&
                   (base_t->isArray() || base_t->isPointer())) {
            elem = base_t->element().get();
            stride = flatCells(elem, p_.structs);
            c.key = base_t;
            c.elem = elem;
            c.stride = stride;
        } else {
            // Untyped base: the runtime block's type decides. Not
            // cached — the answer depends on the block, not base_t.
            const cir::Type *bt =
                memory_.blockType(base.v.asPlace().block);
            if (bt && bt->isStruct()) {
                elem = bt;
                stride = layoutOf(bt->structName()).size();
            }
        }
        Place p = base.v.asPlace();
        return {Place{p.block, p.offset + int32_t(i * stride)}, elem};
    }

    /** PlaceToValue's tail (after its static kMem): decay or load. */
    void
    placeToValue(Place p, const Type *t)
    {
        if (t && (t->isArray() || t->isStruct()))
            push(Value::makePointer(p)); // decay
        else
            push(memory_.load(p));
    }

    const StructLayout &
    layoutOf(const std::string &name) const
    {
        auto it = p_.layout_ids.find(name);
        if (it == p_.layout_ids.end())
            throw Trap("unknown struct layout: " + name);
        return p_.layouts[it->second];
    }

    void
    copyStruct(Place from, Place to, const StructLayout &layout)
    {
        for (int i = 0; i < layout.size(); ++i) {
            Value v = memory_.load({from.block, from.offset + i});
            memory_.store({to.block, to.offset + i}, v);
            charge(CpuCosts::kMem);
        }
    }

    // --- stack / slots --------------------------------------------------------

    void
    push(Value v, const Type *t = nullptr)
    {
        stack_.push_back({std::move(v), t});
    }

    StackVal
    pop()
    {
        StackVal out = std::move(stack_.back());
        stack_.pop_back();
        return out;
    }

    Value popV() { return pop().v; }

    Binding &
    slotAt(int32_t encoded)
    {
        if (encoded >= 0)
            return slot_stack_[frames_.back().slot_base +
                               size_t(encoded)];
        size_t g = size_t(-1 - encoded);
        if (g >= globals_.size())
            globals_.resize(g + 1);
        return globals_[g];
    }

    /** Pop `n` evaluated arguments back into evaluation order. */
    std::vector<Value>
    popArgs(int n)
    {
        std::vector<Value> args(static_cast<size_t>(n));
        for (int i = n - 1; i >= 0; --i)
            args[size_t(i)] = popV();
        return args;
    }

    // --- calls ----------------------------------------------------------------

    /**
     * Call functions[fn_id] with `argc` arguments sitting at the top of
     * the operand stack (stack_[arg_base ..] in evaluation order). The
     * stack is cut back to `arg_base` — callers that pushed extra
     * bookkeeping below the arguments (method dispatch) pop it after.
     */
    void
    invoke(int fn_id, int argc, size_t arg_base, Place self)
    {
        const CompiledFunction &fn = p_.functions[fn_id];
        if (static_cast<int>(frames_.size()) > kMaxCallDepth)
            throw Trap("call depth exceeded (runaway recursion?)");
        charge(CpuCosts::kCall);
        if (seed_.due(fn.decl->name)) {
            std::vector<Value> args;
            for (size_t i = 0; i < size_t(argc); ++i)
                args.push_back(stack_[arg_base + i].v);
            seed_.capture(memory_, *fn.decl, args);
        }

        Frame fr;
        fr.fn = &fn;
        fr.loop_base = loop_stack_.size();
        fr.slot_base = slot_stack_.size();
        slot_stack_.resize(fr.slot_base + size_t(fn.num_slots));

        if (fn.owner_layout >= 0) {
            const StructLayout &layout = p_.layouts[fn.owner_layout];
            for (int i = 0; i < layout.size(); ++i)
                slot_stack_[fr.slot_base + size_t(i)] =
                    {Value::makePointer({self.block, self.offset + i}),
                     layout.field_types[i]};
        }

        for (size_t i = 0; i < fn.params.size(); ++i) {
            const ParamPlan &plan = fn.params[i];
            const Value &arg = stack_[arg_base + i].v;
            Binding b;
            b.type = plan.bound.get();
            switch (plan.kind) {
              case ParamPlan::Kind::Handle: {
                int32_t cell = memory_.allocate(1, nullptr);
                memory_.storeRaw({cell, 0}, arg);
                b.v = Value::makePointer({cell, 0});
                break;
              }
              case ParamPlan::Kind::Struct: {
                if (plan.layout < 0)
                    throw Trap("unknown struct layout: " +
                               plan.type->structName());
                const StructLayout &layout = p_.layouts[plan.layout];
                int32_t block = memory_.allocatePattern(
                    1, plan.type, layout.field_types);
                if (!arg.isPointer())
                    throw Trap("struct argument mismatch");
                copyStruct(arg.asPlace(), {block, 0}, layout);
                b.v = Value::makePointer({block, 0});
                break;
              }
              case ParamPlan::Kind::Scalar: {
                int32_t cell = memory_.allocate(1, plan.type);
                memory_.store({cell, 0}, arg);
                profileStore(plan.profile_key,
                             memory_.load({cell, 0}));
                b.v = Value::makePointer({cell, 0});
                break;
              }
              case ParamPlan::Kind::Reg: {
                // As Scalar, minus the cell: coerce to the declared
                // type and profile the coerced value.
                b.v = coerceToType(arg, plan.type.get());
                profileStore(plan.profile_key, b.v);
                break;
              }
            }
            slot_stack_[fr.slot_base + size_t(plan.slot)] = b;
        }
        stack_.resize(arg_base);
        frames_.push_back(fr);
    }

    /** Charge `a op b`, then apply it. */
    Value
    binary(BinaryOp op, const Value &a, const Value &b)
    {
        charge(binaryCycles(op, a, b));
        return applyBinary(op, a, b, memory_, p_.structs);
    }

    // --- typed integer ops ----------------------------------------------------

    static long
    wrapTo(long v, uint8_t wrap)
    {
        return wrapInt(v, wrap & ~kWrapSigned, (wrap & kWrapSigned) != 0);
    }

    /** A typed operand: the literal, or the register's integer. */
    static long
    operand(int32_t v, bool is_const, const Binding *slots)
    {
        return is_const ? long(v) : slots[v].v.asInt();
    }

    long
    typedValue(const Op &op, const Binding *slots) const
    {
        long y = operand(op.b, op.mode & kConstR, slots);
        if (op.mode & kBinary)
            return intBinary(BinaryOp(op.bop),
                             operand(op.a, op.mode & kConstL, slots), y);
        if (op.mode & kStoreAcc)
            return intBinary(BinaryOp(op.bop), slots[op.c].v.asInt(), y);
        return y;
    }

    /** Store an integer into a register as coerceToType would. */
    void
    storeInt(Binding &dst, long v, const Op &op, const Type *t)
    {
        dst = {Value::makeInt(wrapTo(v, op.wrap), t), t};
        if (profile_)
            rangeOf(op.d).noteInt(dst.v.asInt());
    }

    // --- the dispatch loop ----------------------------------------------------

    void
    execLoop(size_t until_depth)
    {
        // The hot loop keeps pc, the op and cost arrays, the frame's
        // slots and the block mode in locals; they are written back to
        // the frame before anything that can switch frames (calls,
        // returns, method dispatch) and reloaded after. A trap in a
        // pre-charged (fast) block takes back the charges of the words
        // after the trapping op; the run's frames are discarded unread.
        const Op *ops = nullptr;
        const OpCost *costs = nullptr;
        int size = 0;
        Binding *slots = nullptr;
        int pc = 0;
        bool fast = false;
        auto load = [&] {
            const Frame &fr = frames_.back();
            ops = fr.fn->ops.data();
            costs = fr.fn->costs.data();
            size = int(fr.fn->ops.size());
            slots = slot_stack_.data() + fr.slot_base;
            pc = fr.pc;
        };
        // Move pc past the next `words` words of a typed op, accounting
        // them on the slow path: pc - 1 is always the last word whose
        // accounting is done, and the one a trap is charged up to.
        auto enter = [&](int words) {
            if (!fast)
                account(costs, pc, words);
            pc += words;
        };
        // Enter the block whose header is ops[head]: charge it whole
        // when it cannot cross max_steps, else run it on the slow path.
        auto block = [&](int head) {
            const Op &h = ops[head];
            pc = head + 1;
            fast = fast_ok_ && steps_ + uint64_t(h.a) <= max_steps_;
            if (fast) {
                steps_ += uint64_t(h.a);
                cycles_ += uint64_t(h.b);
                loop_cycles_[cur_loop_] += uint64_t(h.b);
            }
        };
        load();
        try {
            for (;;) {
                const Op &op = ops[pc];
                enter(1);
                switch (op.code) {
                  case OpCode::Step:
                    break;
                  case OpCode::Block: // reached by falling through a label
                    block(pc - 1);
                    break;
                  case OpCode::Ret:
                    if (execRet(op, until_depth))
                        return;
                    load();
                    break;
                  case OpCode::Halt:
                    frames_.back().pc = pc;
                    return;
                  case OpCode::CallFn:
                    frames_.back().pc = pc;
                    invoke(op.a, op.b, stack_.size() - size_t(op.b), {});
                    load();
                    break;
                  case OpCode::MethodEnter:
                    // execMethodEnter jumps by writing the frame's pc.
                    frames_.back().pc = pc;
                    execMethodEnter(op);
                    pc = frames_.back().pc;
                    break;
                  case OpCode::MethodInvoke:
                    frames_.back().pc = pc;
                    if (execMethodInvoke(op))
                        load();
                    break;
                  case OpCode::IntBin: {
                    enter(2);
                    long r = intBinary(BinaryOp(op.bop),
                                       operand(op.a, op.mode & kConstL, slots),
                                       operand(op.b, op.mode & kConstR, slots));
                    push(Value::makeInt(r));
                    break;
                  }
                  case OpCode::IntBranch:
                  case OpCode::IntLoop: {
                    enter(3);
                    bool cond =
                        intBinary(BinaryOp(op.bop),
                                  operand(op.a, op.mode & kConstL, slots),
                                  operand(op.b, op.mode & kConstR,
                                          slots)) != 0;
                    recordBranch(op.d, cond);
                    if (cond && op.code == OpCode::IntLoop)
                        loop_runs_[size_t(op.e)].iterations += 1;
                    block(cond ? pc : op.c);
                    break;
                  }
                  case OpCode::IntStore:
                    enter(op.len - 1);
                    storeInt(slots[op.c], typedValue(op, slots), op,
                             p_.types[size_t(op.e)].get());
                    break;
                  case OpCode::IntInc:
                  case OpCode::IntIncJump: {
                    enter(op.len - 1);
                    Binding &dst = slots[op.a];
                    storeInt(dst, wrapAdd(dst.v.asInt(), op.b), op, dst.type);
                    if (op.code == OpCode::IntIncJump)
                        block(op.c);
                    break;
                  }
                  case OpCode::IntLoadIndex: {
                    // The base (first word) may trap; then each later
                    // word is entered just before its part runs.
                    Binding &b = slotAt(op.a);
                    Place base = b.v.asPlace();
                    if (op.e != kIndexArray) {
                        Value v = op.e == kIndexCell
                                      ? memory_.load(b.v.asPlace())
                                      : b.v;
                        if (!v.isPointer())
                            throw Trap(p_.names[size_t(op.c)]);
                        base = v.asPlace();
                    }
                    long i;
                    if (op.mode & kBinary) { // index L bop R (may trap)
                        enter(3);
                        i = intBinary(BinaryOp(op.bop),
                                      operand(op.d, op.mode & kConstL,
                                              slots),
                                      operand(op.b, op.mode & kConstR,
                                              slots));
                    } else {
                        enter(1);
                        i = operand(op.b, op.mode & kConstR, slots);
                    }
                    enter(2); // IndexCombine (scalar element: stride 1)
                              // and PlaceToValue, whose load may trap
                    push(memory_.load(
                        {base.block, base.offset + int32_t(i)}));
                    break;
                  }
                  case OpCode::ArrowMember: {
                    Value v;
                    if (op.mode & kStackBase) {
                        v = popV();
                    } else {
                        v = slotAt(op.a).v;
                        enter(1); // MemberArrow
                    }
                    if (!v.isPointer())
                        throw Trap("-> on non-pointer");
                    Place p = v.asPlace();
                    const Type *bt = memory_.blockType(p.block);
                    enter(1);
                    SiteCache &c = memberCache(bt, ops[pc - 1]);
                    Place field{p.block, p.offset + c.field};
                    const Type *ft = c.layout->field_types[size_t(c.field)];
                    if (op.mode & kLoadField) {
                        enter(1);
                        placeToValue(field, ft);
                    } else {
                        push(Value::makePointer(field), ft);
                    }
                    break;
                  }
                  case OpCode::Const:
                    push(p_.const_pool[size_t(op.a)]);
                    break;
                  case OpCode::Drop:
                    pop();
                    break;
                  case OpCode::LoadScalar: {
                    Binding &b = slotAt(op.a);
                    push(memory_.load(b.v.asPlace()));
                    break;
                  }
                  case OpCode::LoadReg:
                    push(slotAt(op.a).v);
                    break;
                  case OpCode::LoadHandle:
                    push(slotAt(op.a).v);
                    break;
                  case OpCode::TrapOp:
                    throw Trap(p_.names[size_t(op.a)]);
                  case OpCode::PlaceSlot: {
                    Binding &b = slotAt(op.a);
                    push(b.v, b.type);
                    break;
                  }
                  case OpCode::PlaceReg: {
                    // A register has no place. The entry's static type is
                    // all downstream consumers inspect before trapping
                    // (registers are never structs), so a null place is
                    // never dereferenced.
                    Binding &b = slotAt(op.a);
                    push(Value::makePointer({0, 0}), b.type);
                    break;
                  }
                  case OpCode::PlaceDeref: {
                    Value v = popV();
                    if (!v.isPointer())
                        throw Trap("dereference of non-pointer");
                    push(Value::makePointer(v.asPlace()), nullptr);
                    break;
                  }
                  case OpCode::DerefLoad: {
                    Value v = popV();
                    if (!v.isPointer())
                        throw Trap("dereference of non-pointer");
                    charge(CpuCosts::kMem);
                    push(memory_.load(v.asPlace()));
                    break;
                  }
                  case OpCode::AddrOf: {
                    StackVal e = pop();
                    push(Value::makePointer(e.v.asPlace()));
                    break;
                  }
                  case OpCode::PlaceToValue: {
                    StackVal e = pop();
                    placeToValue(e.v.asPlace(), e.t);
                    break;
                  }
                  case OpCode::IndexBaseArr: {
                    Binding &b = slotAt(op.a);
                    push(b.v, b.type);
                    break;
                  }
                  case OpCode::IndexBaseLoad: {
                    Binding &b = slotAt(op.a);
                    Value v = memory_.load(b.v.asPlace());
                    if (!v.isPointer())
                        throw Trap(p_.names[size_t(op.c)]);
                    push(Value::makePointer(v.asPlace()), b.type);
                    break;
                  }
                  case OpCode::IndexBaseLoadReg: {
                    Binding &b = slotAt(op.a);
                    if (!b.v.isPointer())
                        throw Trap(p_.names[size_t(op.c)]);
                    push(Value::makePointer(b.v.asPlace()), b.type);
                    break;
                  }
                  case OpCode::IndexBaseDecay: {
                    StackVal e = pop();
                    if (e.t && e.t->isArray()) {
                        push(e.v, e.t);
                        break;
                    }
                    Value v = memory_.load(e.v.asPlace());
                    if (!v.isPointer())
                        throw Trap("subscript of non-array value");
                    push(Value::makePointer(v.asPlace()), e.t);
                    break;
                  }
                  case OpCode::IndexCombine: {
                    auto [p, elem] = indexElement(op);
                    push(Value::makePointer(p), elem);
                    break;
                  }
                  case OpCode::MemberArrow: {
                    Value v = popV();
                    if (!v.isPointer())
                        throw Trap("-> on non-pointer");
                    Place p = v.asPlace();
                    push(Value::makePointer(p), memory_.blockType(p.block));
                    break;
                  }
                  case OpCode::MemberDotTest: {
                    Value v = popV();
                    if (v.isPointer()) {
                        Place p = v.asPlace();
                        push(Value::makePointer(p), memory_.blockType(p.block));
                        pc = op.a;
                    }
                    break;
                  }
                  case OpCode::MemberCombine: {
                    StackVal base = pop();
                    SiteCache &c = memberCache(base.t, op);
                    Place p = base.v.asPlace();
                    push(Value::makePointer({p.block, p.offset + c.field}),
                         c.layout->field_types[size_t(c.field)]);
                    break;
                  }
                  case OpCode::Neg: {
                    Value v = popV();
                    charge(v.isFloat() ? CpuCosts::kFloatAlu
                                       : CpuCosts::kIntAlu);
                    if (v.isFloat())
                        push(Value::makeFloat(-v.asFloat()));
                    else
                        push(Value::makeInt(wrapNeg(v.asInt())));
                    break;
                  }
                  case OpCode::Not: {
                    Value v = popV();
                    push(Value::makeInt(v.truthy() ? 0 : 1));
                    break;
                  }
                  case OpCode::BitNot: {
                    Value v = popV();
                    push(Value::makeInt(~v.asInt()));
                    break;
                  }
                  case OpCode::IncDec: {
                    StackVal e = pop();
                    Place place = e.v.asPlace();
                    Value old = memory_.load(place);
                    charge(CpuCosts::kIntAlu + 2 * CpuCosts::kMem);
                    long delta = (op.a == 0 || op.a == 2) ? 1 : -1;
                    memory_.store(place, incDec(old, delta, e.t, p_.structs));
                    profileStore(op.b, memory_.load(place));
                    if (!(op.mode & kDiscard))
                        push(op.a >= 2 ? old : memory_.load(place));
                    enter(op.len - 1); // a folded Drop
                    break;
                  }
                  case OpCode::IncDecReg:
                    execIncDecReg(op);
                    enter(op.len - 1); // a folded Drop
                    break;
                  case OpCode::Binary: {
                    StackVal &rhs = stack_.back();
                    StackVal &lhs = stack_[stack_.size() - 2];
                    if (lhs.v.isInt() && rhs.v.isInt()) {
                        // applyBinary's int-int arm, on the stack.
                        BinaryOp bop = BinaryOp(op.a);
                        charge(intCycles(bop));
                        long r = intBinary(bop, lhs.v.asInt(),
                                           rhs.v.asInt());
                        lhs = {Value::makeInt(r), nullptr};
                        stack_.pop_back();
                        break;
                    }
                    Value b = popV();
                    Value a = popV();
                    push(binary(BinaryOp(op.a), a, b));
                    break;
                  }
                  case OpCode::LogicalTest: {
                    Value v = popV();
                    bool lhs = v.truthy();
                    bool is_and = op.a != 0;
                    bool shortcut = is_and ? !lhs : lhs;
                    recordBranch(op.b, lhs);
                    if (shortcut) {
                        push(Value::makeInt(is_and ? 0 : 1));
                        pc = op.c;
                    }
                    break;
                  }
                  case OpCode::Truthy01: {
                    Value v = popV();
                    push(Value::makeInt(v.truthy() ? 1 : 0));
                    break;
                  }
                  case OpCode::CastTo: {
                    Value v = popV();
                    push(coerceToType(v, p_.types[size_t(op.a)]));
                    break;
                  }
                  case OpCode::Jump:
                    block(op.a);
                    break;
                  case OpCode::BranchFalse: {
                    bool cond = popV().truthy();
                    recordBranch(op.a, cond);
                    block(cond ? pc : op.b);
                    break;
                  }
                  case OpCode::BranchLoop: {
                    bool cond = popV().truthy();
                    recordBranch(op.a, cond);
                    if (cond)
                        loop_runs_[size_t(op.c)].iterations += 1;
                    block(cond ? pc : op.b);
                    break;
                  }
                  case OpCode::LoopAlways:
                    recordBranch(op.a, true);
                    loop_runs_[size_t(op.c)].iterations += 1;
                    break;
                  case OpCode::LoopEnter:
                    if (loop_profile_)
                        loopEnter(op.a);
                    break;
                  case OpCode::LoopExit:
                    if (loop_profile_) {
                        loop_stack_.pop_back();
                        resumeLoop();
                    }
                    break;
                  case OpCode::Charge: // static: the op's accounting charged it
                    break;
                  case OpCode::MallocRaw: {
                    long cells = popV().asInt();
                    if (cells > Memory::kMaxCells)
                        throw Trap("allocation exceeds interpreter heap limit");
                    int32_t block = memory_.allocate(int(cells), nullptr, true);
                    push(Value::makePointer({block, 0}));
                    break;
                  }
                  case OpCode::MallocTyped: {
                    const MallocPlan &plan = p_.mallocs[size_t(op.a)];
                    long count = 1;
                    if (plan.has_count)
                        count = popV().asInt();
                    if (count < 0)
                        throw Trap("malloc with negative count");
                    if (!plan.trap.empty())
                        throw Trap(plan.trap);
                    int32_t block;
                    if (plan.layout >= 0) {
                        if (count > Memory::kMaxCells)
                            throw Trap("allocation exceeds interpreter "
                                       "heap limit");
                        block = memory_.allocatePattern(
                            int(count), plan.type,
                            p_.layouts[size_t(plan.layout)].field_types, true);
                    } else {
                        long cells = wrapMul(count, plan.cells_per);
                        if (cells > Memory::kMaxCells)
                            throw Trap("allocation exceeds interpreter "
                                       "heap limit");
                        block = memory_.allocate(int(cells), plan.type, true);
                    }
                    push(Value::makePointer({block, 0}));
                    break;
                  }
                  case OpCode::FreeOp: {
                    Value v = popV();
                    if (!v.isPointer())
                        throw Trap("free of non-pointer");
                    memory_.release(v.asPlace());
                    push(Value::makeInt(0));
                    break;
                  }
                  case OpCode::Printf:
                    for (int i = 0; i < op.a; ++i)
                        pop();
                    push(Value::makeInt(0));
                    break;
                  case OpCode::Math: { // kMath is static
                    std::vector<Value> args = popArgs(op.b);
                    push(applyMath(MathFn(op.a), p_.names[size_t(op.c)],
                                   args));
                    break;
                  }
                  case OpCode::MethodBind:
                    execMethodBind(op);
                    break;
                  case OpCode::StructLitAlloc: {
                    const StructLitPlan &plan = p_.struct_lits[size_t(op.a)];
                    const StructLayout &layout =
                        p_.layouts[size_t(plan.layout)];
                    int32_t block =
                        memory_.allocatePattern(1, plan.type,
                                                layout.field_types);
                    push(Value::makePointer({block, 0}));
                    break;
                  }
                  case OpCode::StructLitInit: {
                    const StructLitPlan &plan = p_.struct_lits[size_t(op.a)];
                    std::vector<Value> args = popArgs(plan.argc);
                    Value base = popV();
                    if (!plan.trap.empty() && plan.trap_before)
                        throw Trap(plan.trap);
                    int32_t block = base.asPlace().block;
                    for (const auto &[fi, pi] : plan.stores)
                        memory_.store({block, fi}, args[size_t(pi)]);
                    if (!plan.trap.empty())
                        throw Trap(plan.trap);
                    push(base);
                    break;
                  }
                  case OpCode::DeclScalar: {
                    const TypePtr &t = p_.types[size_t(op.b)];
                    int32_t block = memory_.allocate(1, t);
                    slotAt(op.a) = {Value::makePointer({block, 0}), t.get()};
                    break;
                  }
                  case OpCode::DeclReg:
                    // A fresh unset value each execution, as the walker's
                    // fresh uninitialized cell. No block is allocated; no
                    // pointer to this variable can exist (see PlaceReg).
                    slotAt(op.a) = {Value(), p_.types[size_t(op.b)].get()};
                    break;
                  case OpCode::DeclStruct: {
                    const TypePtr &t = p_.types[size_t(op.c)];
                    const StructLayout &layout = p_.layouts[size_t(op.b)];
                    int32_t block =
                        memory_.allocatePattern(1, t, layout.field_types);
                    slotAt(op.a) = {Value::makePointer({block, 0}), t.get()};
                    break;
                  }
                  case OpCode::DeclStream: {
                    const TypePtr &t = p_.types[size_t(op.b)];
                    int32_t block = memory_.allocate(1, t);
                    int32_t id;
                    if (op.c >= 0) {
                        auto hit = static_streams_.find(op.c);
                        if (hit != static_streams_.end()) {
                            id = hit->second;
                        } else {
                            id = memory_.createStream();
                            static_streams_[op.c] = id;
                        }
                    } else {
                        id = memory_.createStream();
                    }
                    memory_.storeRaw({block, 0}, Value::makeStream(id));
                    slotAt(op.a) = {Value::makePointer({block, 0}), t.get()};
                    break;
                  }
                  case OpCode::CheckDim:
                    if (stack_.back().v.asInt() < 0)
                        throw Trap("negative array size");
                    break;
                  case OpCode::DeclArray: {
                    const ArrayDeclPlan &plan = p_.arrays[size_t(op.b)];
                    std::vector<Value> rdims = popArgs(plan.runtime_dims);
                    long total = 1;
                    size_t rt = 0;
                    for (long d : plan.dims) {
                        if (d == kUnknownArraySize)
                            d = rdims[rt++].asInt();
                        total *= d;
                    }
                    int32_t block;
                    if (plan.layout >= 0) {
                        block = memory_.allocatePattern(
                            int(total), plan.scalar,
                            p_.layouts[size_t(plan.layout)].field_types);
                    } else {
                        block = memory_.allocate(int(total), plan.scalar);
                    }
                    slotAt(op.a) = {Value::makePointer({block, 0}),
                                    plan.type.get()};
                    break;
                  }
                  case OpCode::DeclInit: {
                    Value v = popV();
                    Binding &b = slotAt(op.a);
                    Place place = b.v.asPlace();
                    if (op.c >= 0 && v.isPointer()) {
                        copyStruct(v.asPlace(), place,
                                   p_.layouts[size_t(op.c)]);
                    } else {
                        memory_.store(place, v);
                        profileStore(op.b, memory_.load(place));
                    }
                    break;
                  }
                  case OpCode::DeclInitReg: {
                    // Binds the register: the store coerces to the declared
                    // type and the profile notes the coerced value, exactly as
                    // Memory::store + load would.
                    Value v = popV();
                    const Type *t = p_.types[size_t(op.c)].get();
                    Binding &b = slotAt(op.a);
                    b = {coerceToType(v, t), t};
                    profileStore(op.b, b.v);
                    break;
                  }
                  case OpCode::Assign:
                    execAssign(op);
                    enter(op.len - 1); // a folded Drop
                    break;
                  case OpCode::AssignReg:
                    execAssignReg(op);
                    enter(op.len - 1); // a folded Drop
                    break;
                }
            }
        } catch (const Trap &) {
            if (fast) {
                // The block's words after ops[pc - 1] were charged but
                // never ran: they end at the next header or the end.
                for (int i = pc; i < size && ops[i].code != OpCode::Block;
                     ++i) {
                    steps_ -= costs[i].steps;
                    cycles_ -= costs[i].cycles;
                    loop_cycles_[cur_loop_] -= costs[i].cycles;
                }
            }
            throw;
        }
    }

    /** Ret: unwind one frame; true when the loop's base depth is left. */
    bool
    execRet(const Op &op, size_t until_depth)
    {
        Value ret = op.a ? popV() : Value::makeInt(0);
        Frame &fr = frames_.back();
        const CompiledFunction &fn = *fr.fn;
        loop_stack_.resize(fr.loop_base);
        resumeLoop();
        slot_stack_.resize(fr.slot_base);
        frames_.pop_back();
        if (!fn.ret_void)
            push(coerceToType(ret, fn.ret_type));
        else
            push(Value::makeInt(0));
        return frames_.size() == until_depth;
    }

    /** MethodInvoke; true when it called into a compiled method. */
    bool
    execMethodInvoke(const Op &op)
    {
        const MethodPlan &plan = p_.methods[size_t(op.a)];
        // Stack: receiver, fn id, then argc arguments.
        size_t arg_base = stack_.size() - size_t(plan.argc);
        long fn_id = stack_[arg_base - 1].v.asInt();
        Value recv = stack_[arg_base - 2].v;
        if (fn_id < 0) { // stream write
            memory_.streamWrite(recv.streamId(), stack_[arg_base].v);
            stack_.resize(arg_base - 2);
            push(Value::makeInt(0));
            return false;
        }
        invoke(int(fn_id), plan.argc, arg_base, recv.asPlace());
        stack_.resize(stack_.size() - 2);
        return true;
    }

    void
    execMethodEnter(const Op &op)
    {
        const MethodPlan &plan = p_.methods[size_t(op.a)];
        StackVal recv = pop();
        if (recv.v.isStream()) {
            charge(CpuCosts::kStream);
            int32_t id = recv.v.streamId();
            switch (plan.stream_kind) {
              case 0: // write: receiver + marker below the argument
                if (plan.argc != 1)
                    throw Trap("stream.write expects one argument");
                push(recv.v);
                push(Value::makeInt(-1));
                frames_.back().pc = plan.write_pc;
                return;
              case 1: // read
                if (plan.argc != 0)
                    throw Trap("stream.read expects no arguments");
                push(memory_.streamRead(id));
                frames_.back().pc = plan.end_pc;
                return;
              case 2: // empty
                push(Value::makeInt(memory_.streamEmpty(id) ? 1 : 0));
                frames_.back().pc = plan.end_pc;
                return;
              case 3: // full: the model's streams are unbounded
                push(Value::makeInt(0));
                frames_.back().pc = plan.end_pc;
                return;
              case 4: // size
                push(Value::makeInt(long(memory_.streamSize(id))));
                frames_.back().pc = plan.end_pc;
                return;
              default:
                throw Trap("unknown stream method: " + plan.method);
            }
        }
        if (recv.v.isPointer()) {
            Place p = recv.v.asPlace();
            const cir::Type *bt = memory_.blockType(p.block);
            if (bt && bt->isStruct()) {
                // Fast path: skip the receiver re-evaluation.
                push(Value::makePointer(p), bt);
                frames_.back().pc = plan.bind_pc;
                return;
            }
        }
        // Fall through: re-evaluate the receiver as a place, exactly
        // like the walker's evalPlaceOfObject fallback.
    }

    void
    execMethodBind(const Op &op)
    {
        const MethodPlan &plan = p_.methods[size_t(op.a)];
        StackVal e = pop();
        if (!e.t || !e.t->isStruct())
            throw Trap("method call on non-struct value");
        BindCache &c = bind_caches_[size_t(op.a)];
        if (e.t != c.key) {
            auto sit = p_.struct_ids.find(e.t->structName());
            if (sit == p_.struct_ids.end())
                throw Trap("unknown struct: " + e.t->structName());
            const StructLayout &sd = p_.layouts[size_t(sit->second)];
            auto mit = sd.method_ids.find(plan.method);
            if (mit == sd.method_ids.end())
                throw Trap("no method '" + plan.method +
                           "' on struct " + sd.name);
            const CompiledFunction &m =
                p_.functions[size_t(mit->second)];
            if (int(m.decl->params.size()) != plan.argc)
                throw Trap("wrong argument count calling method " +
                           plan.method);
            c.key = e.t;
            c.fn_id = mit->second;
        }
        push(e.v, e.t);
        push(Value::makeInt(c.fn_id));
    }

    void
    execIncDecReg(const Op &op)
    {
        Binding &b = slotAt(op.c);
        Value old = b.v;
        long delta = (op.a == 0 || op.a == 2) ? 1 : -1;
        b.v = coerceToType(incDec(old, delta, b.type, p_.structs), b.type);
        profileStore(op.b, b.v);
        if (!(op.mode & kDiscard))
            push(op.a >= 2 ? old : b.v);
    }

    /** Assign, after its static kMem. */
    void
    execAssign(const Op &op)
    {
        Value rhs = popV();
        StackVal lhs = pop();
        Place place = lhs.v.asPlace();
        Value result;
        if (AssignOp(op.a) == AssignOp::Plain) {
            if (lhs.t && lhs.t->isStruct() && rhs.isPointer()) {
                copyStruct(rhs.asPlace(), place,
                           layoutOf(lhs.t->structName()));
                result = rhs;
            } else {
                memory_.store(place, rhs);
                result = memory_.load(place);
            }
        } else {
            Value old = memory_.load(place);
            Value combined = binary(compoundOp(AssignOp(op.a)), old, rhs);
            memory_.store(place, combined);
            result = memory_.load(place);
        }
        profileStore(op.b, result);
        if (!(op.mode & kDiscard))
            push(result);
    }

    /**
     * execAssign against a register slot. The struct-copy branch is
     * impossible (registers are never structs); stores coerce to the
     * declared type as Memory::store does, and the result is the
     * stored (coerced) value, as the walker's store-then-load.
     */
    void
    execAssignReg(const Op &op)
    {
        Value rhs = popV();
        Binding &b = slotAt(op.c);
        if (AssignOp(op.a) == AssignOp::Plain) {
            b.v = coerceToType(rhs, b.type);
        } else {
            Value combined = binary(compoundOp(AssignOp(op.a)), b.v, rhs);
            b.v = coerceToType(combined, b.type);
        }
        profileStore(op.b, b.v);
        if (!(op.mode & kDiscard))
            push(b.v);
    }

    const Program &p_;
    SeedCapture seed_;
    // Hot RunOptions fields, cached flat by reset() for the dispatch loop.
    uint64_t max_steps_ = 0;
    LoopProfile *loop_profile_ = nullptr;
    CoverageMap *coverage_ = nullptr;
    ValueProfile *profile_ = nullptr;
    BranchEventLog *branch_log_ = nullptr;
    /** testing::corrupt_branch_event, read once per run. */
    int corrupt_at_ = -1;
    /** False when every block must take the slow path (see reset()). */
    bool fast_ok_ = false;
    std::vector<SiteCache> caches_; ///< per-VM: runs evaluate in parallel
    std::vector<BindCache> bind_caches_;
    // Flat per-run sinks, folded by foldSinks().
    std::vector<ValueRange> ranges_; ///< by interned profile key
    std::vector<int> touched_ranges_;
    size_t root_loop_; ///< loop_cycles_ index of the outside-any-loop bin
    std::vector<uint64_t> loop_cycles_; ///< by loop slot, root last
    std::vector<LoopRun> loop_runs_;    ///< by loop slot
    size_t cur_loop_ = 0; ///< loop_cycles_ index charges go to
    Memory memory_;
    std::vector<StackVal> stack_;
    std::vector<Frame> frames_;
    std::vector<Binding> slot_stack_; ///< all live frames' slots
    std::vector<Binding> globals_;
    std::map<int, int32_t> static_streams_;
    std::vector<int> loop_stack_; ///< loop slots; only with a loop profile
    uint64_t steps_ = 0;
    uint64_t cycles_ = 0;
    uint64_t branch_records_ = 0;
};

} // namespace

RunResult
executeProgram(const Program &program, const std::string &function,
               const std::vector<KernelArg> &args,
               const RunOptions &options)
{
    // One warm VM per thread: the fuzz and repair loops run the same
    // compiled program millions of times, so reusing a reset() VM
    // keeps allocation capacity and inline caches across runs instead
    // of paying construction per run. Keyed on the program's serial —
    // a different program (even at a recycled address) rebuilds.
    thread_local uint64_t cached_serial = 0;
    thread_local std::unique_ptr<VM> cached;
    if (!cached || cached_serial != program.serial) {
        cached = std::make_unique<VM>(program);
        cached_serial = program.serial;
    }
    cached->reset(options);
    return cached->run(function, args);
}

} // namespace heterogen::interp::bytecode

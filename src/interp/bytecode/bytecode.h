/**
 * @file
 * The bytecode VM: the CIR interpreter's only production engine
 * (docs/INTERP.md).
 *
 * A one-pass compiler lowers a TranslationUnit into a compact register
 * bytecode — flattened constant pool, statically resolved variable
 * slots, precomputed branch targets and interned profile keys — which a
 * dispatch-loop VM then executes.
 *
 * The contract is bit-identity with the reference tree walker
 * (interp/reference/walker.cc): every opcode handler performs exactly
 * the primitive effects (memory operations, coverage records, profile
 * notes, dynamic cycle charges) of the walker fragment it replaces, in
 * the same order. Steps and the cycle charges the compiler can prove
 * static are accounted per basic block instead (see OpCost and
 * OpCode::Block); docs/INTERP.md states where the counters are exact.
 * tests/test_interp_diff.cc enforces the contract property-style.
 */

#ifndef HETEROGEN_INTERP_BYTECODE_BYTECODE_H
#define HETEROGEN_INTERP_BYTECODE_BYTECODE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cir/ast.h"
#include "interp/interp.h"
#include "interp/runtime.h"
#include "interp/value.h"

namespace heterogen::interp::bytecode {

/**
 * Instruction set. Each opcode corresponds to one observable fragment
 * of the tree walker; the comments give the walker source of truth.
 */
enum class OpCode : uint8_t
{
    Step,      ///< folded step()s only (flushed at labels)
    Block,     ///< basic-block header: a = steps, b = static cycles
    Const,     ///< push const_pool[a]
    Drop,      ///< pop one value (discarded expression statement)
    LoadScalar,///< evalIdent, non-decaying: charge kMem, push load(slot a)
    LoadHandle,///< evalIdent, array/struct decay: charge kMem, push place
    TrapOp,    ///< throw Trap(names[a])
    PlaceSlot, ///< evalPlace(Ident): push place of slot a, type types[b]
    PlaceDeref,///< evalPlace(*p): pop pointer, push pointee place
    DerefLoad, ///< rvalue *p: pop pointer, charge kMem, push load
    AddrOf,    ///< &lvalue: pop place entry, push pointer value
    PlaceToValue, ///< rvalue Index/Member: charge kMem, decay or load
    IndexBaseArr, ///< evalIndexBase(Ident, array type): push slot place
    IndexBaseLoad,///< evalIndexBase(Ident, other): load handle, names[c] traps
    IndexBaseDecay, ///< evalIndexBase(nested): pop place, decay or load
    IndexCombine, ///< pop index+base, charge kIntAlu, push element place
    MemberArrow,  ///< pop pointer ("-> on non-pointer"), push block place
    MemberDotTest,///< pop value; pointer: push place, jump a; else fall through
    MemberCombine,///< pop base place, resolve field names[a], push field place
    Neg,       ///< unary minus
    Not,       ///< logical not
    BitNot,    ///< bitwise not
    IncDec,    ///< a: 0 PreInc 1 PreDec 2 PostInc 3 PostDec; b: profile key|-1
    Binary,    ///< applyBinary with op a (non-logical)
    LogicalTest, ///< a: 1 = &&; b: branch id; c: jump-to-end on shortcut
    Truthy01,  ///< pop, push truthy as 0/1 int
    CastTo,    ///< coerceToType to types[a] (non-pointer casts)
    Jump,      ///< pc = a
    BranchFalse, ///< pop cond, recordBranch(a, cond), if !cond pc = b
    BranchLoop,  ///< loop cond: recordBranch(a, cond); taken: iteration(c); else pc = b
    LoopAlways,  ///< for(;;) with no cond: recordBranch(a, true), iteration(c)
    LoopEnter, ///< LoopScope entry for loop slot a
    LoopExit,  ///< LoopScope exit
    CallFn,    ///< call functions[a] with b args from the stack
    Ret,       ///< return (a = has value); unwinds one frame
    Halt,      ///< end of the globals chunk
    Charge,    ///< charge(a) cycles (malloc's up-front kCall+kMem)
    MallocRaw, ///< malloc(non-sizeof expr): pop n, allocate untyped
    MallocTyped, ///< malloc(sizeof-shape): plan mallocs[a]
    FreeOp,    ///< pop pointer, release
    Printf,    ///< pop a args, charge kCall, push 0
    Math,      ///< math intrinsic: a = MathFn, b = argc, c = name
    MethodEnter, ///< methods[a]: stream dispatch / struct fast path
    MethodBind,  ///< methods[a]: bind receiver from evaluated place
    MethodInvoke,///< methods[a]: stream write or struct method call
    StructLitAlloc, ///< allocatePattern for struct_lits[a], push pointer
    StructLitInit,  ///< apply stores of struct_lits[a]
    DeclScalar,///< allocate(1, types[b]) and bind slot a
    DeclStruct,///< allocatePattern and bind slot a (b = layout, c = type)
    DeclStream,///< stream decl: b = type, c = static decl node id | -1
    CheckDim,  ///< VLA dim: pop, asInt, trap negative, push back
    DeclArray, ///< flatten dims per arrays[b], allocate, bind slot a
    DeclInit,  ///< pop init value, store into slot a (b = profile|-1, c = layout|-1)
    Assign,    ///< a = AssignOp, b = profile key | -1

    /*
     * Register forms. The compiler proves a scalar variable's address is
     * never taken (no `&x` anywhere in the TU names it), so its slot
     * holds the value directly and the Memory round-trip — allocation,
     * bounds checks, arena load/store — is skipped. Observables are
     * unchanged: charges/steps/profile notes mirror the memory forms,
     * stores still coerce to the declared type, and the skipped block
     * ids are unobservable (pointers to such variables cannot exist).
     */
    LoadReg,     ///< LoadScalar on a register slot: charge kMem, push value
    PlaceReg,    ///< PlaceSlot on a register slot: dummy place, static type
    IndexBaseLoadReg, ///< IndexBaseLoad on a register slot
    AssignReg,   ///< Assign to a register slot (a = AssignOp, b = key, c = slot)
    IncDecReg,   ///< IncDec on a register slot (a = mode, b = key, c = slot)
    DeclReg,     ///< uninitialized register decl: reset slot a, type b
    DeclInitReg, ///< pop init, bind register slot a (b = key, c = type)

    /*
     * Typed register ops. Where the compiler's slot types prove every
     * operand an integer — a local register of integer type (whose
     * value is always an Int, or Unset, which every integer operation
     * reads as 0) or an int32 literal — the typed peephole rewrites the
     * first word of a generic sequence into one of these and sets its
     * `len`. The sequence's remaining words stay in place: the handler
     * skips them, and the slow path still accounts each of them in
     * order (no jump lands inside a typed op: labels are Block words).
     * An operand is a slot index, or the literal itself when its
     * kConst bit is set in `mode`; `bop` is the BinaryOp and `wrap`
     * the destination's width (kWrapSigned marks signed). These may
     * trap only after all their words are accounted (division by
     * zero), which is what keeps block accounting exact. So a division
     * or modulo is never fused with a word the walker charges after
     * the operator runs (the branch of `if (x / y)`, the store of
     * `z = x / y`); `x /= y` is fused, since the walker charges the
     * whole assignment before it divides.
     */
    IntBin,    ///< push a bop b                           (L ; R ; Binary)
    IntBranch, ///< a bop b, recordBranch(d), false: pc = c  (.. ; BranchFalse)
    IntLoop,   ///< as IntBranch; taken counts an iteration of loop slot e
    IntStore,  ///< slot c = wrap(value), note key d, type types[e]
    IntInc,    ///< slot a += b, wrapped, note key d       (IncDecReg ; Drop)
    IntIncJump,///< IntInc, then pc = c                    (.. ; Jump)
    /**
     * push base[i] for a scalar-element array or pointer in slot a
     * (IndexBase* ; index ; IndexCombine ; PlaceToValue), where the
     * index is operand b, or d bop b under kBinary. e = kIndex* base
     * form, c = the IndexBase* trap name. Unlike the other typed ops
     * several of its words may trap, so it enters each word just
     * before that word's part runs.
     */
    IntLoadIndex,
    /**
     * p->field, p a register (slot a) or, under kStackBase, the value
     * on the stack: (LoadReg ;) MemberArrow ; MemberCombine
     * [; PlaceToValue under kLoadField]. Enters its words one by one
     * like IntLoadIndex; the MemberCombine word keeps its field name
     * and cache operands.
     */
    ArrowMember,
};

/** Op::mode bits. A bit means what the op it is set on reads it as. */
constexpr uint8_t kConstL = 1;   ///< typed: operand a is a literal
constexpr uint8_t kConstR = 2;   ///< typed: operand b is a literal
/** IntStore's value is a bop b; IntLoadIndex's index is d bop b. */
constexpr uint8_t kBinary = 4;
constexpr uint8_t kStoreAcc = 8; ///< IntStore value: slot c bop b
/**
 * Assign, AssignReg, IncDec, IncDecReg: the statement discards the
 * result, so the op skips its push and spans the Drop word after it.
 */
constexpr uint8_t kDiscard = 16;
/** ArrowMember: the pointer is on the stack, not in a register. */
constexpr uint8_t kStackBase = 32;
/** ArrowMember: load the field (push its value, not its place). */
constexpr uint8_t kLoadField = 64;
/** IntLoadIndex base forms (Op::e). */
constexpr int32_t kIndexArray = 0; ///< IndexBaseArr: the slot is the array
constexpr int32_t kIndexCell = 1;  ///< IndexBaseLoad: pointer in a cell
constexpr int32_t kIndexReg = 2;   ///< IndexBaseLoadReg: pointer register
/** Op::wrap bit: the destination type is signed. */
constexpr uint8_t kWrapSigned = 0x80;

/** One instruction. Its accounting lives in CompiledFunction::costs. */
struct Op
{
    OpCode code = OpCode::Step;
    uint8_t bop = 0;  ///< typed ops: BinaryOp
    uint8_t mode = 0; ///< typed ops: kConstL | kConstR | kStore* bits
    uint8_t wrap = 0; ///< typed stores: width (1-64) | kWrapSigned
    uint8_t len = 1;  ///< words this op spans (typed ops > 1)
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    int32_t d = 0;
    int32_t e = 0;
};

/**
 * Accounting of one op word. `steps` folds the walker step() calls that
 * occur immediately before the op's action; `cycles` is the part of the
 * op's cycle charge the compiler proves static and charged before any
 * trap point of the op (charges that depend on run-time kinds stay in
 * the handler). A Block header carries its block's sums; a trap inside
 * a pre-charged block takes back the costs of the words after it.
 */
struct OpCost
{
    uint16_t steps = 0;
    uint8_t cycles = 0;
};

/** Struct layout mirroring the walker's, plus compiled method ids. */
struct StructLayout
{
    std::string name;
    std::vector<std::string> field_names;
    std::vector<const cir::Type *> field_types;
    std::map<std::string, int> method_ids; ///< into Program::functions

    int
    indexOf(const std::string &field) const
    {
        for (size_t i = 0; i < field_names.size(); ++i) {
            if (field_names[i] == field)
                return static_cast<int>(i);
        }
        return -1;
    }

    int size() const { return static_cast<int>(field_names.size()); }
};

/** Precomputed binding action for one parameter (callFunction order). */
struct ParamPlan
{
    enum class Kind { Handle, Struct, Scalar, Reg };
    Kind kind = Kind::Scalar;
    int slot = 0;
    cir::TypePtr type;    ///< the declared parameter type
    cir::TypePtr bound;   ///< binding type (arrays decay to pointer)
    int layout = -1;      ///< struct params
    int profile_key = -1; ///< scalar params
};

/** One compiled function or method body. */
struct CompiledFunction
{
    std::string display; ///< profile-key prefix ("f" or "S::m")
    const cir::FunctionDecl *decl = nullptr;
    int owner_layout = -1; ///< struct methods: fields bind from `self`
    std::vector<ParamPlan> params;
    std::vector<Op> ops;
    std::vector<OpCost> costs; ///< parallel to ops
    int num_slots = 0;
    cir::TypePtr ret_type;
    bool ret_void = true;
};

/** malloc(sizeof-shape) resolved at compile time. */
struct MallocPlan
{
    cir::TypePtr type;
    int layout = -1;     ///< struct element: allocatePattern
    long cells_per = 1;  ///< non-struct: flatCells(type)
    bool has_count = false; ///< pop the count operand
    std::string trap;    ///< non-empty: trap after the count check
};

/** Array declaration with flattened static/VLA dims. */
struct ArrayDeclPlan
{
    cir::TypePtr type;   ///< the full declared array type (the binding)
    cir::TypePtr scalar; ///< flattened element type
    int layout = -1;     ///< struct element type
    /** Outer-to-inner dims; kUnknownArraySize marks a runtime dim. */
    std::vector<long> dims;
    int runtime_dims = 0;
};

/** Struct literal with compile-time-resolved initializer stores. */
struct StructLitPlan
{
    int layout = -1;
    cir::TypePtr type; ///< Type::structType tag for allocatePattern
    int argc = 0;
    /** (field index, arg index) stores applied in order. */
    std::vector<std::pair<int, int>> stores;
    std::string trap; ///< raised before/after stores per trap_before
    bool trap_before = true;
};

/**
 * Method-call site: name, arity and the shared jump targets. The op
 * layout is MethodEnter, [receiver place re-evaluation], MethodBind
 * (at bind_pc), [argument evaluation] (at write_pc), MethodInvoke,
 * end_pc. The struct fast path jumps to bind_pc, stream writes to
 * write_pc, and argument-free stream reads push their result and jump
 * to end_pc.
 */
struct MethodPlan
{
    std::string method;
    int argc = 0;
    /** 0 write, 1 read, 2 empty, 3 full, 4 size, 5 unknown. */
    int stream_kind = 5;
    int bind_pc = -1;
    int write_pc = -1;
    int end_pc = -1;
};

/** A whole compiled translation unit. */
struct Program
{
    const cir::TranslationUnit *tu = nullptr;
    std::vector<CompiledFunction> functions;
    std::map<std::string, int> function_ids; ///< free functions only
    CompiledFunction globals; ///< ends with Halt; slots are global ids
    int num_globals = 0;
    std::vector<StructLayout> layouts;
    /**
     * Two name maps mirror the walker's duplicate-name behaviour:
     * `struct_ids` keeps the first declaration (findStruct: method and
     * ctor dispatch), `layout_ids` the last (layoutOf: field layout).
     */
    std::map<std::string, int> struct_ids;
    std::map<std::string, int> layout_ids;
    StructCells structs; ///< cells per struct name, as layout_ids
    std::vector<Value> const_pool;
    std::vector<cir::TypePtr> types;
    std::vector<std::string> names; ///< trap messages, profile keys, fields
    std::vector<MallocPlan> mallocs;
    std::vector<ArrayDeclPlan> arrays;
    std::vector<StructLitPlan> struct_lits;
    std::vector<MethodPlan> methods;
    /** Loop slot -> loop statement node id (the LoopProfile key). */
    std::vector<int> loop_nodes;
    /**
     * Number of per-site inline-cache slots the compiler assigned
     * (MemberCombine field resolution, IndexCombine stride). The VM
     * keys each slot on static-type identity — sound because compound
     * types are interned for the process lifetime — and so skips the
     * walker's per-access string lookups on the monomorphic fast path.
     */
    int num_caches = 0;
    /**
     * Process-unique compilation id (never 0). The VM keeps one warm
     * instance per thread keyed on this, so repeated runs of the same
     * program — the fuzz and repair loops — skip per-run allocation.
     */
    uint64_t serial = 0;
};

/**
 * Compile a sema-analyzed TU. The compiler covers the full CIR
 * surface: its switches over statement, expression and operator kinds
 * are exhaustive, so an unlowerable construct is an internal invariant
 * violation and panics.
 */
std::unique_ptr<const Program>
compileProgram(const cir::TranslationUnit &tu);

/** Execute one run on the VM. Mirrors the reference walker's run. */
RunResult executeProgram(const Program &program,
                         const std::string &function,
                         const std::vector<KernelArg> &args,
                         const RunOptions &options);

namespace testing {
/**
 * Test-only fault hook for the differential harness: when >= 0, the
 * VM charges one extra cycle at this (0-based) branch record of each
 * run — simulating a single miscompiled opcode so tests can assert
 * that divergence reporting names the first diverging site. Read once
 * per run, when the run starts.
 */
extern int corrupt_branch_event;
} // namespace testing

} // namespace heterogen::interp::bytecode

#endif // HETEROGEN_INTERP_BYTECODE_BYTECODE_H

/**
 * @file
 * Interpreter for CIR programs.
 *
 * The interpreter compiles a translation unit to register bytecode once
 * and executes its functions on a dispatch-loop VM (docs/INTERP.md),
 * with precise memory safety (traps), branch-coverage recording,
 * value-range profiling, and a CPU cycle model used as the paper's
 * "original C on CPU" latency baseline. The same VM, driven through
 * hls::simulateFpga, provides functional FPGA co-simulation. A
 * tree-walking reference (interp/reference/) is the oracle the VM is
 * proven against; only tests and benches link it.
 *
 * Concurrency contract: the VM holds no mutable process-wide state —
 * memory, frames, static-local stream bindings and the RNG-free step
 * accounting all live per run — so any number of runs may execute
 * concurrently over the same (const) TranslationUnit, provided the
 * RunOptions output sinks (coverage/profile/captured_args) point at
 * distinct objects per run. The parallel difftest and fuzzing batch
 * layers rely on exactly this; tests/test_parallel.cc asserts the
 * resulting thread-count invariance.
 */

#ifndef HETEROGEN_INTERP_INTERP_H
#define HETEROGEN_INTERP_INTERP_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cir/ast.h"
#include "interp/coverage.h"
#include "interp/kernel_arg.h"
#include "interp/loop_profile.h"
#include "interp/memory.h"
#include "interp/profile.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::interp {

namespace bytecode {
struct Program;
}

/**
 * Per-operation cycle costs for the CPU latency model (2 GHz core).
 * Shared by the VM and the reference walker so the two charge
 * identical cycles by construction.
 */
struct CpuCosts
{
    static constexpr uint64_t kIntAlu = 1;
    static constexpr uint64_t kIntMul = 3;
    static constexpr uint64_t kIntDiv = 12;
    static constexpr uint64_t kFloatAlu = 3;
    static constexpr uint64_t kFloatMul = 5;
    static constexpr uint64_t kFloatDiv = 15;
    static constexpr uint64_t kMem = 2;
    static constexpr uint64_t kBranch = 1;
    static constexpr uint64_t kCall = 6;
    static constexpr uint64_t kMath = 20;
    static constexpr uint64_t kStream = 2;
};

/**
 * One observed branch decision with the clock state at the record.
 * Sequences of these are the differential runner's alignment points
 * (interp/reference/reference.h): two bit-identical runs produce
 * identical event sequences, so the first differing event localizes a
 * divergence in time.
 */
struct BranchEvent
{
    int branch_id = -1;
    bool taken = false;
    uint64_t steps = 0;
    uint64_t cycles = 0;

    bool operator==(const BranchEvent &other) const = default;
};

/** Sink recording every recordBranch call of a run, in order. */
struct BranchEventLog
{
    std::vector<BranchEvent> events;
};

/** A run traps beyond this call depth (recursion guard). */
constexpr int kMaxCallDepth = 256;

/** Knobs for one interpreter run. */
struct RunOptions
{
    /** Abort with a trap after this many evaluation steps. */
    uint64_t max_steps = 20'000'000;
    /** Record branch edges here when non-null. */
    CoverageMap *coverage = nullptr;
    /** Record value ranges here when non-null. */
    ValueProfile *profile = nullptr;
    /** Record per-loop cycle attribution here when non-null. */
    LoopProfile *loop_profile = nullptr;
    /**
     * When non-empty: the first call to this function captures its
     * evaluated arguments into captured_args (kernel seed extraction).
     */
    std::string capture_function;
    std::vector<KernelArg> *captured_args = nullptr;
    /**
     * When non-null, each run bumps interp.runs / interp.steps /
     * interp.traps counters on the spine (support/run_context.h).
     * Counter updates are thread-safe, so concurrent runs (parallel
     * difftest, fuzz batches) may share one context; totals are
     * thread-count invariant because they are plain integer sums.
     */
    RunContext *trace = nullptr;
    /**
     * When non-null, every branch record appends a BranchEvent here
     * (the differential runner's input). Costs nothing when unset.
     */
    BranchEventLog *branch_log = nullptr;
};

/** Outcome of one run. */
struct RunResult
{
    bool ok = false;
    std::string trap; ///< trap message when !ok
    bool has_ret = false;
    KernelArg ret;
    /** Post-run state of every parameter (arrays/streams reflect writes). */
    std::vector<KernelArg> out_args;
    uint64_t cycles = 0;
    uint64_t steps = 0;

    /** Wall-clock estimate at the CPU model's 2 GHz clock. */
    double cpuMillis() const { return double(cycles) * 0.5e-6; }

    /** Behavioural identity: return value, out state and trap equality. */
    bool sameBehavior(const RunResult &other) const;
};

/**
 * Interpreter facade bound to one translation unit.
 *
 * Each call to run() executes with fresh memory and fresh globals; the
 * compiled program is cached across runs, built by the first run. Hot
 * loops (fuzzing, difftest, co-simulation) construct one Interpreter
 * per campaign so the compile cost is paid once; compilation is
 * thread-safe, so concurrent run() calls over one instance are fine.
 */
class Interpreter
{
  public:
    explicit Interpreter(const cir::TranslationUnit &tu);
    ~Interpreter();

    Interpreter(const Interpreter &) = delete;
    Interpreter &operator=(const Interpreter &) = delete;

    /**
     * Run `function` with the given kernel arguments and per-run
     * options (sinks, limits). Traps are reported in the result, never
     * thrown.
     */
    RunResult run(const std::string &function,
                  const std::vector<KernelArg> &args,
                  const RunOptions &options = {}) const;

    const cir::TranslationUnit &tu() const { return tu_; }

  private:
    /** The compiled program; the first call compiles and counts
     * interp.bytecode.compiles on `trace`. */
    const bytecode::Program &compiled(RunContext *trace) const;

    const cir::TranslationUnit &tu_;
    mutable std::once_flag compile_once_;
    mutable std::unique_ptr<const bytecode::Program> program_;
};

/** Convenience one-shot run. */
RunResult runProgram(const cir::TranslationUnit &tu,
                     const std::string &function,
                     const std::vector<KernelArg> &args,
                     const RunOptions &options = {});

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_INTERP_H

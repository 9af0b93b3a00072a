/**
 * @file
 * Differential harness proving the bytecode VM bit-identical to the
 * reference tree walker (docs/INTERP.md).
 *
 * Every program here runs on the walker and on the VM with private
 * observation sinks, and EVERY observable is compared: outcome (return
 * value, out args, trap message), step count, modeled CPU cycles,
 * branch coverage, value-range profile, per-loop cycle attribution, and
 * the full ordered branch-event log. Each comparison repeats for the
 * sink sets the pipeline's stages attach — none, coverage only
 * (fuzzing), value profile only (profiling), loop profile only
 * (co-simulation) — and for all of them, since a branch-event log
 * sends the VM down its slow accounting path. Inputs come from the ten
 * evaluation subjects (with fuzzer-generated suites), their manual HLS
 * ports, all 1000 forum-corpus repro snippets across argument seeds,
 * and a randomized program generator — plus whole fuzz campaigns,
 * directed trap-path cases and a self-test that the differential
 * runner localizes an injected divergence.
 */

#include <gtest/gtest.h>

#include <climits>
#include <sstream>

#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "interp/bytecode/bytecode.h"
#include "interp/interp.h"
#include "interp/reference/reference.h"
#include "subjects/forum_corpus.h"
#include "subjects/subjects.h"
#include "support/rng.h"
#include "support/worker_pool.h"

namespace heterogen::interp {
namespace {

using cir::parse;
using reference::runDifferential;
using reference::runWalker;

/** Which side of a differential comparison runs. */
enum class Side
{
    Walker,
    Vm,
};

/** Observation sinks a run attaches (bit set). */
enum Sink : unsigned
{
    kCoverage = 1,
    kProfile = 2,
    kLoops = 4,
    kBranchLog = 8,
    kAllSinks = 15,
};

/** The sink sets every comparison repeats for (see the file comment). */
constexpr unsigned kSinkSets[] = {0, kCoverage, kProfile, kLoops,
                                  kAllSinks};

/** Everything observable from one run, collected into private sinks. */
struct Observation
{
    RunResult result;
    CoverageMap coverage;
    ValueProfile profile;
    LoopProfile loops;
    BranchEventLog branch_log;
};

Observation
observe(const Interpreter &interp, const std::string &fn,
        const std::vector<KernelArg> &args, Side side, uint64_t max_steps,
        unsigned sinks = kAllSinks)
{
    Observation o;
    RunOptions opts;
    opts.max_steps = max_steps;
    opts.coverage = sinks & kCoverage ? &o.coverage : nullptr;
    opts.profile = sinks & kProfile ? &o.profile : nullptr;
    opts.loop_profile = sinks & kLoops ? &o.loops : nullptr;
    opts.branch_log = sinks & kBranchLog ? &o.branch_log : nullptr;
    o.result = side == Side::Walker ? runWalker(interp.tu(), fn, args, opts)
                                    : interp.run(fn, args, opts);
    return o;
}

/** Assert two engines' observations of one run under `sinks` match. */
void
expectSameObservation(const Observation &walk, const Observation &vm,
                      const std::string &label)
{
    EXPECT_EQ(walk.result.ok, vm.result.ok) << label;
    EXPECT_EQ(walk.result.trap, vm.result.trap) << label;
    EXPECT_EQ(walk.result.steps, vm.result.steps) << label;
    EXPECT_EQ(walk.result.cycles, vm.result.cycles) << label;
    EXPECT_EQ(walk.result.has_ret, vm.result.has_ret) << label;
    EXPECT_TRUE(walk.result.ret == vm.result.ret) << label;
    EXPECT_TRUE(walk.result.out_args == vm.result.out_args) << label;
    EXPECT_TRUE(walk.coverage == vm.coverage) << label;
    EXPECT_TRUE(walk.profile == vm.profile) << label;
    EXPECT_TRUE(walk.loops == vm.loops) << label;
    ASSERT_EQ(walk.branch_log.events.size(), vm.branch_log.events.size())
        << label;
    for (size_t i = 0; i < walk.branch_log.events.size(); ++i) {
        ASSERT_TRUE(walk.branch_log.events[i] == vm.branch_log.events[i])
            << label << " at branch event " << i;
    }
}

/**
 * Run `fn(args)` on the tree walker and the bytecode VM under every
 * sink set and assert every observable matches. `label` names the case
 * in failures.
 */
void
expectEnginesAgree(const Interpreter &interp, const std::string &fn,
                   const std::vector<KernelArg> &args,
                   const std::string &label,
                   uint64_t max_steps = 2'000'000)
{
    for (unsigned sinks : kSinkSets) {
        Observation walk =
            observe(interp, fn, args, Side::Walker, max_steps, sinks);
        Observation vm = observe(interp, fn, args, Side::Vm, max_steps,
                                 sinks);
        expectSameObservation(walk, vm,
                              label + " [sinks " + std::to_string(sinks) +
                                  "]");
    }

    // The differential runner must reach the same verdict.
    RunOptions diff;
    diff.max_steps = max_steps;
    EXPECT_EQ(runDifferential(interp, fn, args, diff).divergence, "")
        << label;
}

/** Deterministic argument vector for a function's parameter list. */
std::vector<KernelArg>
argsFor(const cir::FunctionDecl &fn, uint64_t seed)
{
    Rng rng(seed);
    std::vector<KernelArg> args;
    for (const auto &p : fn.params) {
        if (p.type->isArray() || p.type->isPointer() ||
            p.type->isStream()) {
            bool flt = p.type->element() && p.type->element()->isFloating();
            long n = p.type->isArray() &&
                             p.type->arraySize() != cir::kUnknownArraySize
                         ? p.type->arraySize()
                         : long(4 + rng.below(5));
            if (flt) {
                std::vector<double> xs;
                for (long k = 0; k < n; ++k)
                    xs.push_back(double(rng.range(-8, 8)) * 0.5);
                args.push_back(KernelArg::ofFloats(std::move(xs)));
            } else {
                std::vector<long> xs;
                for (long k = 0; k < n; ++k)
                    xs.push_back(rng.range(-16, 16));
                args.push_back(KernelArg::ofInts(std::move(xs)));
            }
        } else if (p.type->isFloating()) {
            args.push_back(
                KernelArg::ofFloat(double(rng.range(-6, 6)) * 0.75));
        } else {
            args.push_back(KernelArg::ofInt(rng.range(-4, 9)));
        }
    }
    return args;
}

// --- the ten subjects + their fuzzer-generated suites --------------------

fuzz::FuzzOptions
smallCampaign(uint64_t seed)
{
    fuzz::FuzzOptions options;
    options.rng_seed = seed;
    options.max_executions = 120;
    options.mutations_per_input = 8;
    options.min_suite_size = 12;
    options.max_steps_per_run = 200'000;
    return options;
}

TEST(InterpDiff, SubjectsBitIdenticalOverFuzzedSuites)
{
    for (const auto &subject : subjects::allSubjects()) {
        auto tu = parse(subject.source);
        cir::analyzeOrDie(*tu);

        fuzz::FuzzOptions options = smallCampaign(subject.fuzz_seed);
        options.host_function = subject.host;
        RunContext ctx;
        fuzz::FuzzResult campaign =
            fuzz::fuzzKernel(ctx, *tu, subject.kernel, options);

        Interpreter interp(*tu);
        for (const auto &test : campaign.suite.cases()) {
            expectEnginesAgree(interp, subject.kernel, test.args,
                               subject.id + "/" + test.str(), 200'000);
        }
        for (const auto &args : subject.existing_tests) {
            expectEnginesAgree(interp, subject.kernel, args,
                               subject.id + "/existing", 200'000);
        }
    }
}

/** Two campaigns made the same decisions on the same simulated clock. */
void
expectSameCampaign(const fuzz::FuzzResult &a, const fuzz::FuzzResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.suite.size(), b.suite.size()) << label;
    for (size_t i = 0; i < a.suite.size(); ++i)
        EXPECT_TRUE(a.suite[i].args == b.suite[i].args)
            << label << " case " << i;
    EXPECT_TRUE(a.coverage == b.coverage) << label;
    EXPECT_EQ(a.executions, b.executions) << label;
    EXPECT_EQ(a.sim_minutes, b.sim_minutes) << label;
    EXPECT_EQ(a.last_progress_minutes, b.last_progress_minutes) << label;
}

TEST(InterpDiff, FuzzCampaignsIdenticalAcrossEngines)
{
    // The whole campaign — corpus decisions, coverage, simulated clock —
    // must come out the same when every execution, host seed capture
    // included, runs on the walker instead of the VM.
    for (const auto &subject : subjects::allSubjects()) {
        auto tu = parse(subject.source);
        cir::analyzeOrDie(*tu);

        fuzz::FuzzOptions options = smallCampaign(subject.fuzz_seed);
        options.host_function = subject.host;
        WorkerPool pool;
        RunContext walk_ctx;
        fuzz::FuzzResult walk = fuzz::fuzzKernel(
            walk_ctx, *tu, subject.kernel, options, &pool,
            [&](const std::string &fn, const std::vector<KernelArg> &args,
                const RunOptions &opts) {
                return runWalker(*tu, fn, args, opts);
            });
        RunContext vm_ctx;
        fuzz::FuzzResult vm =
            fuzz::fuzzKernel(vm_ctx, *tu, subject.kernel, options, &pool);
        expectSameCampaign(walk, vm, subject.id);
    }
}

TEST(InterpDiff, ManualPortsBitIdentical)
{
    for (const auto &subject : subjects::allSubjects()) {
        if (subject.manual_source.empty())
            continue;
        auto tu = parse(subject.manual_source);
        cir::analyzeOrDie(*tu);

        const cir::FunctionDecl *kernel =
            tu->findFunction(subject.kernel);
        ASSERT_NE(kernel, nullptr) << subject.id;
        Interpreter interp(*tu);
        for (const auto &args : subject.existing_tests) {
            expectEnginesAgree(interp, subject.kernel, args,
                               subject.id + "/manual/existing", 200'000);
        }
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            expectEnginesAgree(interp, subject.kernel,
                               argsFor(*kernel, seed),
                               subject.id + "/manual/seed" +
                                   std::to_string(seed),
                               200'000);
        }
    }
}

// --- the 1000-snippet forum corpus ---------------------------------------

TEST(InterpDiff, ForumCorpusSnippetsBitIdentical)
{
    auto posts = subjects::generateForumCorpus(1000, 2022);
    ASSERT_EQ(posts.size(), 1000u);
    int executed = 0;
    for (const auto &post : posts) {
        auto tu = parse(post.snippet);
        cir::SemaResult sema = cir::analyze(*tu);
        if (!sema.errors.empty())
            continue; // snippets illustrate errors; some are unanalyzable
        const cir::FunctionDecl *kernel = tu->findFunction("kernel");
        if (!kernel)
            continue;
        Interpreter interp(*tu);
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            expectEnginesAgree(interp, "kernel",
                               argsFor(*kernel, seed),
                               "post " + std::to_string(post.post_id) +
                                   " seed " + std::to_string(seed),
                               100'000);
            ++executed;
        }
        if (HasFatalFailure())
            return;
    }
    // The corpus is supposed to exercise the engines, not skip them.
    EXPECT_GT(executed, 2000);
}

// --- randomized programs --------------------------------------------------

/**
 * Generates always-terminating kernels over ints, floats and a fixed
 * array: nested bounded loops, if/else, while, logical operators,
 * ternaries and guarded division — the constructs whose step/cycle
 * accounting is easiest to get subtly wrong in a compiler.
 */
class DiffProgramGen
{
  public:
    explicit DiffProgramGen(uint64_t seed) : rng_(seed) {}

    std::string
    generate()
    {
        std::ostringstream os;
        os << "int kernel(int a[6], int x, int y) {\n"
           << "    int acc = y;\n"
           << "    float fac = 1.5;\n";
        int stmts = 2 + int(rng_.below(5));
        for (int i = 0; i < stmts; ++i)
            emitStmt(os);
        os << "    return acc + (int)fac;\n}\n";
        return os.str();
    }

  private:
    std::string
    operand()
    {
        switch (rng_.below(5)) {
          case 0: return "x";
          case 1: return "y";
          case 2: return "acc";
          case 3: return "a[" + std::to_string(rng_.below(6)) + "]";
          default: return std::to_string(rng_.range(-7, 7));
        }
    }

    std::string
    expr()
    {
        static const char *ops[] = {"+", "-", "*", "&", "|", "^"};
        std::string e = operand();
        int terms = 1 + int(rng_.below(3));
        for (int i = 0; i < terms; ++i)
            e += std::string(" ") + ops[rng_.below(6)] + " " + operand();
        return e;
    }

    std::string
    cond()
    {
        static const char *rel[] = {"<", ">", "==", "!=", "<=", ">="};
        std::string c = operand() + " " + rel[rng_.below(6)] + " " +
                        operand();
        if (rng_.below(3) == 0)
            c += (rng_.below(2) ? " && " : " || ") + operand() + " " +
                 rel[rng_.below(6)] + " " + operand();
        return c;
    }

    void
    emitStmt(std::ostringstream &os)
    {
        switch (rng_.below(6)) {
          case 0:
            os << "    acc = " << expr() << ";\n";
            break;
          case 1:
            os << "    a[" << rng_.below(6) << "] = " << expr()
               << ";\n";
            break;
          case 2:
            os << "    if (" << cond() << ") { acc += " << expr()
               << "; } else { acc -= " << operand() << "; }\n";
            break;
          case 3: {
            int n = 2 + int(rng_.below(6));
            os << "    for (int i = 0; i < " << n
               << "; i++) { acc += a[i % 6] + i; }\n";
            break;
          }
          case 4:
            os << "    acc = (" << cond() << ") ? " << operand()
               << " : " << operand() << ";\n";
            break;
          default:
            os << "    if (" << operand()
               << " != 0) { acc = acc / (" << operand()
               << " | 1); }\n"
               << "    fac = fac * 1.25 + " << rng_.below(4) << ";\n";
            break;
        }
    }

    Rng rng_;
};

TEST(InterpDiff, RandomProgramsBitIdentical)
{
    for (uint64_t seed = 1; seed <= 150; ++seed) {
        DiffProgramGen gen(seed);
        std::string src = gen.generate();
        auto tu = parse(src);
        cir::analyzeOrDie(*tu);
        Interpreter interp(*tu);
        for (uint64_t arg_seed = 1; arg_seed <= 2; ++arg_seed) {
            Rng rng(seed * 100 + arg_seed);
            std::vector<long> a;
            for (int k = 0; k < 6; ++k)
                a.push_back(rng.range(-20, 20));
            std::vector<KernelArg> args = {
                KernelArg::ofInts(std::move(a)),
                KernelArg::ofInt(rng.range(-10, 10)),
                KernelArg::ofInt(rng.range(-10, 10)),
            };
            expectEnginesAgree(interp, "kernel", args,
                               "gen " + std::to_string(seed) + "/" +
                                   std::to_string(arg_seed) + "\n" + src);
        }
        if (HasFatalFailure())
            return;
    }
}

// --- directed trap paths --------------------------------------------------

TEST(InterpDiff, DivisionByZeroTrapsIdentically)
{
    auto tu = parse(R"(
        int kernel(int a[4], int d) {
            int acc = 0;
            for (int i = 0; i < 4; i++) { acc += a[i]; }
            return acc / d;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    std::vector<KernelArg> args = {KernelArg::ofInts({1, 2, 3, 4}),
                                   KernelArg::ofInt(0)};
    expectEnginesAgree(interp, "kernel", args, "div by zero");
    RunResult r = interp.run("kernel", args);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.trap, "integer division by zero");
}

TEST(InterpDiff, OutOfBoundsReadTrapsIdentically)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int buf[4];
            for (int i = 0; i < 4; i++) { buf[i] = i; }
            return buf[n];
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    expectEnginesAgree(interp, "kernel", {KernelArg::ofInt(17)},
                       "oob read");
    RunResult r = interp.run("kernel", {KernelArg::ofInt(17)});
    EXPECT_FALSE(r.ok);
}

TEST(InterpDiff, OutOfBoundsWriteTrapsIdentically)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int buf[4];
            buf[n] = 9;
            return 0;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    expectEnginesAgree(interp, "kernel", {KernelArg::ofInt(-2)},
                       "oob write");
    RunResult r = interp.run("kernel", {KernelArg::ofInt(-2)});
    EXPECT_FALSE(r.ok);
}

TEST(InterpDiff, UninitializedReadBehavesIdentically)
{
    // Reading an Unset cell is defined behaviour in the memory model;
    // both engines must agree on the resulting value and profile.
    auto tu = parse(R"(
        int kernel(int n) {
            int buf[4];
            int x = buf[n & 3];
            return x + n;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    expectEnginesAgree(interp, "kernel", {KernelArg::ofInt(2)},
                       "uninitialized read");
}

TEST(InterpDiff, StepLimitLeavesIdenticalPartialCoverage)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int acc = 0;
            while (1) {
                acc += n;
                if (acc > 1000000) { break; }
                if (acc < -1000000) { break; }
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    // n = 0 never terminates: both engines must trap at the exact same
    // step with the same partial coverage and cycle count.
    expectEnginesAgree(interp, "kernel", {KernelArg::ofInt(0)},
                       "step limit", 5'000);
    RunResult r = interp.run("kernel", {KernelArg::ofInt(0)},
                             [] {
                                 RunOptions o;
                                 o.max_steps = 5'000;
                                 return o;
                             }());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.trap,
              "step limit exceeded (possible non-termination)");
    EXPECT_EQ(r.steps, 5'001u);
}

TEST(InterpDiff, CallDepthTrapsIdentically)
{
    auto tu = parse(R"(
        int down(int n) { return down(n + 1); }
        int kernel(int n) { return down(n); }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    expectEnginesAgree(interp, "kernel", {KernelArg::ofInt(0)},
                       "call depth");
    RunResult r = interp.run("kernel", {KernelArg::ofInt(0)});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.trap, "call depth exceeded (runaway recursion?)");
}

// --- every step limit: the step-limit trap at every op of every block -----

/**
 * Assert walker/VM identity at every max_steps from 1 to one past a
 * full run's step count, with the pipeline's fast-path sinks
 * (coverage, value profile, loop profile) and with every sink.
 */
void
expectEnginesAgreeAtEveryLimit(const Interpreter &interp,
                               const std::string &fn,
                               const std::vector<KernelArg> &args,
                               const std::string &label)
{
    uint64_t full =
        observe(interp, fn, args, Side::Walker, 1'000'000).result.steps;
    ASSERT_GT(full, 0u) << label;
    ASSERT_LT(full, 1'000'000u) << label;
    for (uint64_t limit = 1; limit <= full + 1; ++limit) {
        for (unsigned sinks : {unsigned(kCoverage | kProfile | kLoops),
                               unsigned(kAllSinks)}) {
            std::string at = label + " max_steps " + std::to_string(limit) +
                             " [sinks " + std::to_string(sinks) + "]";
            expectSameObservation(
                observe(interp, fn, args, Side::Walker, limit, sinks),
                observe(interp, fn, args, Side::Vm, limit, sinks), at);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(InterpDiff, StepLimitSweepRunawayLoop)
{
    // The forum corpus's runaway-loop post, cut short by its argument.
    auto tu = parse(R"(
        int kernel(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                #pragma HLS unroll factor=4
                acc += i;
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    expectEnginesAgreeAtEveryLimit(interp, "kernel", {KernelArg::ofInt(40)},
                                   "runaway loop");
}

TEST(InterpDiff, StepLimitSweepCallsAndMidBlockTraps)
{
    // Calls inside a loop, and traps in the middle of a block: a
    // division by zero and an out-of-bounds read, each only reached on
    // a late iteration.
    auto tu = parse(R"(
        int scale(int v, int k) { return v * k + 1; }
        int pick(int a[4], int i) { return a[i & 3] - i; }
        int kernel(int a[4], int n, int d) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                acc += scale(a[i % 4], i) + pick(a, i);
                if (i == 2) { acc = acc / (d - i); }
                int t = acc % 5;
                acc = acc - t + a[i];
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    std::vector<long> a = {3, -1, 4, 2};
    expectEnginesAgreeAtEveryLimit(
        interp, "kernel",
        {KernelArg::ofInts(a), KernelArg::ofInt(9), KernelArg::ofInt(2)},
        "division by zero mid-block");
    expectEnginesAgreeAtEveryLimit(
        interp, "kernel",
        {KernelArg::ofInts(a), KernelArg::ofInt(9), KernelArg::ofInt(6)},
        "out-of-bounds read mid-block");
}

TEST(InterpDiff, StepLimitSweepSubjectKernel)
{
    const subjects::Subject *subject = nullptr;
    for (const auto &s : subjects::allSubjects()) {
        if (s.id == "P3")
            subject = &s;
    }
    ASSERT_NE(subject, nullptr);
    auto tu = parse(subject->source);
    cir::analyzeOrDie(*tu);
    const cir::FunctionDecl *kernel = tu->findFunction(subject->kernel);
    ASSERT_NE(kernel, nullptr);
    Interpreter interp(*tu);
    // ~2000 steps: nested loops over the input arrays.
    expectEnginesAgreeAtEveryLimit(interp, subject->kernel,
                                   argsFor(*kernel, 3), "P3");
}

// --- typed register ops at their wrap edges -------------------------------

TEST(InterpDiff, TypedOpsWrapIdentically)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int big = 2147483647;
            int over = big + 1;
            big += n;
            char c = 120;
            c = c + n;
            c += 10;
            char d = 127;
            d++;
            fpga_int<5> s = 15;
            s = s + 1;
            s += n;
            fpga_uint<5> u = 31;
            u++;
            u = u + n;
            int sh = 1;
            int wide = sh << 35;
            int neg = n - 20;
            int shr = neg >> 33;
            long l = 2147483647;
            l = l + 1;
            long m = l * 3;
            int back = l;
            int mix = back + l;
            int q = m / n;
            int r = m % (n + 1);
            for (int i = 2147483640; i > 0 && i < 2147483647; i++) {
                over += i;
            }
            return over + big + c + d + s + u + wide + shr + back + mix +
                   q + r;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    for (long n : {1L, 7L, 2147483647L, -5L})
        expectEnginesAgree(interp, "kernel", {KernelArg::ofInt(n)},
                           "wrap n=" + std::to_string(n));
    RunResult r = interp.run("kernel", {KernelArg::ofInt(1)});
    EXPECT_TRUE(r.ok) << r.trap;
}

TEST(InterpDiff, TrappingConditionsChargeIdentically)
{
    // A division or modulo by zero in a branch or loop condition, a
    // ternary condition and a compound assignment: the walker traps
    // before it charges the branch, so the VM must not charge it either.
    auto tu = parse(R"(
        int kernel(int x, int y, int which) {
            int r = 0;
            if (which == 0) { if (x % y) { r = 1; } }
            if (which == 1) { while (x / y) { x--; } }
            if (which == 2) { r = (x / y) ? 3 : 4; }
            if (which == 3) { x /= y; }
            if (which == 4) { x %= y; }
            for (int i = 0; i < 3; i++) {
                if (x % (y - i)) { r += i; }
            }
            return r + x;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    for (long which : {0L, 1L, 2L, 3L, 4L}) {
        std::vector<KernelArg> args = {KernelArg::ofInt(7),
                                       KernelArg::ofInt(0),
                                       KernelArg::ofInt(which)};
        std::string label = "zero divisor, case " + std::to_string(which);
        expectEnginesAgree(interp, "kernel", args, label);
        expectEnginesAgreeAtEveryLimit(interp, "kernel", args, label);
        RunResult r = interp.run("kernel", args);
        EXPECT_FALSE(r.ok) << label;
    }
    // y = 2: the loop's condition divides by zero on its third pass.
    std::vector<KernelArg> late = {KernelArg::ofInt(7), KernelArg::ofInt(2),
                                   KernelArg::ofInt(5)};
    expectEnginesAgree(interp, "kernel", late, "zero divisor in a loop");
    expectEnginesAgreeAtEveryLimit(interp, "kernel", late,
                                   "zero divisor in a loop");
    EXPECT_FALSE(interp.run("kernel", late).ok);
}

TEST(InterpDiff, HeapBudgetTrapsIdentically)
{
    // A malloc loop whose chunks each fit the per-allocation cap but
    // whose sum crosses the per-run budget traps at the same chunk, with
    // the same steps and cycles, on both engines. The budget is per run:
    // a second run on the same (reset) VM gets all of it back.
    auto tu = parse(R"(
        long kernel(int chunks, int cells) {
            long total = 0;
            for (int i = 0; i < chunks; i++) {
                int *p = (int *)malloc(sizeof(int) * cells);
                p[cells - 1] = i;
                total += p[cells - 1];
            }
            return total;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    const long quarter = Memory::kMaxRunCells / 4;
    std::vector<KernelArg> over = {KernelArg::ofInt(5),
                                   KernelArg::ofInt(quarter)};
    expectEnginesAgree(interp, "kernel", over, "heap budget");
    RunResult r = interp.run("kernel", over);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.trap, "interpreter heap exhausted");
    // Step limits around the trapping allocation (a full sweep would
    // fill the budget once per limit).
    for (uint64_t limit = r.steps - 2; limit <= r.steps + 1; ++limit) {
        for (unsigned sinks : {unsigned(kCoverage | kProfile | kLoops),
                               unsigned(kAllSinks)}) {
            expectSameObservation(
                observe(interp, "kernel", over, Side::Walker, limit, sinks),
                observe(interp, "kernel", over, Side::Vm, limit, sinks),
                "heap budget max_steps " + std::to_string(limit));
        }
    }

    std::vector<KernelArg> within = {KernelArg::ofInt(3),
                                     KernelArg::ofInt(quarter)};
    expectEnginesAgree(interp, "kernel", within, "within heap budget");
    r = interp.run("kernel", within);
    EXPECT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 3);
}

// --- 64-bit overflow: one defined answer on both engines ------------------

TEST(InterpDiff, DivisionOverflowTrapsIdentically)
{
    // LONG_MIN / -1 and LONG_MIN % -1 have no 64-bit result. Both engines
    // trap, at the point a zero divisor traps: through the generic ops
    // (m lives in memory, since &m pins it), the typed register ops
    // (x /= y is an IntStore, a[x / y] an IntLoadIndex) and a LONG_MIN
    // written in the source.
    auto tu = parse(R"(
        long kernel(long x, long y, int which) {
            long a[4];
            a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
            long m = x;
            long *p = &m;
            long r = 0;
            if (which == 0) { r = *p / y; }
            if (which == 1) { r = m % y; }
            if (which == 2) { x /= y; }
            if (which == 3) { x %= y; }
            if (which == 4) { r = a[x / y]; }
            if (which == 5) { long k = -9223372036854775807 - 1; r = k / -1; }
            return r + x;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    const char *want[] = {"integer division overflow",
                          "integer modulo overflow",
                          "integer division overflow",
                          "integer modulo overflow",
                          "integer division overflow",
                          "integer division overflow"};
    for (long which = 0; which < 6; ++which) {
        std::vector<KernelArg> args = {KernelArg::ofInt(LONG_MIN),
                                       KernelArg::ofInt(-1),
                                       KernelArg::ofInt(which)};
        std::string label = "LONG_MIN / -1, case " + std::to_string(which);
        expectEnginesAgree(interp, "kernel", args, label);
        expectEnginesAgreeAtEveryLimit(interp, "kernel", args, label);
        RunResult r = interp.run("kernel", args);
        EXPECT_FALSE(r.ok) << label;
        EXPECT_EQ(r.trap, want[which]) << label;
    }
    // One off the edge, every case divides normally.
    for (long which = 0; which < 5; ++which) {
        std::vector<KernelArg> args = {KernelArg::ofInt(LONG_MIN + 1),
                                       KernelArg::ofInt(-1),
                                       KernelArg::ofInt(which)};
        expectEnginesAgree(interp, "kernel", args,
                           "LONG_MIN + 1, case " + std::to_string(which));
    }
}

TEST(InterpDiff, ZeroSizePointerDifferenceTrapsIdentically)
{
    // A pointer parameter to a field-less struct gets a block of
    // zero-size elements; subtracting two such pointers has no count.
    auto tu = parse(R"(
        struct E { };
        int kernel(struct E *p, int n) {
            struct E *q = p + n;
            return q - p;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    std::vector<KernelArg> args = {KernelArg::ofInts({1, 2, 3}),
                                   KernelArg::ofInt(2)};
    expectEnginesAgree(interp, "kernel", args, "zero-size difference");
    EXPECT_EQ(interp.run("kernel", args).trap,
              "difference of pointers to zero-size elements");
}

TEST(InterpDiff, SignedOverflowWrapsOnBothEngines)
{
    // Signed 64-bit overflow wraps as two's complement on both engines:
    // on typed register ops, on generic ops over a memory cell (&m pins
    // m), in ++ / -- and compound assignment, unary minus and abs.
    auto tu = parse(R"(
        long kernel(long x, int which) {
            long m = x;
            long *p = &m;
            long v = x;
            if (which == 0) { return x + 1; }
            if (which == 1) { return *p + 1; }
            if (which == 2) { return x - 1; }
            if (which == 3) { return *p - 1; }
            if (which == 4) { return x * 2; }
            if (which == 5) { return *p * 2; }
            if (which == 6) { return -x; }
            if (which == 7) { return -m; }
            if (which == 8) { return abs(x); }
            if (which == 9) { v++; return v; }
            if (which == 10) { v--; return v; }
            if (which == 11) { m++; return m; }
            if (which == 12) { v += 1; return v; }
            if (which == 13) { m *= 2; return m; }
            return 0;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    struct Case
    {
        long which;
        long x;
        long want;
    };
    const Case cases[] = {
        {0, LONG_MAX, LONG_MIN},  {1, LONG_MAX, LONG_MIN},
        {2, LONG_MIN, LONG_MAX},  {3, LONG_MIN, LONG_MAX},
        {4, LONG_MAX, -2},        {5, LONG_MAX, -2},
        {6, LONG_MIN, LONG_MIN},  {7, LONG_MIN, LONG_MIN},
        {8, LONG_MIN, LONG_MIN},  {9, LONG_MAX, LONG_MIN},
        {10, LONG_MIN, LONG_MAX}, {11, LONG_MAX, LONG_MIN},
        {12, LONG_MAX, LONG_MIN}, {13, LONG_MAX, -2},
    };
    for (const Case &c : cases) {
        std::vector<KernelArg> args = {KernelArg::ofInt(c.x),
                                       KernelArg::ofInt(c.which)};
        std::string label = "wrap case " + std::to_string(c.which);
        expectEnginesAgree(interp, "kernel", args, label);
        for (Side side : {Side::Walker, Side::Vm}) {
            RunResult r = observe(interp, "kernel", args, side, 1000).result;
            EXPECT_TRUE(r.ok) << label << ": " << r.trap;
            EXPECT_EQ(r.ret, KernelArg::ofInt(c.want)) << label;
        }
    }
}

TEST(InterpDiff, FloatToIntConversionIsDefinedOnBothEngines)
{
    // A float stored into an integer cell truncates toward zero. NaN and
    // values outside long's range become LONG_MIN and then wrap to the
    // cell's width, on both engines and under every sink set: in a
    // declaration, an assignment, a scalar parameter and an out-array
    // cell read back as an integer.
    auto tu = parse(R"(
        long kernel(double d, int i, int which) {
            double inf = 1e308 * 10.0;
            double nan = inf - inf;
            if (which == 0) { int x = 1e30; return x; }
            if (which == 1) { long y = -1e30; return y; }
            if (which == 2) { char c = d; return c; }
            if (which == 3) { fpga_int<7> f = 0; f = d; return f; }
            if (which == 4) { return i; }
            if (which == 5) { long n = d; return n; }
            if (which == 6) { int z = nan; return z; }
            if (which == 7) { long n = nan; return n; }
            return 0;
        }
        void fill(double *a) {
            double inf = 1e308 * 10.0;
            a[0] = 1e30;
            a[1] = -7.9;
            a[2] = inf - inf;
            a[3] = 9223372036854775807.0;
            a[4] = 9223372036854774784.0;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    struct Case
    {
        long which;
        double d;
        double i;
        long want;
    };
    const Case cases[] = {
        {0, 0, 0, 0},
        {1, 0, 0, LONG_MIN},
        {2, 1e30, 0, 0},
        {2, 300.7, 0, 44},
        {3, 1e30, 0, 0},
        {3, 100.9, 0, -28},
        {4, 0, 1e30, 0},
        {4, 0, 3.7e9, -594967296},
        {4, 0, -2.5, -2},
        {5, 9.3e18, 0, LONG_MIN},
        {5, -9.5, 0, -9},
        {6, 0, 0, 0},
        {7, 0, 0, LONG_MIN},
    };
    for (const Case &c : cases) {
        std::vector<KernelArg> args = {KernelArg::ofFloat(c.d),
                                       KernelArg::ofFloat(c.i),
                                       KernelArg::ofInt(c.which)};
        std::string label = "conversion case " + std::to_string(c.which) +
                            " (" + std::to_string(c.d) + ", " +
                            std::to_string(c.i) + ")";
        expectEnginesAgree(interp, "kernel", args, label);
        for (unsigned sinks : kSinkSets) {
            for (Side side : {Side::Walker, Side::Vm}) {
                RunResult r =
                    observe(interp, "kernel", args, side, 1000, sinks).result;
                EXPECT_TRUE(r.ok) << label << ": " << r.trap;
                EXPECT_EQ(r.ret, KernelArg::ofInt(c.want)) << label;
            }
        }
    }

    // 9223372036854775807.0 rounds to 2^63, one past LONG_MAX; the
    // double below it is in range.
    std::vector<KernelArg> cells = {KernelArg::ofInts({0, 0, 0, 0, 0})};
    expectEnginesAgree(interp, "fill", cells, "out-array cells");
    for (unsigned sinks : kSinkSets) {
        for (Side side : {Side::Walker, Side::Vm}) {
            RunResult r = observe(interp, "fill", cells, side, 1000, sinks)
                              .result;
            ASSERT_TRUE(r.ok) << r.trap;
            EXPECT_EQ(r.out_args.at(0),
                      KernelArg::ofInts({LONG_MIN, -7, LONG_MIN, LONG_MIN,
                                         9223372036854774784L}));
        }
    }
}

// --- the differential runner's own reporting ------------------------------

TEST(InterpDiff, DifferentialEngineReportsFirstDivergingSite)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { acc += i; }
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);

    // Healthy engines: no divergence on any input.
    for (int n = 0; n <= 4; ++n) {
        auto clean = runDifferential(interp, "kernel", {KernelArg::ofInt(n)});
        EXPECT_TRUE(clean.result.ok);
        EXPECT_EQ(clean.divergence, "") << "n=" << n;
    }

    // Inject a single-opcode fault: the VM charges one extra cycle at
    // branch record #2. The harness must localize exactly that event.
    bytecode::testing::corrupt_branch_event = 2;
    auto hurt = runDifferential(interp, "kernel", {KernelArg::ofInt(4)});
    bytecode::testing::corrupt_branch_event = -1;

    EXPECT_TRUE(hurt.result.ok); // the reference side still succeeded
    ASSERT_NE(hurt.divergence, "");
    EXPECT_NE(hurt.divergence.find("branch event 2"), std::string::npos)
        << hurt.divergence;
    EXPECT_NE(hurt.divergence.find("cycle"), std::string::npos)
        << hurt.divergence;

    // The corruption is scoped to the hook: clean again afterwards.
    auto after = runDifferential(interp, "kernel", {KernelArg::ofInt(4)});
    EXPECT_EQ(after.divergence, "");
}

TEST(InterpDiff, DifferentialForwardsReferenceObservables)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += i; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);

    Observation walk = observe(interp, "kernel", {KernelArg::ofInt(5)},
                               Side::Walker, 100'000);
    Observation diff;
    RunOptions opts;
    opts.max_steps = 100'000;
    opts.coverage = &diff.coverage;
    opts.profile = &diff.profile;
    opts.loop_profile = &diff.loops;
    opts.branch_log = &diff.branch_log;
    auto both = runDifferential(interp, "kernel", {KernelArg::ofInt(5)},
                                opts);
    diff.result = both.result;

    EXPECT_TRUE(diff.result.ok);
    EXPECT_EQ(both.divergence, "");
    EXPECT_TRUE(diff.result.ret == walk.result.ret);
    EXPECT_EQ(diff.result.steps, walk.result.steps);
    EXPECT_EQ(diff.result.cycles, walk.result.cycles);
    EXPECT_TRUE(diff.coverage == walk.coverage);
    EXPECT_TRUE(diff.profile == walk.profile);
    EXPECT_TRUE(diff.loops == walk.loops);
    ASSERT_EQ(diff.branch_log.events.size(),
              walk.branch_log.events.size());
}

} // namespace
} // namespace heterogen::interp

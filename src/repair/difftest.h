/**
 * @file
 * Differential testing: CPU (original) versus FPGA co-simulation
 * (candidate) over a generated test suite — HeteroGen's fitness oracle.
 *
 * The CPU side depends only on the original program, its kernel and
 * the suite, never on the candidate, so one CpuOracle per job holds it:
 * profiling fills it while it runs the original over the suite, and
 * every campaign of the repair search reads it instead of running the
 * original again.
 *
 * Evaluation is embarrassingly parallel across test inputs: each test
 * runs the candidate with fresh interpreter state and writes a private
 * per-test record; the records are then reduced serially in input
 * order. Results are therefore byte-identical at any host thread
 * count (tests/test_parallel.cc asserts this). The candidate is
 * compiled once per campaign, the original once per oracle.
 */

#ifndef HETEROGEN_REPAIR_DIFFTEST_H
#define HETEROGEN_REPAIR_DIFFTEST_H

#include <optional>
#include <string>
#include <vector>

#include "cir/ast.h"
#include "fuzz/testsuite.h"
#include "hls/config.h"
#include "interp/interp.h"
#include "support/worker_pool.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::repair {

/**
 * The original program's behaviour on each suite case — the CPU half of
 * every difftest campaign over one (original, kernel, suite). A case is
 * run at most once per oracle: the first reader runs it and every later
 * reader gets the kept RunResult. Concurrent readers must ask for
 * distinct cases (a campaign's parallel map does). The original and
 * the suite must outlive the oracle.
 */
class CpuOracle
{
  public:
    CpuOracle(const cir::TranslationUnit &original, std::string kernel,
              const fuzz::TestSuite &suite);

    /**
     * Case `i`'s CPU result. The first call runs the original with the
     * default step limit, bumping interp.* on `ctx` and recording value
     * ranges into `profile` when given — profiling is the first reader
     * of every case; later calls return the kept result and leave
     * `ctx` and `profile` untouched.
     */
    const interp::RunResult &result(RunContext &ctx, size_t i,
                                    interp::ValueProfile *profile =
                                        nullptr);

    const cir::TranslationUnit &original() const { return interp_.tu(); }
    const std::string &kernel() const { return kernel_; }
    const fuzz::TestSuite &suite() const { return suite_; }

  private:
    interp::Interpreter interp_;
    std::string kernel_;
    const fuzz::TestSuite &suite_;
    std::vector<std::optional<interp::RunResult>> results_;
};

/** Knobs for one differential-testing campaign. */
struct DiffTestOptions
{
    /** Cap on tests executed (0 = whole suite). */
    int max_tests = 0;
    /**
     * Pool executing the tests on the host (nullptr = serial). Purely
     * an execution detail: results are invariant to the pool size.
     */
    WorkerPool *pool = nullptr;
};

/** Outcome of one differential-testing campaign. */
struct DiffTestResult
{
    /**
     * The co-simulation session itself failed (injected fault that
     * persisted through every retry): no test was executed and the
     * campaign says nothing about the candidate. Callers must branch
     * on this before interpreting pass counts — total is 0, so
     * passRatio() would otherwise read as a clean pass.
     */
    bool tool_failure = false;
    int total = 0;
    int identical = 0;
    /** Indices of tests with divergent behaviour. */
    std::vector<int> failing;
    /** Mean latency of the original kernel on the CPU model (ms). */
    double cpu_millis = 0;
    /** Mean latency of the candidate on the FPGA model (ms). */
    double fpga_millis = 0;
    /** Simulated wall-clock cost of running the campaign (minutes). */
    double sim_minutes = 0;

    double
    passRatio() const
    {
        return total == 0 ? 1.0
                          : static_cast<double>(identical) / total;
    }

    bool allIdentical() const { return identical == total; }
    /** Did the FPGA candidate beat the CPU original? */
    bool improved() const { return fpga_millis < cpu_millis; }
};

/**
 * Run the suite on both sides and compare input-output behaviour.
 * Charges the campaign's simulated minutes to the context's current
 * span, bumps difftest.campaigns / difftest.tests /
 * difftest.mismatches, and threads the context into the interpreter
 * runs (interp.* counters). The simulated cost counts the CPU steps of
 * every test whether the oracle ran it now or earlier, so it does not
 * depend on who filled the oracle.
 *
 * Also the "difftest.cosim" fault site: with a FaultPlan armed on the
 * context the whole campaign is gated through admitFaultSite (the
 * fault models the shared co-simulation session dying, not one test),
 * and a permanent failure returns a DiffTestResult with tool_failure
 * set and zero tests run.
 *
 * @param oracle    the original's behaviour on the suite (CPU side);
 *                  cases no one has run yet run here, on `ctx`
 * @param candidate the HLS candidate
 * @param config    toolchain config (top function, clock)
 * @param options   sampling cap, host pool
 */
DiffTestResult diffTest(RunContext &ctx, CpuOracle &oracle,
                        const cir::TranslationUnit &candidate,
                        const hls::HlsConfig &config,
                        const DiffTestOptions &options = {});

/** The same campaign on a fresh RunContext and a fresh oracle over
 * (original, original_kernel, suite), for one-off checks. */
DiffTestResult diffTest(const cir::TranslationUnit &original,
                        const std::string &original_kernel,
                        const cir::TranslationUnit &candidate,
                        const hls::HlsConfig &config,
                        const fuzz::TestSuite &suite,
                        const DiffTestOptions &options);

} // namespace heterogen::repair

#endif // HETEROGEN_REPAIR_DIFFTEST_H

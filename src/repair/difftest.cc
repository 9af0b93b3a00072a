#include "repair/difftest.h"

#include <algorithm>

#include "hls/fpga_model.h"
#include "interp/interp.h"
#include "support/run_context.h"

namespace heterogen::repair {

using interp::RunOptions;
using interp::RunResult;

namespace {

/** Private outcome of one test, reduced in input order afterwards. */
struct TestRecord
{
    bool identical = false;
    uint64_t steps = 0;
    double cpu_ms = 0;
    double fpga_ms = 0;
};

} // namespace

CpuOracle::CpuOracle(const cir::TranslationUnit &original,
                     std::string kernel, const fuzz::TestSuite &suite)
    : interp_(original), kernel_(std::move(kernel)), suite_(suite),
      results_(suite.size())
{
}

const RunResult &
CpuOracle::result(RunContext &ctx, size_t i, interp::ValueProfile *profile)
{
    std::optional<RunResult> &slot = results_.at(i);
    if (!slot) {
        RunOptions opts;
        opts.profile = profile;
        opts.trace = &ctx;
        slot = interp_.run(kernel_, suite_[i].args, opts);
    }
    return *slot;
}

DiffTestResult
diffTest(RunContext &ctx, CpuOracle &oracle,
         const cir::TranslationUnit &candidate,
         const hls::HlsConfig &config, const DiffTestOptions &options)
{
    DiffTestResult result;
    if (!admitFaultSite(ctx, "difftest.cosim")) {
        // The shared co-sim session never came up: no tests ran, no
        // campaign cost beyond what the faults already charged.
        result.tool_failure = true;
        return result;
    }
    const fuzz::TestSuite &suite = oracle.suite();
    int limit = options.max_tests > 0
                    ? std::min<int>(options.max_tests, int(suite.size()))
                    : int(suite.size());
    result.total = limit;

    // Map phase: every test is independent (fresh interpreter state per
    // run), writes only its own record and reads only its own oracle
    // case. The candidate is compiled once for the whole campaign.
    hls::FpgaDesign fpga_design(candidate);
    std::vector<TestRecord> records(static_cast<size_t>(limit));
    parallelForEach(options.pool, records.size(), [&](size_t i) {
        const fuzz::TestCase &test = suite[i];
        TestRecord &rec = records[i];
        const RunResult &cpu = oracle.result(ctx, i);
        RunOptions opts;
        opts.trace = &ctx;
        hls::FpgaRunResult fpga = hls::simulateFpga(
            fpga_design, config, config.top_function, test.args, opts);
        rec.steps = cpu.steps + fpga.run.steps;
        rec.cpu_ms = cpu.cpuMillis();
        rec.fpga_ms = fpga.millis;
        rec.identical = cpu.sameBehavior(fpga.run);
    });

    // Reduce phase, serial and in input order: float accumulation and
    // the failing list come out identical at any pool size.
    double cpu_total_ms = 0;
    double fpga_total_ms = 0;
    uint64_t steps = 0;
    for (int i = 0; i < limit; ++i) {
        const TestRecord &rec = records[i];
        steps += rec.steps;
        cpu_total_ms += rec.cpu_ms;
        fpga_total_ms += rec.fpga_ms;
        if (rec.identical)
            result.identical += 1;
        else
            result.failing.push_back(suite[i].id);
    }
    if (limit > 0) {
        result.cpu_millis = cpu_total_ms / limit;
        result.fpga_millis = fpga_total_ms / limit;
    }
    // One batched RTL co-simulation session: a fixed setup plus the
    // work of every test.
    result.sim_minutes = 0.2 + double(steps) / 5.0e6;

    // One charge for the whole campaign: the caller-visible cost is a
    // single number, so the span accumulates exactly what the
    // pre-spine code added to its own sim_minutes.
    ctx.charge(result.sim_minutes);
    ctx.count("difftest.campaigns");
    ctx.count("difftest.tests", result.total);
    ctx.count("difftest.mismatches",
              static_cast<int64_t>(result.failing.size()));
    return result;
}

DiffTestResult
diffTest(const cir::TranslationUnit &original,
         const std::string &original_kernel,
         const cir::TranslationUnit &candidate,
         const hls::HlsConfig &config, const fuzz::TestSuite &suite,
         const DiffTestOptions &options)
{
    RunContext ctx;
    CpuOracle oracle(original, original_kernel, suite);
    return diffTest(ctx, oracle, candidate, config, options);
}

} // namespace heterogen::repair

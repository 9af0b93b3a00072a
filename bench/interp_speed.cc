/**
 * @file
 * Interpreter throughput on the fuzz loop (docs/INTERP.md): the
 * bytecode VM against the reference tree walker.
 *
 * For every subject this bench builds the fuzzer's regression suite
 * once, then measures host-side kernel executions per second for the
 * walker and the VM over exactly the runs the fuzz loop performs
 * (coverage sink attached, fresh memory per run). It also times a whole
 * fuzz campaign on each (fuzzKernel on the default pool, the walker
 * plugged in as its runner) and exits non-zero unless the two return
 * the same suite, coverage, execution count and simulated minutes —
 * the timing compares equal work only while that holds.
 *
 * A last row times the forum corpus's runaway-loop post to the
 * interpreter's default 20 M-step cap in steps/second, with the value
 * profile its profiling run attaches and with the loop profile its
 * co-simulation runs attach.
 *
 * Writes BENCH_interp.json (override with --out <path>), with the host
 * it ran on, so the trajectory of the evaluate step is tracked across
 * changes.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "interp/interp.h"
#include "interp/reference/reference.h"
#include "subjects/subjects.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

struct SubjectRow
{
    std::string id;
    int suite_size = 0;
    double walk_execs_per_sec = 0;
    double vm_execs_per_sec = 0;
    double campaign_speedup = 0;

    double speedup() const { return vm_execs_per_sec / walk_execs_per_sec; }
};

/**
 * Executions/second of the fuzz loop's evaluate step: run the suite
 * round-robin on `run` until the wall budget elapses, with the coverage
 * sink the fuzzer feedback uses.
 */
double
measureExecsPerSec(const fuzz::Runner &run,
                   const std::string &kernel, const fuzz::TestSuite &suite,
                   double budget_seconds)
{
    interp::RunOptions opts;
    opts.max_steps = 400'000;

    // Warm-up: one pass over the suite (pays the bytecode compile).
    for (const auto &test : suite.cases()) {
        interp::CoverageMap cov;
        opts.coverage = &cov;
        run(kernel, test.args, opts);
    }

    long execs = 0;
    Clock::time_point begin = Clock::now();
    double elapsed = 0;
    while (elapsed < budget_seconds) {
        for (const auto &test : suite.cases()) {
            interp::CoverageMap cov;
            opts.coverage = &cov;
            run(kernel, test.args, opts);
            ++execs;
        }
        elapsed = seconds(begin, Clock::now());
    }
    return double(execs) / elapsed;
}

/** The two campaigns did the same work: same decisions, same clock. */
bool
sameCampaign(const fuzz::FuzzResult &walk, const fuzz::FuzzResult &vm)
{
    if (walk.suite.size() != vm.suite.size())
        return false;
    for (size_t i = 0; i < walk.suite.size(); ++i) {
        if (!(walk.suite[i].args == vm.suite[i].args))
            return false;
    }
    return walk.coverage == vm.coverage &&
           walk.executions == vm.executions &&
           walk.sim_minutes == vm.sim_minutes;
}

/** The forum corpus's runaway-loop post (LoopParallelization). */
const char *kRunawaySource = R"(
int kernel(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        #pragma HLS unroll factor=4
        acc += i;
    }
    return acc;
}
)";

/** Steps per second of one step-capped run of the runaway post. */
double
runawayStepsPerSec(const fuzz::Runner &run, bool loop_profile)
{
    interp::ValueProfile values;
    interp::LoopProfile loops;
    interp::RunOptions opts; // the default 20 M-step cap
    if (loop_profile)
        opts.loop_profile = &loops;
    else
        opts.profile = &values;
    Clock::time_point t0 = Clock::now();
    interp::RunResult r =
        run("kernel", {interp::KernelArg::ofInt(2147483647)}, opts);
    return double(r.steps) / seconds(t0, Clock::now());
}

double
geomean(const std::vector<SubjectRow> &rows,
        double (*field)(const SubjectRow &))
{
    double log_sum = 0;
    for (const auto &r : rows)
        log_sum += std::log(field(r));
    return std::exp(log_sum / double(rows.size()));
}

} // namespace
} // namespace heterogen

int
main(int argc, char **argv)
{
    using namespace heterogen;

    std::string out_path =
        bench::Flags(argc, argv, {"--out"}).value("--out",
                                                  "BENCH_interp.json");

    std::printf("Interpreter throughput on the fuzz loop\n");
    std::printf("%-4s %6s %14s %14s %8s %9s\n", "id", "suite",
                "tree_walk e/s", "bytecode e/s", "speedup", "campaign");

    WorkerPool pool;
    std::vector<SubjectRow> rows;
    for (const auto &subject : subjects::allSubjects()) {
        auto tu = cir::parse(subject.source);
        cir::analyzeOrDie(*tu);

        fuzz::FuzzOptions fuzz_opts;
        fuzz_opts.host_function = subject.host;
        fuzz_opts.rng_seed = subject.fuzz_seed;
        fuzz_opts.max_executions = 800;
        fuzz_opts.mutations_per_input = 12;
        fuzz_opts.max_steps_per_run = 400'000;

        interp::Interpreter interp(*tu);
        fuzz::Runner walker = [&](const std::string &fn,
                                  const std::vector<interp::KernelArg> &args,
                                  const interp::RunOptions &opts) {
            return interp::reference::runWalker(*tu, fn, args, opts);
        };
        fuzz::Runner vm = [&](const std::string &fn,
                              const std::vector<interp::KernelArg> &args,
                              const interp::RunOptions &opts) {
            return interp.run(fn, args, opts);
        };

        // Whole-campaign wall clock per engine (identical simulated work).
        RunContext walk_ctx;
        Clock::time_point t0 = Clock::now();
        fuzz::FuzzResult campaign = fuzz::fuzzKernel(
            walk_ctx, *tu, subject.kernel, fuzz_opts, &pool, walker);
        double walk_campaign = seconds(t0, Clock::now());

        RunContext vm_ctx;
        t0 = Clock::now();
        fuzz::FuzzResult vm_campaign_result =
            fuzz::fuzzKernel(vm_ctx, *tu, subject.kernel, fuzz_opts, &pool);
        double vm_campaign = seconds(t0, Clock::now());
        if (!sameCampaign(campaign, vm_campaign_result)) {
            std::fprintf(stderr,
                         "%s: walker and VM campaigns differ "
                         "(suite, coverage, executions or sim minutes)\n",
                         subject.id.c_str());
            return 1;
        }

        SubjectRow row;
        row.id = subject.id;
        row.suite_size = int(campaign.suite.size());
        row.campaign_speedup = walk_campaign / vm_campaign;

        row.walk_execs_per_sec =
            measureExecsPerSec(walker, subject.kernel, campaign.suite, 0.4);
        row.vm_execs_per_sec =
            measureExecsPerSec(vm, subject.kernel, campaign.suite, 0.4);

        std::printf("%-4s %6d %14.0f %14.0f %7.2fx %8.2fx\n",
                    row.id.c_str(), row.suite_size,
                    row.walk_execs_per_sec, row.vm_execs_per_sec,
                    row.speedup(), row.campaign_speedup);
        rows.push_back(row);
    }

    double exec_speedup =
        geomean(rows, [](const SubjectRow &r) { return r.speedup(); });
    double campaign_speedup = geomean(
        rows, [](const SubjectRow &r) { return r.campaign_speedup; });
    std::printf("geomean: %.2fx executions/sec, %.2fx whole campaign\n",
                exec_speedup, campaign_speedup);

    auto runaway = cir::parse(kRunawaySource);
    cir::analyzeOrDie(*runaway);
    interp::Interpreter runaway_interp(*runaway);
    fuzz::Runner runaway_walker =
        [&](const std::string &fn, const std::vector<interp::KernelArg> &args,
            const interp::RunOptions &opts) {
            return interp::reference::runWalker(*runaway, fn, args, opts);
        };
    fuzz::Runner runaway_vm =
        [&](const std::string &fn, const std::vector<interp::KernelArg> &args,
            const interp::RunOptions &opts) {
            return runaway_interp.run(fn, args, opts);
        };
    double walk_profile = runawayStepsPerSec(runaway_walker, false);
    double vm_profile = runawayStepsPerSec(runaway_vm, false);
    double walk_cosim = runawayStepsPerSec(runaway_walker, true);
    double vm_cosim = runawayStepsPerSec(runaway_vm, true);
    std::printf("runaway loop, 20 M steps (steps/s): value profile "
                "%.0f -> %.0f (%.2fx), loop profile %.0f -> %.0f "
                "(%.2fx)\n",
                walk_profile, vm_profile, vm_profile / walk_profile,
                walk_cosim, vm_cosim, vm_cosim / walk_cosim);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"interp_speed\",\n");
    std::fprintf(f, "  \"workload\": \"fuzz-loop executions/sec\",\n");
    std::fprintf(f, "  \"geomean_exec_speedup\": %.2f,\n", exec_speedup);
    std::fprintf(f, "  \"geomean_campaign_speedup\": %.2f,\n",
                 campaign_speedup);
    std::fprintf(f, "  %s,\n", bench::hostJson(HG_BUILD_TYPE).c_str());
    std::fprintf(f,
                 "  \"runaway_loop\": {\"max_steps\": 20000000, "
                 "\"tree_walk_profile_steps_per_sec\": %.0f, "
                 "\"bytecode_profile_steps_per_sec\": %.0f, "
                 "\"tree_walk_loop_profile_steps_per_sec\": %.0f, "
                 "\"bytecode_loop_profile_steps_per_sec\": %.0f},\n",
                 walk_profile, vm_profile, walk_cosim, vm_cosim);
    std::fprintf(f, "  \"subjects\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const SubjectRow &r = rows[i];
        std::fprintf(f,
                     "    {\"id\": \"%s\", \"suite\": %d, "
                     "\"tree_walk_execs_per_sec\": %.0f, "
                     "\"bytecode_execs_per_sec\": %.0f, "
                     "\"exec_speedup\": %.2f, "
                     "\"campaign_speedup\": %.2f}%s\n",
                     r.id.c_str(), r.suite_size, r.walk_execs_per_sec,
                     r.vm_execs_per_sec, r.speedup(), r.campaign_speedup,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

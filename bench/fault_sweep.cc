/**
 * @file
 * Fault-injection sweep: end-to-end pipeline success rate versus
 * injected toolchain fault rate, with the bounded-retry policy on and
 * off.
 *
 * Real HLS toolchains fail transiently (licence hiccups, co-simulation
 * timeouts); HeteroGen's repair loop must absorb those without
 * corrupting its search state. This bench injects transient faults at
 * the hls.compile and difftest.cosim sites at a range of per-invocation
 * rates and replays the same pipeline across many fault-plan seeds —
 * the pipeline seeds stay fixed, so every run attempts the identical
 * repair and only the injected failures differ. With retries enabled a
 * run fails only when one site faults max_attempts times in a row;
 * with retries disabled a single fault anywhere permanently degrades
 * the run. The gap between the two curves is the value of the retry
 * policy, and the simulated-minutes column prices what the retries
 * cost.
 *
 * Ends with one machine-readable JSON line for dashboard scraping.
 */

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "support/faults.h"
#include "support/run_context.h"

using namespace heterogen;

namespace {

/** One (rate, retry-mode) cell aggregated over the plan seeds. */
struct Cell
{
    int ok_runs = 0;
    int degraded_runs = 0;
    double total_minutes = 0;
    long faults_injected = 0;
    long retries = 0;
    long gave_up = 0;
};

core::HeteroGenOptions
sweepOptions(const subjects::Subject &subject)
{
    // The standard evaluation configuration, trimmed so a 200-run
    // sweep finishes in seconds: the fuzzing campaign is capped well
    // past suite saturation for these kernels, and the repair budget
    // is generous enough that fault latency never becomes the
    // stopping reason (which would conflate budget pressure with
    // fault pressure).
    core::HeteroGenOptions opts = bench::standardOptions(subject);
    opts.fuzz.max_executions = 400;
    opts.fuzz.budget_minutes = 0; // unlimited; max_executions caps it
    opts.search.budget_minutes = 100000.0;
    return opts;
}

Cell
runCell(const core::HeteroGen &engine,
        const core::HeteroGenOptions &base, double rate, bool retries,
        int seeds)
{
    Cell cell;
    for (int seed = 1; seed <= seeds; ++seed) {
        core::HeteroGenOptions opts = base;
        if (rate > 0) {
            FaultRule rule;
            rule.probability = rate;
            rule.kind = FaultKind::Transient;
            opts.faults.seed = uint64_t(seed);
            rule.site = "hls.compile";
            opts.faults.rules.push_back(rule);
            rule.site = "difftest.cosim";
            opts.faults.rules.push_back(rule);
        }
        if (retries) {
            opts.retry.max_attempts = 4;
            opts.retry.backoff_minutes = 0.5;
            opts.retry.backoff_factor = 2.0;
        } else {
            opts.retry = RetryPolicy::none();
        }
        RunContext ctx;
        core::HeteroGenReport report = engine.run(ctx, opts);
        cell.ok_runs += report.ok();
        cell.degraded_runs += report.degraded();
        cell.total_minutes += report.total_minutes;
        const TraceSpan &root = ctx.trace().root();
        cell.faults_injected += root.counterTotal("fault.injected");
        cell.retries += root.counterTotal("fault.retries");
        cell.gave_up += root.counterTotal("fault.gave_up");
    }
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv, {"--trace-out"});
    bench::TraceWriter traces(flags.value("--trace-out"));

    const subjects::Subject &subject = subjects::subjectById("P9");
    const double kRates[] = {0.0, 0.05, 0.1, 0.2, 0.3};
    const int kNumRates = 5;
    const int kSeeds = 20;

    core::HeteroGen engine(subject.source);
    core::HeteroGenOptions base = sweepOptions(subject);

    // Fault-free reference run: the artifact every faulty-but-ok run
    // must reproduce, and the baseline for the overhead column.
    RunContext base_ctx;
    core::HeteroGenReport clean = engine.run(base_ctx, base);
    traces.add("fault_sweep/clean", clean.trace_json);
    std::printf("Fault-injection sweep, subject %s (%s)\n", subject.id.c_str(),
                subject.name.c_str());
    std::printf("fault-free run: ok=%s  %.1f simulated minutes\n\n",
                bench::mark(clean.ok()), clean.total_minutes);
    std::printf("%d fault-plan seeds per cell; transient faults at "
                "hls.compile + difftest.cosim\n\n",
                kSeeds);

    std::printf("%-6s | %-28s | %-28s\n", "", "retries on (4 attempts)",
                "retries off");
    std::printf("%-6s | %9s %9s %8s | %9s %9s %8s\n", "rate", "success",
                "mean min", "faults", "success", "mean min", "faults");

    Cell on[kNumRates], off[kNumRates];
    for (int r = 0; r < kNumRates; ++r) {
        on[r] = runCell(engine, base, kRates[r], true, kSeeds);
        off[r] = runCell(engine, base, kRates[r], false, kSeeds);
        std::printf("%-6.2f | %8.0f%% %9.1f %8ld | %8.0f%% %9.1f %8ld\n",
                    kRates[r], 100.0 * on[r].ok_runs / kSeeds,
                    on[r].total_minutes / kSeeds, on[r].faults_injected,
                    100.0 * off[r].ok_runs / kSeeds,
                    off[r].total_minutes / kSeeds,
                    off[r].faults_injected);
    }

    // Headline numbers: the 10%-rate cell the acceptance bar names.
    double ok10_on = 100.0 * on[2].ok_runs / kSeeds;
    double ok10_off = 100.0 * off[2].ok_runs / kSeeds;
    double overhead10 =
        on[2].total_minutes / kSeeds / clean.total_minutes - 1.0;
    std::printf("\nat 10%% fault rate: %.0f%% success with retries vs "
                "%.0f%% without (+%.1f%% simulated-minute overhead)\n",
                ok10_on, ok10_off, 100.0 * overhead10);

    std::string ok_on_json, ok_off_json, minutes_on_json;
    for (int r = 0; r < kNumRates; ++r) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\"%.2f\":%.2f",
                      r ? "," : "", kRates[r],
                      double(on[r].ok_runs) / kSeeds);
        ok_on_json += buf;
        std::snprintf(buf, sizeof buf, "%s\"%.2f\":%.2f",
                      r ? "," : "", kRates[r],
                      double(off[r].ok_runs) / kSeeds);
        ok_off_json += buf;
        std::snprintf(buf, sizeof buf, "%s\"%.2f\":%.1f",
                      r ? "," : "", kRates[r],
                      on[r].total_minutes / kSeeds);
        minutes_on_json += buf;
    }
    std::printf("\n{\"bench\":\"fault_sweep\",\"subject\":\"%s\","
                "\"seeds\":%d,"
                "\"success_retry_on\":{%s},"
                "\"success_retry_off\":{%s},"
                "\"mean_minutes_retry_on\":{%s},"
                "\"clean_minutes\":%.1f,"
                "\"retries_at_10pct\":%ld,\"gave_up_at_10pct\":%ld}\n",
                subject.id.c_str(), kSeeds, ok_on_json.c_str(),
                ok_off_json.c_str(), minutes_on_json.c_str(),
                clean.total_minutes, on[2].retries, on[2].gave_up);
    return 0;
}

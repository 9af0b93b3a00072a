/**
 * @file
 * Conversion-service throughput on a replayed multi-tenant schedule.
 *
 * Builds a fixed schedule of hundreds of jobs — all ten subjects
 * cycling over seeds, four tenants with different fair-share weights,
 * mixed priorities, arrivals packed tightly enough that the backlog
 * holds most of the schedule at once — drains it, and reports the
 * scheduler-level numbers a capacity plan needs: p50/p99 job latency,
 * tenant fairness (max/min weighted share), preemption counts, and
 * jobs per simulated hour. Everything reported is in simulated time,
 * so the JSON baseline is machine-independent and diffs across PRs
 * track scheduler-policy changes, not host noise.
 *
 * Writes BENCH_service.json (override with --out <path>). The schedule
 * is fixed: 240 jobs on 8 slots, no injected faults.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "service/service.h"

namespace heterogen {
namespace {

constexpr int kJobs = 240;
constexpr int kSlots = 8;

/** The standard per-subject configuration trimmed so a several-hundred
 * job schedule drains in seconds of host time. Simulated durations
 * stay in the tens of minutes, which is what the schedule needs. */
core::HeteroGenOptions
jobOptions(const subjects::Subject &subject, int seed)
{
    core::HeteroGenOptions opts = bench::standardOptions(subject);
    opts.fuzz.rng_seed = subject.fuzz_seed * 1000 + seed;
    opts.fuzz.max_executions = 150;
    opts.fuzz.mutations_per_input = 8;
    opts.fuzz.max_steps_per_run = 60000;
    opts.fuzz.min_suite_size = 12;
    opts.search.budget_minutes = 90.0;
    opts.search.max_iterations = 60;
    opts.search.difftest_sample = 6;
    opts.search.rng_seed = opts.fuzz.rng_seed * 31 + 7;
    return opts;
}

/** Four tenants with distinct fair-share weights. */
std::vector<service::TenantSpec>
benchTenants()
{
    return {
        {"bronze", 1e12, 1.0},
        {"silver", 1e12, 1.0},
        {"gold", 1e12, 2.0},
        {"platinum", 1e12, 4.0},
    };
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(p * double(sorted.size() - 1));
    return sorted[idx];
}

} // namespace
} // namespace heterogen

int
main(int argc, char **argv)
{
    using namespace heterogen;
    using Clock = std::chrono::steady_clock;

    std::string out =
        bench::Flags(argc, argv, {"--out"})
            .value("--out", "BENCH_service.json");
    const auto &subjects = subjects::allSubjects();
    std::vector<service::TenantSpec> tenants = benchTenants();

    service::ServiceOptions so;
    so.slots = kSlots;
    so.eval_threads = 2;
    so.tenants = tenants;
    service::ConversionService svc(so);

    // Fixed schedule: subjects cycle, tenants cycle out of phase with
    // the subjects, priorities cycle low/normal/high, and arrivals are
    // packed tightly enough (a few sim minutes of spacing across runs
    // lasting tens of minutes) that most of the schedule is in the
    // system at once.
    std::vector<int> ids;
    for (int i = 0; i < kJobs; ++i) {
        const subjects::Subject &subject =
            subjects[i % subjects.size()];
        service::JobSpec spec;
        spec.tenant = tenants[i % tenants.size()].id;
        spec.priority = static_cast<service::Priority>(i % 3);
        spec.arrival_minutes = 0.02 * i;
        spec.source = subject.source;
        spec.options = jobOptions(subject, i / int(subjects.size()));
        ids.push_back(svc.submit(spec));
    }

    Clock::time_point begin = Clock::now();
    svc.drain();
    double wall_seconds =
        std::chrono::duration<double>(Clock::now() - begin).count();

    service::SchedulerStats stats = svc.stats();

    // Per-job latency (arrival to terminal state, simulated minutes)
    // and the peak number of jobs in the system (arrived, not yet
    // terminal) — the backlog the scheduler actually sustained.
    std::vector<double> latencies;
    std::vector<std::pair<double, int>> events;
    for (int id : ids) {
        service::JobStatus s = svc.poll(id);
        latencies.push_back(s.finish_minutes - s.arrival_minutes);
        events.push_back({s.arrival_minutes, +1});
        events.push_back({s.finish_minutes, -1});
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    int in_system = 0, peak_in_system = 0;
    for (const auto &[t, delta] : events) {
        in_system += delta;
        peak_in_system = std::max(peak_in_system, in_system);
    }
    std::sort(latencies.begin(), latencies.end());
    double p50 = percentile(latencies, 0.50);
    double p99 = percentile(latencies, 0.99);
    double jobs_per_hour =
        stats.sim_minutes > 0
            ? 60.0 * double(stats.jobs_completed) / stats.sim_minutes
            : 0;

    // Weighted fairness while the backlog is contended: each tenant's
    // slot occupancy inside the first half of the makespan (when every
    // tenant still has queued work) per unit weight, max over min
    // across tenants. 1.0 = perfectly weight-proportional service.
    // Total consumed minutes would not do here — once every job
    // completes they are fixed by the workload, not the scheduler.
    double window = stats.sim_minutes / 2;
    std::map<std::string, double> early_minutes;
    for (int id : ids) {
        service::JobStatus s = svc.poll(id);
        if (s.start_minutes < 0)
            continue;
        double overlap = std::min(s.finish_minutes, window) -
                         std::max(s.start_minutes, 0.0);
        if (overlap > 0)
            early_minutes[s.tenant] += overlap;
    }
    double min_share = 0, max_share = 0;
    bool first = true;
    for (const service::TenantSpec &spec : tenants) {
        double share = early_minutes[spec.id] / spec.weight;
        if (first || share < min_share)
            min_share = share;
        if (first || share > max_share)
            max_share = share;
        first = false;
    }
    double fairness = min_share > 0 ? max_share / min_share : 0;

    std::printf("service_throughput: %d jobs, %d slots\n", kJobs, kSlots);
    std::printf("  drained in %.1f host seconds\n", wall_seconds);
    std::printf("  sim makespan        %10.1f min\n", stats.sim_minutes);
    std::printf("  peak in system      %10d jobs\n", peak_in_system);
    std::printf("  peak running        %10d jobs\n", stats.max_in_flight);
    std::printf("  completed/cancelled/failed  %d/%d/%d\n",
                stats.jobs_completed, stats.jobs_cancelled,
                stats.jobs_failed);
    std::printf("  latency p50 / p99   %10.1f / %.1f min\n", p50, p99);
    std::printf("  throughput          %10.1f jobs/sim-hour\n",
                jobs_per_hour);
    std::printf("  preemptions         %10d\n", stats.preemptions);
    std::printf("  fairness max/min    %10.2f\n", fairness);

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"service_throughput\",\n");
    std::fprintf(f,
                 "  \"workload\": \"replayed multi-tenant schedule, "
                 "all subjects\",\n");
    std::fprintf(f, "  \"jobs\": %d,\n", kJobs);
    std::fprintf(f, "  \"slots\": %d,\n", kSlots);
    std::fprintf(f, "  \"fault_rate\": 0,\n");
    std::fprintf(f, "  \"sim_makespan_minutes\": %.2f,\n",
                 stats.sim_minutes);
    std::fprintf(f, "  \"peak_in_system\": %d,\n", peak_in_system);
    std::fprintf(f, "  \"peak_running\": %d,\n", stats.max_in_flight);
    std::fprintf(f, "  \"completed\": %d,\n", stats.jobs_completed);
    std::fprintf(f, "  \"cancelled\": %d,\n", stats.jobs_cancelled);
    std::fprintf(f, "  \"failed\": %d,\n", stats.jobs_failed);
    std::fprintf(f, "  \"p50_latency_minutes\": %.2f,\n", p50);
    std::fprintf(f, "  \"p99_latency_minutes\": %.2f,\n", p99);
    std::fprintf(f, "  \"jobs_per_sim_hour\": %.2f,\n", jobs_per_hour);
    std::fprintf(f, "  \"preemptions\": %d,\n", stats.preemptions);
    std::fprintf(f, "  \"fairness_window_minutes\": %.2f,\n", window);
    std::fprintf(f, "  \"fairness_max_min_share\": %.3f,\n", fairness);
    std::fprintf(f, "  \"tenants\": [\n");
    for (size_t i = 0; i < stats.tenants.size(); ++i) {
        const service::TenantStats &t = stats.tenants[i];
        double weight = 1.0;
        for (const service::TenantSpec &spec : tenants)
            if (spec.id == t.id)
                weight = spec.weight;
        std::fprintf(f,
                     "    {\"id\": \"%s\", \"weight\": %g, "
                     "\"jobs\": %d, \"consumed_minutes\": %.2f, "
                     "\"share\": %.2f}%s\n",
                     t.id.c_str(), weight, t.jobs_submitted,
                     t.consumed_minutes, t.consumed_minutes / weight,
                     i + 1 < stats.tenants.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
}

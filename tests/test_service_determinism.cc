/** @file The service's determinism contract: the same submission set
 * produces bit-identical per-job reports, schedules and traces at any
 * host thread count, and per-job reports that are invariant even under
 * different slot counts. Also the multi-worker stress test the tsan CI
 * job runs to hunt data races in the shared-pool plumbing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "service/service.h"

namespace heterogen::service {
namespace {

const char *kScaleSource = R"(
int scale(int x, int y) {
    long double acc = 0.299L * x + 0.587L * y;
    long double bias = acc * 0.125L + 1.0L;
    return bias;
}
)";

const char *kSumSource = R"(
int sum(int a[16], int n) {
    if (n < 0) { n = 0; }
    if (n > 16) { n = 16; }
    long double acc = 0.0L;
    for (int i = 0; i < n; i++) {
        acc = acc + a[i] * 0.5L + 1.0L;
    }
    return acc;
}
)";

core::HeteroGenOptions
fastOptions(const std::string &kernel, uint64_t seed)
{
    core::HeteroGenOptions opts;
    opts.kernel = kernel;
    opts.fuzz.rng_seed = seed;
    opts.fuzz.max_executions = 80;
    opts.fuzz.mutations_per_input = 4;
    opts.fuzz.min_suite_size = 8;
    opts.fuzz.budget_minutes = 30;
    opts.fuzz.plateau_minutes = 10;
    opts.fuzz.max_steps_per_run = 100000;
    opts.search.budget_minutes = 60;
    opts.search.max_iterations = 40;
    opts.search.difftest_sample = 4;
    opts.search.rng_seed = seed * 31 + 7;
    return opts;
}

/** A mixed schedule: two tenants (one quota'd), three priorities,
 * staggered arrivals, one scheduled mid-run cancel. */
std::vector<JobSpec>
mixedSchedule()
{
    std::vector<JobSpec> specs;
    for (int i = 0; i < 10; ++i) {
        JobSpec spec;
        spec.tenant = (i % 2 == 0) ? "alpha" : "beta";
        spec.priority = static_cast<Priority>(i % 3);
        spec.arrival_minutes = 0.4 * i;
        bool loopy = i % 3 == 0;
        spec.source = loopy ? kSumSource : kScaleSource;
        spec.options =
            fastOptions(loopy ? "sum" : "scale", 1 + i);
        if (i == 4)
            spec.cancel_at_minutes = spec.arrival_minutes + 1.5;
        specs.push_back(spec);
    }
    return specs;
}

ServiceOptions
schedulerOptions(int slots, int host_threads)
{
    ServiceOptions o;
    o.slots = slots;
    o.host_threads = host_threads;
    o.eval_threads = 2;
    o.tenants.push_back({"alpha", 1e9, 1.0});
    o.tenants.push_back({"beta", 25.0, 2.0});
    return o;
}

struct RunRecord
{
    std::vector<JobStatus> statuses;
    std::vector<std::string> traces;
    std::vector<std::string> sources;
    std::vector<double> total_minutes;
    SchedulerStats stats;
};

RunRecord
replay(const ServiceOptions &options)
{
    ConversionService svc(options);
    std::vector<int> ids;
    for (const JobSpec &spec : mixedSchedule())
        ids.push_back(svc.submit(spec));
    svc.drain();
    RunRecord rec;
    for (int id : ids) {
        const JobOutcome &out = svc.collect(id);
        rec.statuses.push_back(out.status);
        rec.traces.push_back(out.trace_json);
        rec.sources.push_back(out.has_report ? out.report.hls_source
                                             : "");
        rec.total_minutes.push_back(
            out.has_report ? out.report.total_minutes : -1);
    }
    rec.stats = svc.stats();
    return rec;
}

void
expectIdentical(const RunRecord &a, const RunRecord &b,
                const std::string &what)
{
    ASSERT_EQ(a.statuses.size(), b.statuses.size());
    for (size_t i = 0; i < a.statuses.size(); ++i) {
        SCOPED_TRACE(what + ", job " + std::to_string(i));
        const JobStatus &sa = a.statuses[i], &sb = b.statuses[i];
        EXPECT_EQ(sa.state, sb.state);
        EXPECT_EQ(sa.stop_reason, sb.stop_reason);
        EXPECT_EQ(sa.stage, sb.stage);
        EXPECT_EQ(sa.start_minutes, sb.start_minutes);
        EXPECT_EQ(sa.finish_minutes, sb.finish_minutes);
        EXPECT_EQ(sa.preemptions, sb.preemptions);
        EXPECT_EQ(a.traces[i], b.traces[i]) << "trace drift";
        EXPECT_EQ(a.sources[i], b.sources[i]);
        EXPECT_EQ(a.total_minutes[i], b.total_minutes[i]);
    }
    EXPECT_EQ(a.stats.sim_minutes, b.stats.sim_minutes);
    EXPECT_EQ(a.stats.preemptions, b.stats.preemptions);
    EXPECT_EQ(a.stats.max_in_flight, b.stats.max_in_flight);
    ASSERT_EQ(a.stats.tenants.size(), b.stats.tenants.size());
    for (size_t i = 0; i < a.stats.tenants.size(); ++i) {
        EXPECT_EQ(a.stats.tenants[i].consumed_minutes,
                  b.stats.tenants[i].consumed_minutes);
    }
}

TEST(ServiceDeterminism, HostThreadCountNeverChangesTheSchedule)
{
    RunRecord one = replay(schedulerOptions(2, 1));
    RunRecord two = replay(schedulerOptions(2, 2));
    RunRecord eight = replay(schedulerOptions(2, 8));
    expectIdentical(one, two, "host_threads 1 vs 2");
    expectIdentical(one, eight, "host_threads 1 vs 8");
    // The schedule did real scheduling: queueing and the scheduled
    // cancel both happened.
    EXPECT_EQ(one.stats.max_in_flight, 2);
    int cancelled = 0;
    for (const JobStatus &s : one.statuses)
        cancelled += s.state == JobState::Cancelled;
    EXPECT_GE(cancelled, 1);
}

TEST(ServiceDeterminism, ReportsAreSlotCountInvariant)
{
    // Slot counts legitimately change *when* jobs run; with no quotas,
    // cancels or preemption pressure they must not change what any job
    // *produces* — each report and trace is a function of the job spec
    // alone.
    auto run = [](int slots) {
        ServiceOptions o;
        o.slots = slots;
        o.eval_threads = 2;
        ConversionService svc(o);
        std::vector<int> ids;
        for (int i = 0; i < 6; ++i) {
            JobSpec spec;
            spec.tenant = "acme";
            spec.arrival_minutes = 0;
            bool loopy = i % 2 == 0;
            spec.source = loopy ? kSumSource : kScaleSource;
            spec.options =
                fastOptions(loopy ? "sum" : "scale", 1 + i);
            ids.push_back(svc.submit(spec));
        }
        svc.drain();
        std::vector<std::string> traces;
        for (int id : ids)
            traces.push_back(svc.collect(id).trace_json);
        return traces;
    };
    std::vector<std::string> one = run(1);
    std::vector<std::string> two = run(2);
    std::vector<std::string> eight = run(8);
    for (size_t i = 0; i < one.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_FALSE(one[i].empty());
        EXPECT_EQ(one[i], two[i]);
        EXPECT_EQ(one[i], eight[i]);
    }
}

TEST(ServiceDeterminism, RepeatedReplayIsBitIdentical)
{
    RunRecord a = replay(schedulerOptions(3, 4));
    RunRecord b = replay(schedulerOptions(3, 4));
    expectIdentical(a, b, "replay twice");
}

/** The tsan CI job runs this: many slots, many host threads, a shared
 * eval pool, and concurrent poll()/cancel() traffic from outside. */
TEST(ServiceStress, MultiWorkerDrainWithLivePollers)
{
    ServiceOptions o;
    o.slots = 8;
    o.host_threads = 8;
    o.eval_threads = 4;
    ConversionService svc(o);
    std::vector<int> ids;
    for (int i = 0; i < 24; ++i) {
        JobSpec spec;
        spec.tenant = "t" + std::to_string(i % 3);
        spec.priority = static_cast<Priority>(i % 3);
        spec.arrival_minutes = 0.1 * i;
        spec.source = (i % 2 == 0) ? kSumSource : kScaleSource;
        spec.options =
            fastOptions(i % 2 == 0 ? "sum" : "scale", 1 + i);
        ids.push_back(svc.submit(spec));
    }

    std::atomic<bool> done{false};
    std::thread poller([&] {
        while (!done.load()) {
            for (int id : ids)
                (void)svc.poll(id);
            (void)svc.stats();
            (void)svc.simNow();
            std::this_thread::yield();
        }
    });
    std::thread canceller([&] {
        // Live-cancel a few jobs while the drain runs.
        svc.cancel(ids[5]);
        svc.cancel(ids[11]);
        svc.cancel(ids[17]);
    });
    svc.drain();
    done.store(true);
    poller.join();
    canceller.join();

    SchedulerStats stats = svc.stats();
    EXPECT_EQ(stats.jobs_submitted, 24);
    EXPECT_EQ(stats.jobs_completed + stats.jobs_cancelled +
                  stats.jobs_failed,
              24);
    EXPECT_EQ(stats.jobs_failed, 0);
    for (int id : ids)
        EXPECT_NO_THROW(svc.collect(id));
}

} // namespace
} // namespace heterogen::service

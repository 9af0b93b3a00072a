/** @file Conversion-service scheduler tests: option/spec validation,
 * job lifecycle, priority + fair-share dispatch, preemption, tenant
 * quotas, and scheduled/live cancellation (including mid-pipeline
 * cancellation stopping promptly without leaking slots).
 */

#include <gtest/gtest.h>

#include <thread>

#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "interp/interp.h"
#include "service/service.h"
#include "support/diagnostics.h"
#include "support/trace.h"

namespace heterogen::service {
namespace {

/** Tiny arithmetic kernel: parses, repairs, and difftests quickly. The
 * long double accumulator guarantees the repair search has real work. */
const char *kTinySource = R"(
int scale(int x, int y) {
    long double acc = 0.299L * x + 0.587L * y;
    long double bias = acc * 0.125L + 1.0L;
    return bias;
}
)";

/** A loopy kernel whose fuzzing campaign runs long enough in simulated
 * minutes that arrivals and scheduled cancels can land mid-run. */
const char *kLoopSource = R"(
int sum(int a[32], int n) {
    if (n < 0) { n = 0; }
    if (n > 32) { n = 32; }
    long double acc = 0.0L;
    for (int i = 0; i < n; i++) {
        acc = acc + a[i] * 0.5L + 1.0L;
    }
    return acc;
}
)";

core::HeteroGenOptions
tinyOptions(uint64_t seed = 1)
{
    core::HeteroGenOptions opts;
    opts.kernel = "scale";
    opts.fuzz.rng_seed = seed;
    opts.fuzz.max_executions = 60;
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

core::HeteroGenOptions
loopOptions(uint64_t seed = 1)
{
    core::HeteroGenOptions opts = tinyOptions(seed);
    opts.kernel = "sum";
    opts.fuzz.max_executions = 600;
    opts.fuzz.mutations_per_input = 8;
    return opts;
}

JobSpec
tinyJob(const std::string &tenant, double arrival = 0,
        Priority priority = Priority::Normal, uint64_t seed = 1)
{
    JobSpec spec;
    spec.tenant = tenant;
    spec.priority = priority;
    spec.arrival_minutes = arrival;
    spec.source = kTinySource;
    spec.options = tinyOptions(seed);
    return spec;
}

JobSpec
loopJob(const std::string &tenant, double arrival = 0,
        Priority priority = Priority::Normal, uint64_t seed = 1)
{
    JobSpec spec = tinyJob(tenant, arrival, priority, seed);
    spec.source = kLoopSource;
    spec.options = loopOptions(seed);
    return spec;
}

/** Simulated minutes one uncancelled run of `spec` takes. */
double
soloDuration(const JobSpec &spec)
{
    ServiceOptions so;
    so.slots = 1;
    ConversionService svc(so);
    JobSpec copy = spec;
    copy.arrival_minutes = 0;
    copy.cancel_at_minutes = -1;
    int id = svc.submit(copy);
    svc.drain();
    const JobOutcome &out = svc.collect(id);
    EXPECT_EQ(out.status.state, JobState::Completed);
    return out.status.finish_minutes - out.status.start_minutes;
}

// ---------------------------------------------------------------------
// Validation diagnostics.

TEST(ServiceValidation, RejectsBadSchedulerOptions)
{
    ServiceOptions o;
    o.slots = 0;
    EXPECT_THROW(validateServiceOptions(o), FatalError);
    o = {};
    o.host_threads = -1;
    EXPECT_THROW(validateServiceOptions(o), FatalError);
    o = {};
    o.eval_threads = 0;
    EXPECT_THROW(validateServiceOptions(o), FatalError);
}

TEST(ServiceValidation, RejectsNonpositiveTenantQuota)
{
    ServiceOptions o;
    o.tenants.push_back({"acme", 0.0, 1.0});
    EXPECT_THROW(validateServiceOptions(o), FatalError);
    o.tenants[0].quota_minutes = -5;
    EXPECT_THROW(validateServiceOptions(o), FatalError);
    o.tenants[0].quota_minutes = 10;
    validateServiceOptions(o); // positive quota is fine
}

TEST(ServiceValidation, RejectsBadTenantSpecs)
{
    ServiceOptions o;
    o.tenants.push_back({"", 10.0, 1.0});
    EXPECT_THROW(validateServiceOptions(o), FatalError);
    o.tenants[0].id = "acme";
    o.tenants[0].weight = 0;
    EXPECT_THROW(validateServiceOptions(o), FatalError);
    o.tenants[0].weight = 1;
    o.tenants.push_back({"acme", 10.0, 1.0});
    EXPECT_THROW(validateServiceOptions(o), FatalError);
}

TEST(ServiceValidation, RejectsUnknownPriorityNames)
{
    EXPECT_EQ(parsePriority("high"), Priority::High);
    EXPECT_EQ(parsePriority("NORMAL"), Priority::Normal);
    EXPECT_EQ(parsePriority("Low"), Priority::Low);
    EXPECT_FALSE(parsePriority("urgent").has_value());
    EXPECT_FALSE(parsePriority("").has_value());
}

TEST(ServiceValidation, RejectsMalformedJobSpecs)
{
    JobSpec spec = tinyJob("acme");
    validateJobSpec(spec); // baseline is valid

    JobSpec bad = spec;
    bad.tenant.clear();
    EXPECT_THROW(validateJobSpec(bad), FatalError);

    bad = spec;
    bad.source.clear();
    EXPECT_THROW(validateJobSpec(bad), FatalError);

    bad = spec;
    bad.arrival_minutes = -1;
    EXPECT_THROW(validateJobSpec(bad), FatalError);

    bad = spec;
    bad.arrival_minutes = 10;
    bad.cancel_at_minutes = 5; // cancel before arrival
    EXPECT_THROW(validateJobSpec(bad), FatalError);

    bad = spec;
    bad.options.kernel.clear(); // core::validateOptions rejects
    EXPECT_THROW(validateJobSpec(bad), FatalError);

    bad = spec;
    bad.options.search.proposer = "gpt4"; // proposer names are validated
    EXPECT_THROW(validateJobSpec(bad), FatalError);

    for (const char *name : {"template", "corpus"}) {
        JobSpec ok = spec;
        ok.options.search.proposer = name;
        EXPECT_NO_THROW(validateJobSpec(ok)) << name;
    }
}

TEST(ServiceValidation, PerJobProposerOverrideReachesTheRun)
{
    ConversionService svc(ServiceOptions{});
    JobSpec corpus_job = tinyJob("acme");
    corpus_job.options.search.proposer = "corpus";
    int corpus_id = svc.submit(corpus_job);
    int default_id = svc.submit(tinyJob("acme"));
    svc.drain();

    const JobOutcome &corpus_out = svc.collect(corpus_id);
    ASSERT_TRUE(corpus_out.has_report);
    EXPECT_EQ(corpus_out.report.search.proposer, "corpus");

    const JobOutcome &default_out = svc.collect(default_id);
    ASSERT_TRUE(default_out.has_report);
    EXPECT_EQ(default_out.report.search.proposer, "template");
}

TEST(ServiceValidation, SubmitRejectsNonPositiveMutationsPerInput)
{
    // A job that mutates nothing would never finish fuzzing and stall
    // every later drain; submit() must refuse it before it is queued.
    ConversionService svc;
    for (int mutations : {0, -1}) {
        JobSpec bad = tinyJob("acme");
        bad.options.fuzz.mutations_per_input = mutations;
        EXPECT_THROW(svc.submit(bad), FatalError) << mutations;
    }
    EXPECT_EQ(svc.submit(tinyJob("acme")), 0);
}

TEST(ServiceValidation, SubmitRejectsMutationsPerInputAboveTheCeiling)
{
    ConversionService svc;
    JobSpec bad = tinyJob("acme");
    bad.options.fuzz.mutations_per_input = fuzz::kMaxMutationsPerInput + 1;
    EXPECT_THROW(svc.submit(bad), FatalError);
    EXPECT_EQ(svc.submit(tinyJob("acme")), 0);
}

// ---------------------------------------------------------------------
// Lifecycle.

TEST(Service, RunsOneJobToCompletion)
{
    ConversionService svc;
    int id = svc.submit(tinyJob("acme"));
    EXPECT_EQ(svc.poll(id).state, JobState::Pending);
    svc.drain();

    JobStatus status = svc.poll(id);
    EXPECT_EQ(status.state, JobState::Completed);
    EXPECT_EQ(status.stop_reason, "");
    EXPECT_EQ(status.stage, "repair") << "last stage entered";
    EXPECT_GE(status.start_minutes, 0);
    EXPECT_GT(status.finish_minutes, status.start_minutes);

    const JobOutcome &out = svc.collect(id);
    ASSERT_TRUE(out.has_report);
    EXPECT_TRUE(out.report.ok());
    EXPECT_FALSE(out.trace_json.empty());

    SchedulerStats stats = svc.stats();
    EXPECT_EQ(stats.jobs_submitted, 1);
    EXPECT_EQ(stats.jobs_completed, 1);
    ASSERT_EQ(stats.tenants.size(), 1u);
    EXPECT_EQ(stats.tenants[0].id, "acme");
    EXPECT_GT(stats.tenants[0].consumed_minutes, 0);
}

TEST(Service, CollectBeforeTerminalIsAnError)
{
    ConversionService svc;
    int id = svc.submit(tinyJob("acme"));
    EXPECT_THROW(svc.collect(id), FatalError);
    EXPECT_THROW(svc.poll(99), FatalError);
    svc.drain();
    EXPECT_NO_THROW(svc.collect(id));
}

TEST(Service, SlotsBoundConcurrencyInSimulatedTime)
{
    ServiceOptions o;
    o.slots = 2;
    ConversionService svc(o);
    for (int i = 0; i < 5; ++i)
        svc.submit(tinyJob("acme", 0, Priority::Normal, 1 + i));
    svc.drain();
    SchedulerStats stats = svc.stats();
    EXPECT_EQ(stats.jobs_completed, 5);
    EXPECT_EQ(stats.max_in_flight, 2);
}

TEST(Service, ParseFailureMeansFailedJob)
{
    ConversionService svc;
    JobSpec spec = tinyJob("acme");
    spec.source = "int broken(";
    int id = svc.submit(spec);
    int good = svc.submit(tinyJob("acme"));
    svc.drain();
    JobStatus status = svc.poll(id);
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_EQ(status.stop_reason.rfind("error: ", 0), 0u)
        << status.stop_reason;
    EXPECT_FALSE(svc.collect(id).has_report);
    // The failure releases its slot: the good job still completes.
    EXPECT_EQ(svc.poll(good).state, JobState::Completed);
}

TEST(Service, HostileNestingFailsOnlyItsOwnJob)
{
    // A source nested far past the parser's limit must end its own job
    // Failed with the diagnostic — not crash the process every tenant
    // shares — and leave its neighbour's outcome exactly as a lone run.
    JobSpec neighbour = tinyJob("acme");
    ConversionService lone;
    int lone_id = lone.submit(neighbour);
    lone.drain();
    const JobOutcome &alone = lone.collect(lone_id);
    ASSERT_EQ(alone.status.state, JobState::Completed);

    ConversionService svc;
    JobSpec hostile = tinyJob("evil");
    hostile.source = "int scale(int x, int y) { return " +
                     std::string(100000, '(') + "x" +
                     std::string(100000, ')') + "; }";
    int bad = svc.submit(hostile);
    int good = svc.submit(neighbour);
    svc.drain();

    JobStatus status = svc.poll(bad);
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_NE(status.stop_reason.find("nesting deeper than"),
              std::string::npos)
        << status.stop_reason;
    const JobOutcome &out = svc.collect(good);
    ASSERT_EQ(out.status.state, JobState::Completed);
    ASSERT_TRUE(out.has_report);
    EXPECT_EQ(out.report.hls_source, alone.report.hls_source);
    EXPECT_EQ(out.report.total_minutes, alone.report.total_minutes);
    EXPECT_EQ(out.trace_json, alone.trace_json);
}

TEST(Service, OversizedSourceFailsOnlyItsOwnJob)
{
    // A source past the parser's size limit fails its own job with the
    // diagnostic; the neighbour sharing the service runs as if alone.
    JobSpec neighbour = tinyJob("acme");
    ConversionService lone;
    int lone_id = lone.submit(neighbour);
    lone.drain();
    const JobOutcome &alone = lone.collect(lone_id);
    ASSERT_EQ(alone.status.state, JobState::Completed);

    ConversionService svc;
    JobSpec oversized = tinyJob("evil");
    oversized.source += std::string(cir::kMaxSourceBytes, ' ');
    int bad = svc.submit(oversized);
    int good = svc.submit(neighbour);
    svc.drain();

    JobStatus status = svc.poll(bad);
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_NE(status.stop_reason.find("source larger than"),
              std::string::npos)
        << status.stop_reason;
    const JobOutcome &out = svc.collect(good);
    ASSERT_EQ(out.status.state, JobState::Completed);
    ASSERT_TRUE(out.has_report);
    EXPECT_EQ(out.report.hls_source, alone.report.hls_source);
    EXPECT_EQ(out.report.total_minutes, alone.report.total_minutes);
    EXPECT_EQ(out.trace_json, alone.trace_json);
}

TEST(Service, DivisionOverflowEndsOnlyItsOwnJob)
{
    // LONG_MIN / -1 has no 64-bit quotient. A post computing it must end
    // its own job in a terminal state, not kill the process every tenant
    // shares, and the job beside it in the same drain must complete.
    ConversionService svc;
    JobSpec hostile = tinyJob("evil");
    hostile.source = R"(
int scale(int x, int y) {
    long m = -9223372036854775807 - 1;
    long d = -1;
    return m / d + x + y;
}
)";
    int bad = svc.submit(hostile);
    int good = svc.submit(tinyJob("acme"));
    svc.drain();
    // Every run of the kernel traps, and the job completes on that.
    const JobOutcome &out = svc.collect(bad);
    EXPECT_EQ(out.status.state, JobState::Completed)
        << out.status.stop_reason;
    auto trace = parseTraceJson(out.trace_json);
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->counterTotal("interp.runs"), 0);
    EXPECT_EQ(trace->counterTotal("interp.traps"),
              trace->counterTotal("interp.runs"));
    EXPECT_EQ(svc.poll(good).state, JobState::Completed);
}

TEST(Service, HeapBombTrapsInItsOwnRunsOnly)
{
    // Each run of this post mallocs twice the interpreter's per-run
    // heap budget in chunks. Every run must trap on the budget instead
    // of growing the host process, and the jobs beside it in the same
    // drain must report exactly what they report without it.
    const long chunk = interp::Memory::kMaxRunCells / 4;
    JobSpec bomb = tinyJob("evil");
    bomb.source = R"(
int scale(int x, int y) {
    long total = 0;
    for (int i = 0; i < 8; i++) {
        int *p = (int *)malloc(sizeof(int) * )" +
                  std::to_string(chunk) + R"();
        p[0] = x + i;
        total = total + p[0] + y;
    }
    return total;
}
)";
    bomb.options.fuzz.max_executions = 8;
    bomb.options.fuzz.min_suite_size = 2;
    bomb.options.search.max_iterations = 4;

    std::vector<JobSpec> neighbours = {tinyJob("acme", 0, Priority::Normal, 1),
                                       loopJob("zeta", 0, Priority::Normal, 2)};
    ConversionService without;
    for (const JobSpec &n : neighbours)
        without.submit(n);
    without.drain();

    ConversionService svc;
    int bad = svc.submit(bomb);
    for (const JobSpec &n : neighbours)
        svc.submit(n);
    svc.drain();

    const JobOutcome &out = svc.collect(bad);
    ASSERT_TRUE(out.has_report) << out.status.stop_reason;
    auto trace = parseTraceJson(out.trace_json);
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->counterTotal("interp.runs"), 0);
    // Its own runs, replayed: every suite case traps on the budget.
    auto tu = cir::parse(bomb.source);
    cir::analyzeOrDie(*tu);
    interp::Interpreter interp(*tu);
    ASSERT_FALSE(out.report.testgen.suite.empty());
    for (const fuzz::TestCase &t : out.report.testgen.suite.cases()) {
        interp::RunResult r = interp.run("scale", t.args);
        EXPECT_FALSE(r.ok) << t.str();
        EXPECT_EQ(r.trap, "interpreter heap exhausted") << t.str();
    }

    for (size_t i = 0; i < neighbours.size(); ++i) {
        const JobOutcome &n = svc.collect(int(i) + 1);
        const JobOutcome &alone = without.collect(int(i));
        SCOPED_TRACE("neighbour " + std::to_string(i));
        EXPECT_EQ(n.status.state, JobState::Completed);
        ASSERT_TRUE(n.has_report);
        EXPECT_EQ(n.report.hls_source, alone.report.hls_source);
        EXPECT_EQ(n.report.total_minutes, alone.report.total_minutes);
        EXPECT_EQ(n.trace_json, alone.trace_json);
    }
}

// ---------------------------------------------------------------------
// Priority, fair share, preemption.

TEST(Service, HigherPriorityDispatchesFirst)
{
    ServiceOptions o;
    o.slots = 1;
    ConversionService svc(o);
    int low = svc.submit(tinyJob("acme", 0, Priority::Low));
    int normal = svc.submit(tinyJob("acme", 0, Priority::Normal));
    int high = svc.submit(tinyJob("acme", 0, Priority::High));
    svc.drain();
    EXPECT_LT(svc.poll(high).start_minutes,
              svc.poll(normal).start_minutes);
    EXPECT_LT(svc.poll(normal).start_minutes,
              svc.poll(low).start_minutes);
}

TEST(Service, EqualWeightTenantsAlternate)
{
    ServiceOptions o;
    o.slots = 1;
    ConversionService svc(o);
    std::vector<int> a_jobs, b_jobs;
    for (int i = 0; i < 3; ++i) {
        a_jobs.push_back(svc.submit(tinyJob("alpha", 0)));
        b_jobs.push_back(svc.submit(tinyJob("beta", 0)));
    }
    svc.drain();
    // With one slot and equal weights the fair-share order interleaves
    // the tenants: the k-th alpha job and k-th beta job bracket each
    // other instead of one tenant draining first.
    for (int k = 0; k + 1 < 3; ++k) {
        EXPECT_LT(svc.poll(a_jobs[k]).start_minutes,
                  svc.poll(b_jobs[k + 1]).start_minutes);
        EXPECT_LT(svc.poll(b_jobs[k]).start_minutes,
                  svc.poll(a_jobs[k + 1]).start_minutes);
    }
}

TEST(Service, WeightedTenantGetsLargerShare)
{
    ServiceOptions o;
    o.slots = 1;
    o.tenants.push_back({"whale", 1e9, 3.0});
    o.tenants.push_back({"minnow", 1e9, 1.0});
    ConversionService svc(o);
    for (int i = 0; i < 4; ++i) {
        svc.submit(tinyJob("whale", 0, Priority::Normal, 1 + i));
        svc.submit(tinyJob("minnow", 0, Priority::Normal, 1 + i));
    }
    svc.drain();
    // Among the first half of the serialized schedule the weight-3
    // tenant must have started strictly more jobs.
    std::vector<double> starts;
    int whale_early = 0, minnow_early = 0;
    for (int id = 0; id < 8; ++id)
        starts.push_back(svc.poll(id).start_minutes);
    std::vector<double> sorted = starts;
    std::sort(sorted.begin(), sorted.end());
    double median = sorted[3];
    for (int id = 0; id < 8; ++id) {
        if (starts[id] > median)
            continue;
        (svc.poll(id).tenant == "whale" ? whale_early : minnow_early)++;
    }
    EXPECT_GT(whale_early, minnow_early);
}

TEST(Service, HighPriorityArrivalPreemptsRunningJob)
{
    JobSpec victim = loopJob("slowpoke");
    double victim_minutes = soloDuration(victim);
    ASSERT_GT(victim_minutes, 1.0)
        << "loop job too short for a mid-run arrival";

    ServiceOptions o;
    o.slots = 1;
    ConversionService svc(o);
    int low = svc.submit(victim);
    int high = svc.submit(
        tinyJob("vip", victim_minutes / 2, Priority::High));
    svc.drain();

    JobStatus low_status = svc.poll(low);
    JobStatus high_status = svc.poll(high);
    EXPECT_EQ(low_status.preemptions, 1);
    EXPECT_EQ(svc.stats().preemptions, 1);
    EXPECT_EQ(high_status.start_minutes, high_status.arrival_minutes)
        << "the high-priority job must not wait";
    // The victim restarts after the preemptor finishes and completes.
    EXPECT_EQ(low_status.state, JobState::Completed);
    EXPECT_GE(low_status.start_minutes, high_status.finish_minutes);
    // Restart semantics: the wasted partial run is charged too.
    SchedulerStats stats = svc.stats();
    for (const TenantStats &t : stats.tenants) {
        if (t.id == "slowpoke") {
            EXPECT_GT(t.consumed_minutes, victim_minutes);
        }
    }
}

// ---------------------------------------------------------------------
// Tenant quotas.

TEST(Service, QuotaTruncatesAndThenBlocksJobs)
{
    ServiceOptions o;
    o.slots = 1;
    o.tenants.push_back({"budgeted", 1.0, 1.0});
    ConversionService svc(o);
    int first = svc.submit(loopJob("budgeted"));
    int second = svc.submit(tinyJob("budgeted"));
    svc.drain();

    // The first run is truncated by the tenant's 1-minute allowance:
    // cancelled for quota, but still carrying its best-effort report.
    JobStatus one = svc.poll(first);
    EXPECT_EQ(one.state, JobState::Cancelled);
    EXPECT_EQ(one.stop_reason, "quota");
    EXPECT_TRUE(svc.collect(first).has_report);

    // The allowance is now gone: the second job never dispatches.
    JobStatus two = svc.poll(second);
    EXPECT_EQ(two.state, JobState::Cancelled);
    EXPECT_EQ(two.stop_reason, "quota");
    EXPECT_EQ(two.start_minutes, -1);
    EXPECT_FALSE(svc.collect(second).has_report);
}

TEST(Service, OwnBudgetAndQuotaBoundTakeTheMinimum)
{
    // A job's run is capped by the smaller of its own pipeline budget
    // and its tenant's remaining quota; the cap that binds names the
    // outcome.
    JobSpec spec = loopJob("acme");
    double full = soloDuration(spec);
    ASSERT_GT(full, 1.0) << "loop job too short to truncate";

    // Own budget tighter: the job stops at it and completes, exactly
    // as it would with no quota at all.
    spec.options.pipeline_budget_minutes = full / 4;
    double own_only = soloDuration(spec);
    ASSERT_LT(own_only, full / 2);
    {
        ServiceOptions o;
        o.slots = 1;
        o.tenants.push_back({"acme", full / 2, 1.0});
        ConversionService svc(o);
        int id = svc.submit(spec);
        svc.drain();
        const JobOutcome &out = svc.collect(id);
        EXPECT_EQ(out.status.state, JobState::Completed);
        EXPECT_EQ(out.status.stop_reason, "");
        EXPECT_EQ(out.status.finish_minutes - out.status.start_minutes,
                  own_only);
    }
    // Quota tighter: the job stops at the quota and is cancelled for
    // it, with its truncated report.
    {
        ServiceOptions o;
        o.slots = 1;
        o.tenants.push_back({"acme", full / 8, 1.0});
        ConversionService svc(o);
        int id = svc.submit(spec);
        svc.drain();
        const JobOutcome &out = svc.collect(id);
        EXPECT_EQ(out.status.state, JobState::Cancelled);
        EXPECT_EQ(out.status.stop_reason, "quota");
        EXPECT_TRUE(out.has_report);
        double ran = out.status.finish_minutes - out.status.start_minutes;
        EXPECT_GE(ran, full / 8);
        EXPECT_LT(ran, own_only);
    }
}

TEST(Service, ReservationMakesSameTenantJobsQueue)
{
    // The first job's reservation (its 20-minute pipeline budget)
    // covers the whole 20-minute quota, so the second same-tenant job
    // must wait for the first to finish — and give back the unused
    // reservation — even though a slot is free the whole time.
    ServiceOptions o;
    o.slots = 2;
    o.tenants.push_back({"acme", 20.0, 1.0});
    ConversionService svc(o);
    JobSpec spec = tinyJob("acme");
    spec.options.pipeline_budget_minutes = 20;
    int first = svc.submit(spec);
    spec.options.fuzz.rng_seed = 2;
    int second = svc.submit(spec);
    svc.drain();
    EXPECT_EQ(svc.poll(first).state, JobState::Completed);
    EXPECT_EQ(svc.poll(second).state, JobState::Completed);
    EXPECT_GE(svc.poll(second).start_minutes,
              svc.poll(first).finish_minutes);
    EXPECT_EQ(svc.stats().max_in_flight, 1);
}

// ---------------------------------------------------------------------
// Cancellation.

TEST(Service, ScheduledCancelBeforeStartNeverRuns)
{
    ServiceOptions o;
    o.slots = 1;
    ConversionService svc(o);
    int blocker = svc.submit(loopJob("acme"));
    JobSpec doomed = tinyJob("acme", 0.25);
    doomed.cancel_at_minutes = 0.5; // while the blocker still runs
    int id = svc.submit(doomed);
    svc.drain();
    EXPECT_EQ(svc.poll(blocker).state, JobState::Completed);
    JobStatus status = svc.poll(id);
    EXPECT_EQ(status.state, JobState::Cancelled);
    EXPECT_EQ(status.stop_reason, "cancel");
    EXPECT_EQ(status.start_minutes, -1);
    EXPECT_EQ(status.finish_minutes, 0.5);
    EXPECT_FALSE(svc.collect(id).has_report);
}

TEST(Service, MidPipelineCancelStopsPromptlyWithoutLeaks)
{
    // Learn where the stages fall so the cancel lands mid-repair.
    JobSpec probe = loopJob("acme");
    ServiceOptions solo;
    solo.slots = 1;
    ConversionService ref(solo);
    int ref_id = ref.submit(probe);
    ref.drain();
    const JobOutcome &full = ref.collect(ref_id);
    ASSERT_TRUE(full.has_report);
    double fuzz_minutes = full.report.testgen.sim_minutes;
    double total_minutes = full.status.finish_minutes;
    ASSERT_LT(fuzz_minutes, total_minutes);
    double cancel_at = fuzz_minutes + (total_minutes - fuzz_minutes) / 2;

    ServiceOptions o;
    o.slots = 1;
    ConversionService svc(o);
    JobSpec doomed = probe;
    doomed.cancel_at_minutes = cancel_at;
    int id = svc.submit(doomed);
    int next = svc.submit(tinyJob("acme")); // reuses the slot after
    svc.drain();

    JobStatus status = svc.poll(id);
    EXPECT_EQ(status.state, JobState::Cancelled);
    EXPECT_EQ(status.stop_reason, "cancel");
    EXPECT_EQ(status.stage, "repair")
        << "the cancel was scheduled to land mid-repair";
    // Prompt stop: the run ends well before its natural duration. The
    // budget machinery stops between charges, so allow one stage's
    // overshoot but not the full remaining tail.
    EXPECT_GE(status.finish_minutes, cancel_at);
    EXPECT_LT(status.finish_minutes, total_minutes);

    // Cancelled, not degraded: the truncated report carries no
    // degradation notes, and the cancelled state is the only marker.
    const JobOutcome &out = svc.collect(id);
    ASSERT_TRUE(out.has_report);
    EXPECT_TRUE(out.report.search.degradations.empty());
    EXPECT_FALSE(out.trace_json.empty());

    // No slot leaked: the follow-up job ran and completed.
    JobStatus follow = svc.poll(next);
    EXPECT_EQ(follow.state, JobState::Completed);
    EXPECT_GE(follow.start_minutes, status.finish_minutes);
}

TEST(Service, LiveCancelFromAnotherThread)
{
    ServiceOptions o;
    o.slots = 1;
    ConversionService svc(o);
    int id = svc.submit(loopJob("acme"));
    std::thread drainer([&svc] { svc.drain(); });
    // Live cancellation races the run by design; whatever it hits —
    // pending, running, or already finished — drain() must terminate
    // and leave the job terminal.
    svc.cancel(id);
    JobStatus mid = svc.poll(id); // poll during drain is safe
    (void)mid;
    drainer.join();
    JobStatus status = svc.poll(id);
    EXPECT_TRUE(status.state == JobState::Cancelled ||
                status.state == JobState::Completed)
        << jobStateName(status.state);
    if (status.state == JobState::Cancelled) {
        EXPECT_EQ(status.stop_reason, "cancel");
    }
    EXPECT_NO_THROW(svc.collect(id));
}

TEST(Service, CancelOnTerminalJobIsNoOp)
{
    ConversionService svc;
    int id = svc.submit(tinyJob("acme"));
    svc.drain();
    svc.cancel(id);
    EXPECT_EQ(svc.poll(id).state, JobState::Completed);
}

} // namespace
} // namespace heterogen::service

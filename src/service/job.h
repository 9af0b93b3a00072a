/**
 * @file
 * Job model for the conversion service: what a tenant submits, how it
 * is prioritised and quota'd, and what the scheduler reports back.
 *
 * A job wraps exactly one HeteroGen::run. Everything that shapes its
 * schedule — tenant, priority, arrival time, optional scheduled cancel
 * — lives in simulated minutes on the service's discrete-event clock,
 * so the same submission set always produces the same schedule (see
 * docs/SERVICE.md for the determinism contract).
 */

#ifndef HETEROGEN_SERVICE_JOB_H
#define HETEROGEN_SERVICE_JOB_H

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/heterogen.h"

namespace heterogen::service {

/** Scheduling priority class; higher classes always dispatch first. */
enum class Priority { Low = 0, Normal = 1, High = 2 };

/** "low" / "normal" / "high". */
const char *priorityName(Priority p);

/** Parse a priority name (case-insensitive); nullopt on unknown. */
std::optional<Priority> parsePriority(const std::string &name);

/**
 * A tenant's standing contract with the service: a total allowance of
 * simulated minutes across all of its jobs, and a fair-share weight.
 */
struct TenantSpec
{
    std::string id;
    /**
     * Total simulated minutes the tenant's jobs may consume, summed
     * over completed, cancelled and preempted (wasted) runs alike.
     * Infinite by default; explicit values must be positive.
     */
    double quota_minutes = std::numeric_limits<double>::infinity();
    /**
     * Fair-share weight (> 0): among equal-priority jobs the scheduler
     * favours the tenant with the smallest consumed/weight ratio, so a
     * weight-2 tenant sustains twice the throughput of a weight-1
     * tenant under contention.
     */
    double weight = 1.0;
};

/** One conversion request. */
struct JobSpec
{
    /** Owning tenant id (required). */
    std::string tenant;
    Priority priority = Priority::Normal;
    /** Simulated minute at which the job arrives (>= 0). */
    double arrival_minutes = 0;
    /**
     * Scheduled cancellation: at this simulated minute the job stops —
     * before dispatch it is cancelled outright, mid-run it is truncated
     * deterministically through the run's pipeline budget. Negative =
     * never; must be >= arrival_minutes when set.
     */
    double cancel_at_minutes = -1;
    /** Original C source to convert (required). */
    std::string source;
    /**
     * Pipeline options for the wrapped run (validated at submit). The
     * scheduler overrides eval_pool and stage_hook, and lowers
     * pipeline_budget_minutes to the job's quota or cancel horizon; a
     * FaultPlan in options.faults is honoured per job.
     */
    core::HeteroGenOptions options;
    /**
     * Per-job persistent verdict-cache directory ("" = keep
     * options.cache_dir). The service opens one shared store per
     * distinct directory, so jobs naming the same directory share
     * verdicts safely; a non-empty value must name a creatable,
     * writable directory or submit rejects it with a "cache:"
     * diagnostic. See docs/CACHING.md.
     */
    std::string cache_dir;
};

/** Lifecycle of a job inside the service. */
enum class JobState { Pending, Running, Completed, Cancelled, Failed };

/** "pending" / "running" / "completed" / "cancelled" / "failed". */
const char *jobStateName(JobState s);

/** Point-in-time view of one job (poll()) / its final record. */
struct JobStatus
{
    int id = -1;
    JobState state = JobState::Pending;
    std::string tenant;
    Priority priority = Priority::Normal;
    /** Last pipeline stage entered ("fuzz", "profile", ...). */
    std::string stage;
    double arrival_minutes = 0;
    /** Simulated minute of the (last) dispatch; -1 = never dispatched. */
    double start_minutes = -1;
    /** Simulated minute the job reached a terminal state; -1 = not yet. */
    double finish_minutes = -1;
    /** Times the job was preempted and restarted. */
    int preemptions = 0;
    /**
     * Why the job stopped: "" (completed normally), "cancel" (scheduled
     * or live cancellation), "quota" (tenant allowance exhausted), or
     * "error: <what>" (the run threw).
     */
    std::string stop_reason;
};

/** Terminal result of one job (collect()). */
struct JobOutcome
{
    JobStatus status;
    /** The wrapped run's report; meaningful iff has_report. A job
     * cancelled mid-run still carries its truncated (best-effort)
     * report — cancellation is not a degradation. */
    core::HeteroGenReport report;
    bool has_report = false;
    /** The job's isolated trace (report.trace_json when has_report,
     * else whatever the failed run traced before throwing). */
    std::string trace_json;
};

/** Scheduler configuration. */
struct ServiceOptions
{
    /**
     * Concurrent job slots. Part of the schedule's semantics: slots
     * bound how many jobs overlap in simulated time, so changing the
     * count changes (deterministically) which schedule plays out.
     */
    int slots = 2;
    /**
     * Host threads executing dispatched runs (0 = one per slot). Purely
     * an execution detail — reports, schedules and traces are
     * bit-identical at any host thread count.
     */
    int host_threads = 0;
    /**
     * Threads in the shared evaluation pool all jobs' leaf parallelism
     * (fuzz batches, difftest fan-out) lands on. 1 = run leaves inline.
     */
    int eval_threads = 1;
    /**
     * Known tenants; validated by validateServiceOptions. A job from a
     * tenant not listed here registers it with a default TenantSpec
     * (unlimited quota, weight 1).
     */
    std::vector<TenantSpec> tenants;
};

/** Per-tenant accounting at stats() time. */
struct TenantStats
{
    std::string id;
    /** Simulated minutes consumed (completed runs + preempted waste). */
    double consumed_minutes = 0;
    int jobs_submitted = 0;
    int jobs_completed = 0;
    int jobs_cancelled = 0;
    int jobs_failed = 0;
};

/** Whole-scheduler accounting at stats() time. */
struct SchedulerStats
{
    int jobs_submitted = 0;
    int jobs_completed = 0;
    int jobs_cancelled = 0;
    int jobs_failed = 0;
    int preemptions = 0;
    /** Peak number of simultaneously running jobs. */
    int max_in_flight = 0;
    /** Simulated minutes on the service clock. */
    double sim_minutes = 0;
    /** Sorted by tenant id. */
    std::vector<TenantStats> tenants;
};

/**
 * Reject malformed scheduler configuration with a FatalError:
 * non-positive slot counts, negative thread counts, tenants with empty
 * ids, duplicate ids, non-positive quotas or non-positive weights.
 */
void validateServiceOptions(const ServiceOptions &options);

/**
 * Reject a malformed submission with a FatalError naming the offending
 * field: empty tenant or source, negative arrival, a scheduled cancel
 * earlier than the arrival, or pipeline options that
 * core::validateOptions rejects.
 */
void validateJobSpec(const JobSpec &spec);

} // namespace heterogen::service

#endif // HETEROGEN_SERVICE_JOB_H

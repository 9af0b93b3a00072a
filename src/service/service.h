/**
 * @file
 * ConversionService: a multi-tenant scheduler running many conversion
 * jobs — each one HeteroGen::run on the RunContext spine — over a
 * shared worker pool, entirely on the simulated clock.
 *
 * The scheduler is a discrete-event loop in simulated minutes: at each
 * event time it admits arrivals, applies scheduled cancellations,
 * dispatches ready jobs onto virtual slots by priority and weighted
 * fair share (preempting strictly lower-priority runs),
 * and advances time to the next completion or arrival. Host threads
 * only *execute* dispatched runs; every scheduling decision is made
 * serially on simulated time, so the same submission set yields
 * bit-identical per-job reports, schedules and traces at any host
 * thread count (docs/SERVICE.md spells out the contract).
 *
 * Quotas ride the spine's hierarchical budgets: a dispatched run's
 * pipeline budget is lowered to the tenant's remaining allowance (and
 * any scheduled cancel), so one shouldStop() check inside the pipeline
 * enforces tenant limits with no new stop machinery.
 */

#ifndef HETEROGEN_SERVICE_SERVICE_H
#define HETEROGEN_SERVICE_SERVICE_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/job.h"
#include "support/worker_pool.h"

namespace heterogen::service {

/** The job scheduler. See file comment for the model. */
class ConversionService
{
  public:
    /** @throws FatalError on invalid options (validateServiceOptions). */
    explicit ConversionService(ServiceOptions options = {});
    ~ConversionService();

    ConversionService(const ConversionService &) = delete;
    ConversionService &operator=(const ConversionService &) = delete;

    /**
     * Accept one job; returns its id (dense, starting at 0).
     * Thread-safe against poll/cancel but not against drain(): submit
     * while draining is a FatalError (the schedule being replayed is
     * fixed at drain time).
     * @throws FatalError on a malformed spec (validateJobSpec) or an
     *         unknown tenant when auto-registration is off.
     */
    int submit(JobSpec spec);

    /**
     * Current view of one job. Safe to call from any thread, including
     * while drain() runs (live progress: state, stage, preemptions).
     */
    JobStatus poll(int id) const;

    /**
     * Request cancellation of one job from outside the schedule. A
     * pending job is cancelled at the next event; a running job stops
     * at its next shouldStop() check. Unlike cancel_at_minutes this is
     * keyed to *host* time, so it is the one deliberately
     * nondeterministic entry point — replayable schedules should use
     * JobSpec::cancel_at_minutes instead. No-op on terminal jobs.
     */
    void cancel(int id);

    /**
     * Run the discrete-event loop until every submitted job is
     * terminal. Serially callable again after more submits; reentrant
     * calls are a FatalError.
     */
    void drain();

    /**
     * Terminal outcome of one job.
     * @throws FatalError if the job is unknown or not yet terminal.
     */
    const JobOutcome &collect(int id) const;

    /** Simulated minutes on the service clock. */
    double simNow() const;

    /** Scheduler-wide and per-tenant accounting so far. */
    SchedulerStats stats() const;

    const ServiceOptions &options() const { return options_; }

  private:
    struct Job;

    // All *Locked helpers require mu_ held.
    Job *findLocked(int id);
    const Job *findLocked(int id) const;
    const TenantSpec &tenantSpecLocked(const std::string &id) const;
    double consumedLocked(const std::string &tenant) const;
    double reservedLocked(const std::string &tenant) const;
    /** Admission estimate of a run's simulated cost (reservation). */
    double estimateMinutesLocked(const Job &job) const;
    void finishLocked(Job &job, JobState state, std::string stop_reason);
    void applyDueCancelsLocked();
    std::vector<Job *> readyLocked();
    bool dispatchOneLocked();
    void dispatchLocked();
    void preemptLocked(Job &victim);
    void startRunLocked(Job &job);
    /**
     * The shared verdict store for a cache directory, opened on first
     * use (a deterministic event-loop point: stores load their on-disk
     * snapshot at open, and every job answers lookups from that
     * snapshot alone, so concurrent jobs' cache outcomes are
     * independent of host-thread interleaving). Keyed by the exact
     * directory string a job named.
     */
    repair::VerdictStore *storeForLocked(const std::string &dir);
    /** Execute pending host runs; drops the lock while waiting. */
    void executeRunning(std::unique_lock<std::mutex> &lock);
    void completeDueLocked();
    double nextEventTimeLocked() const;

    ServiceOptions options_;
    std::map<std::string, TenantSpec> tenants_;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Job>> jobs_;
    double sim_now_ = 0;
    bool draining_ = false;
    int running_ = 0;
    int preemptions_ = 0;
    int max_in_flight_ = 0;
    /** Minutes consumed per tenant (completed + preempted waste). */
    std::map<std::string, double> consumed_;

    /** One shared verdict store per distinct cache directory; buffered
     * writes are published once, at the end of drain(). */
    std::map<std::string, std::unique_ptr<repair::VerdictStore>> stores_;

    /** Executes dispatched runs; capacity >= slots so the event loop
     * never blocks on submission while holding mu_. */
    std::unique_ptr<WorkerPool> host_pool_;
    /** Shared by every job's leaf parallelism (fuzz, difftest). */
    std::unique_ptr<WorkerPool> eval_pool_;
};

} // namespace heterogen::service

#endif // HETEROGEN_SERVICE_SERVICE_H

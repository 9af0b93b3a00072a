#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>

#include "support/diagnostics.h"
#include "support/run_context.h"

namespace heterogen::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

/** What one host execution of a dispatched run produced. */
struct HostResult
{
    core::HeteroGenReport report;
    bool has_report = false;
    bool failed = false;
    std::string error;
    std::string trace_json;
    /** ctx->cancelled() after the run, i.e. a live cancel() landed. */
    bool live_cancelled = false;
    /** Simulated minutes the run took (the job's RunContext clock). */
    double duration = 0;
};

/**
 * Scheduler-internal job record. The scheduling fields are guarded by
 * the service mutex; `result` is written exclusively by the one host
 * task executing the current dispatch and read by the event loop only
 * after the TaskGroup wait (which orders the accesses).
 */
struct ConversionService::Job
{
    JobSpec spec;
    JobStatus status;

    /** Host-time cancellation request, folded in at the next event. */
    std::atomic<bool> live_cancel{false};

    /** Shared verdict store resolved at dispatch; null = no cache. */
    repair::VerdictStore *store = nullptr;

    // --- current dispatch (valid while status.state == Running) ---
    std::unique_ptr<RunContext> ctx; ///< null when serving from cache
    double dispatch_start = -1;
    /** Run bound applied at dispatch (min of the tenant's remaining
     * quota and the scheduled-cancel horizon; always > 0). */
    double run_bound = kInf;
    /** The cancel horizon (not the quota) is the binding bound. */
    bool cancel_bound_binding = false;
    /** Admission reservation counted into the tenant's fair share. */
    double reserved = 0;
    std::optional<HostResult> result;

    // --- completed host run cached across a preemption ---
    std::optional<HostResult> cached;
    double cached_bound = -1;

    // --- terminal ---
    bool terminal = false;
    JobOutcome outcome;
};

ConversionService::ConversionService(ServiceOptions options)
    : options_(std::move(options))
{
    validateServiceOptions(options_);
    for (const TenantSpec &t : options_.tenants)
        tenants_[t.id] = t;
    int host = options_.host_threads > 0 ? options_.host_threads
                                         : options_.slots;
    host_pool_ = std::make_unique<WorkerPool>(
        host, std::max<size_t>(256, options_.slots));
    eval_pool_ = std::make_unique<WorkerPool>(options_.eval_threads);
}

ConversionService::~ConversionService() = default;

ConversionService::Job *
ConversionService::findLocked(int id)
{
    if (id < 0 || static_cast<size_t>(id) >= jobs_.size())
        fatal("service: no such job id ", id);
    return jobs_[id].get();
}

const ConversionService::Job *
ConversionService::findLocked(int id) const
{
    return const_cast<ConversionService *>(this)->findLocked(id);
}

const TenantSpec &
ConversionService::tenantSpecLocked(const std::string &id) const
{
    auto it = tenants_.find(id);
    if (it == tenants_.end())
        panic("service: tenant vanished: " + id);
    return it->second;
}

double
ConversionService::consumedLocked(const std::string &tenant) const
{
    auto it = consumed_.find(tenant);
    return it == consumed_.end() ? 0.0 : it->second;
}

double
ConversionService::reservedLocked(const std::string &tenant) const
{
    double total = 0;
    for (const auto &j : jobs_) {
        if (j->status.state == JobState::Running &&
            j->spec.tenant == tenant) {
            total += j->reserved;
        }
    }
    return total;
}

double
ConversionService::estimateMinutesLocked(const Job &job) const
{
    const core::HeteroGenOptions &o = job.spec.options;
    if (o.pipeline_budget_minutes > 0)
        return o.pipeline_budget_minutes;
    return o.fuzz.budget_minutes + o.search.budget_minutes;
}

int
ConversionService::submit(JobSpec spec)
{
    validateJobSpec(spec);
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_)
        fatal("service: submit while draining (the schedule is fixed "
              "once drain() starts)");
    if (!tenants_.count(spec.tenant)) {
        TenantSpec t;
        t.id = spec.tenant;
        tenants_[t.id] = t;
    }
    auto job = std::make_unique<Job>();
    job->spec = std::move(spec);
    job->status.id = static_cast<int>(jobs_.size());
    job->status.tenant = job->spec.tenant;
    job->status.priority = job->spec.priority;
    job->status.arrival_minutes = job->spec.arrival_minutes;
    jobs_.push_back(std::move(job));
    return static_cast<int>(jobs_.size()) - 1;
}

JobStatus
ConversionService::poll(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return findLocked(id)->status;
}

void
ConversionService::cancel(int id)
{
    std::lock_guard<std::mutex> lock(mu_);
    Job *job = findLocked(id);
    if (job->terminal)
        return;
    job->live_cancel.store(true);
    if (job->status.state == JobState::Running && job->ctx)
        job->ctx->requestCancel();
}

const JobOutcome &
ConversionService::collect(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Job *job = findLocked(id);
    if (!job->terminal)
        fatal("service: job ", id, " is still ",
              jobStateName(job->status.state),
              "; collect() wants a terminal job");
    return job->outcome;
}

double
ConversionService::simNow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sim_now_;
}

SchedulerStats
ConversionService::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SchedulerStats s;
    s.preemptions = preemptions_;
    s.max_in_flight = max_in_flight_;
    s.sim_minutes = sim_now_;
    std::map<std::string, TenantStats> per_tenant;
    for (const auto &[id, spec] : tenants_) {
        TenantStats t;
        t.id = id;
        t.consumed_minutes = consumedLocked(id);
        per_tenant[id] = t;
    }
    for (const auto &j : jobs_) {
        s.jobs_submitted += 1;
        TenantStats &t = per_tenant[j->spec.tenant];
        t.jobs_submitted += 1;
        switch (j->status.state) {
          case JobState::Completed:
            s.jobs_completed += 1;
            t.jobs_completed += 1;
            break;
          case JobState::Cancelled:
            s.jobs_cancelled += 1;
            t.jobs_cancelled += 1;
            break;
          case JobState::Failed:
            s.jobs_failed += 1;
            t.jobs_failed += 1;
            break;
          default:
            break;
        }
    }
    for (auto &[id, t] : per_tenant)
        s.tenants.push_back(std::move(t));
    return s;
}

void
ConversionService::finishLocked(Job &job, JobState state,
                                std::string stop_reason)
{
    job.status.state = state;
    job.status.finish_minutes = sim_now_;
    job.status.stop_reason = std::move(stop_reason);
    job.outcome.status = job.status;
    if (job.result) {
        job.outcome.report = std::move(job.result->report);
        job.outcome.has_report = job.result->has_report;
        job.outcome.trace_json = std::move(job.result->trace_json);
    }
    job.terminal = true;
    job.ctx.reset();
    job.result.reset();
    job.cached.reset();
}

void
ConversionService::applyDueCancelsLocked()
{
    for (auto &j : jobs_) {
        if (j->status.state != JobState::Pending)
            continue;
        bool scheduled = j->spec.cancel_at_minutes >= 0 &&
                         j->spec.cancel_at_minutes <= sim_now_;
        if (scheduled || j->live_cancel.load())
            finishLocked(*j, JobState::Cancelled, "cancel");
    }
}

std::vector<ConversionService::Job *>
ConversionService::readyLocked()
{
    std::vector<Job *> ready;
    for (auto &j : jobs_) {
        if (j->status.state == JobState::Pending &&
            j->spec.arrival_minutes <= sim_now_) {
            ready.push_back(j.get());
        }
    }
    // Priority first; then weighted fair share (smallest virtual time
    // = consumed+reserved over weight); ties broken by tenant id,
    // arrival, then submission order — all total, so the order is
    // deterministic.
    auto virtualTime = [this](const Job *j) {
        const TenantSpec &t = tenantSpecLocked(j->spec.tenant);
        return (consumedLocked(t.id) + reservedLocked(t.id)) / t.weight;
    };
    std::sort(ready.begin(), ready.end(),
              [&](const Job *a, const Job *b) {
                  if (a->spec.priority != b->spec.priority)
                      return a->spec.priority > b->spec.priority;
                  double va = virtualTime(a), vb = virtualTime(b);
                  if (va != vb)
                      return va < vb;
                  if (a->spec.tenant != b->spec.tenant)
                      return a->spec.tenant < b->spec.tenant;
                  if (a->spec.arrival_minutes != b->spec.arrival_minutes)
                      return a->spec.arrival_minutes <
                             b->spec.arrival_minutes;
                  return a->status.id < b->status.id;
              });
    return ready;
}

void
ConversionService::preemptLocked(Job &victim)
{
    // Restart semantics: the partial occupancy is wasted and charged
    // to the tenant; the finished host computation is cached so an
    // identical re-dispatch (same run bound) replays it for free.
    consumed_[victim.spec.tenant] += sim_now_ - victim.dispatch_start;
    victim.reserved = 0;
    if (victim.result && !victim.result->live_cancelled) {
        victim.cached = std::move(victim.result);
        victim.cached_bound = victim.run_bound;
    }
    victim.result.reset();
    victim.ctx.reset();
    victim.status.state = JobState::Pending;
    victim.status.stage.clear();
    victim.status.preemptions += 1;
    preemptions_ += 1;
    running_ -= 1;
}

void
ConversionService::startRunLocked(Job &job)
{
    const TenantSpec &tenant = tenantSpecLocked(job.spec.tenant);
    double remaining_hard =
        tenant.quota_minutes - consumedLocked(tenant.id);
    double bound_cancel = job.spec.cancel_at_minutes >= 0
                              ? job.spec.cancel_at_minutes - sim_now_
                              : kInf;
    job.run_bound = std::min(remaining_hard, bound_cancel);
    job.cancel_bound_binding =
        bound_cancel < kInf && bound_cancel <= remaining_hard;

    double remaining_admit =
        remaining_hard - reservedLocked(tenant.id);
    job.reserved =
        std::min(estimateMinutesLocked(job), remaining_admit);

    job.dispatch_start = sim_now_;
    job.status.state = JobState::Running;
    job.status.start_minutes = sim_now_;
    job.status.stage.clear();
    running_ += 1;
    max_in_flight_ = std::max(max_in_flight_, running_);

    if (job.cached && job.cached_bound == job.run_bound) {
        // Identical re-dispatch after a preemption: replay the cached
        // host run instead of executing it again.
        job.result = std::move(job.cached);
        job.cached.reset();
        return;
    }
    job.cached.reset();
    // Resolve the job's persistent verdict cache (spec override, then
    // the pipeline knob) to one store shared by every job naming that
    // directory. A caller-supplied search.verdict_store wins untouched.
    const core::HeteroGenOptions &o = job.spec.options;
    if (!o.search.verdict_store) {
        const std::string &dir = !job.spec.cache_dir.empty()
                                     ? job.spec.cache_dir
                                     : o.cache_dir;
        if (!dir.empty())
            job.store = storeForLocked(dir);
    }
    job.ctx = std::make_unique<RunContext>();
    if (job.live_cancel.load())
        job.ctx->requestCancel();
}

repair::VerdictStore *
ConversionService::storeForLocked(const std::string &dir)
{
    auto it = stores_.find(dir);
    if (it == stores_.end()) {
        repair::VerdictStoreOptions vopts;
        vopts.dir = dir;
        it = stores_
                 .emplace(dir, std::make_unique<repair::VerdictStore>(
                                   std::move(vopts)))
                 .first;
    }
    return it->second.get();
}

bool
ConversionService::dispatchOneLocked()
{
    for (Job *job : readyLocked()) {
        const TenantSpec &tenant = tenantSpecLocked(job->spec.tenant);
        double remaining_hard =
            tenant.quota_minutes - consumedLocked(tenant.id);
        if (remaining_hard <= 0) {
            // The tenant's allowance is gone; the job can never run.
            finishLocked(*job, JobState::Cancelled, "quota");
            continue;
        }
        if (remaining_hard - reservedLocked(tenant.id) <= 0) {
            // Allowance fully reserved by the tenant's running jobs;
            // wait for one to finish rather than over-committing.
            continue;
        }
        if (running_ < options_.slots) {
            startRunLocked(*job);
            return true;
        }
        // Victim: strictly lower priority; among those the lowest
        // class, then the most recently started, then highest id — the
        // cheapest restart.
        Job *victim = nullptr;
        for (auto &r : jobs_) {
            if (r->status.state != JobState::Running ||
                r->spec.priority >= job->spec.priority) {
                continue;
            }
            if (!victim || r->spec.priority < victim->spec.priority ||
                (r->spec.priority == victim->spec.priority &&
                 (r->dispatch_start > victim->dispatch_start ||
                  (r->dispatch_start == victim->dispatch_start &&
                   r->status.id > victim->status.id)))) {
                victim = r.get();
            }
        }
        if (victim) {
            preemptLocked(*victim);
            startRunLocked(*job);
            return true;
        }
        // No slot and nothing preemptable: lower-ranked ready jobs
        // (lower or equal priority) cannot do better.
        break;
    }
    return false;
}

void
ConversionService::dispatchLocked()
{
    // One dispatch per pass: each start changes the dispatching
    // tenant's reservation, hence the fair-share order.
    while (dispatchOneLocked()) {
    }
}

void
ConversionService::executeRunning(std::unique_lock<std::mutex> &lock)
{
    std::vector<Job *> todo;
    for (auto &j : jobs_) {
        if (j->status.state == JobState::Running && !j->result)
            todo.push_back(j.get());
    }
    if (todo.empty())
        return;
    // Host execution happens without the service lock: stage hooks and
    // poll()/cancel() calls take it, and with a single-threaded host
    // pool the tasks run inline right here.
    lock.unlock();
    {
        TaskGroup group(host_pool_.get());
        for (Job *job : todo) {
            group.run([this, job] {
                HostResult res;
                try {
                    core::HeteroGen hg(job->spec.source);
                    core::HeteroGenOptions opts = job->spec.options;
                    // The job's quota or cancel horizon caps its run
                    // through the one pipeline budget. Nothing is
                    // charged outside the pipeline span, so this stops
                    // the run exactly where a budget on the whole
                    // context would.
                    if (job->run_bound < kInf) {
                        double own = opts.pipeline_budget_minutes;
                        opts.pipeline_budget_minutes =
                            own > 0 ? std::min(own, job->run_bound)
                                    : job->run_bound;
                    }
                    if (job->store)
                        opts.search.verdict_store = job->store;
                    opts.eval_pool = eval_pool_.get();
                    opts.stage_hook =
                        [this, job](const std::string &stage) {
                            std::lock_guard<std::mutex> g(mu_);
                            job->status.stage = stage;
                        };
                    res.report = hg.run(*job->ctx, opts);
                    res.has_report = true;
                    res.trace_json = res.report.trace_json;
                } catch (const std::exception &e) {
                    res.failed = true;
                    res.error = e.what();
                    res.trace_json = job->ctx->traceJson();
                }
                res.live_cancelled = job->ctx->cancelled();
                res.duration = job->ctx->now();
                job->result = std::move(res);
            });
        }
        group.wait();
    }
    lock.lock();
}

void
ConversionService::completeDueLocked()
{
    // Job-id order: the completion instant is shared by every run that
    // ends at this event, so the processing order must be fixed.
    for (auto &j : jobs_) {
        if (j->status.state != JobState::Running || !j->result)
            continue;
        if (j->dispatch_start + j->result->duration > sim_now_)
            continue;
        consumed_[j->spec.tenant] += j->result->duration;
        j->reserved = 0;
        running_ -= 1;
        if (j->result->failed) {
            finishLocked(*j, JobState::Failed,
                         "error: " + j->result->error);
        } else if (j->result->live_cancelled || j->live_cancel.load()) {
            // A live cancel() landed mid-run (the ctx stopped the
            // pipeline early) or after the host run already finished /
            // was replayed from cache; either way the job is cancelled,
            // keeping whatever (truncated) report the run produced.
            finishLocked(*j, JobState::Cancelled, "cancel");
        } else if (j->run_bound < kInf &&
                   j->result->duration >= j->run_bound) {
            // The run was truncated by its run bound; name whichever
            // limit was the binding one.
            finishLocked(*j, JobState::Cancelled,
                         j->cancel_bound_binding ? "cancel" : "quota");
        } else {
            finishLocked(*j, JobState::Completed, "");
        }
    }
}

double
ConversionService::nextEventTimeLocked() const
{
    double t = kInf;
    for (const auto &j : jobs_) {
        if (j->status.state == JobState::Running && j->result) {
            t = std::min(t, j->dispatch_start + j->result->duration);
        } else if (j->status.state == JobState::Pending) {
            if (j->spec.arrival_minutes > sim_now_)
                t = std::min(t, j->spec.arrival_minutes);
            else if (j->spec.cancel_at_minutes > sim_now_)
                t = std::min(t, j->spec.cancel_at_minutes);
        }
    }
    return t;
}

void
ConversionService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_)
        fatal("service: drain() is not reentrant");
    draining_ = true;
    while (true) {
        // Order at one instant: completions release their slots first,
        // then scheduled cancels remove pending jobs, then dispatch
        // fills (and maybe preempts) slots, then the new dispatches
        // execute so their durations are known.
        completeDueLocked();
        applyDueCancelsLocked();
        dispatchLocked();
        executeRunning(lock);
        // A zero-length run completes at this same instant and frees
        // its slot for jobs already waiting here.
        bool due_now = false;
        for (const auto &j : jobs_) {
            if (j->status.state == JobState::Running && j->result &&
                j->dispatch_start + j->result->duration <= sim_now_) {
                due_now = true;
                break;
            }
        }
        if (due_now)
            continue;
        double t = nextEventTimeLocked();
        if (t == kInf)
            break;
        sim_now_ = t;
    }
    // Publish buffered verdicts only now that every job is terminal:
    // during the drain all jobs answered lookups from their stores'
    // load-time snapshots, which keeps per-job cache outcomes (and so
    // reports and traces) independent of host-thread interleaving.
    for (auto &[dir, store] : stores_)
        store->flush();
    draining_ = false;
}

} // namespace heterogen::service

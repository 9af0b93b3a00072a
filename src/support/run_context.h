/**
 * @file
 * The RunContext spine: one simulated clock, hierarchical budgets,
 * cancellation and a structured trace shared by every pipeline stage.
 *
 * The paper's pipeline (Fig. 1) is a single budgeted loop — fuzz,
 * profile, repair, difftest — so the reproduction models it as one
 * spine instead of per-module clock arithmetic: every simulated-minute
 * charge flows through RunContext::charge(), every stage opens a
 * SpanScope, and a stage asks one question — deadlineExceeded() — to
 * learn whether its own budget, any enclosing budget, or a caller's
 * cancellation should stop it.
 *
 * The trace is the run's ledger: the root span's minutes are the clock
 * (now()), and each event a stage counts — memo and disk-cache lookups,
 * toolchain invocations, search activity — is a counter on the span
 * open when it happened.
 *
 * Determinism contract: charges are made by the stage-driving thread
 * and accumulate per open span in charge order, so a stage's minutes
 * are bit-identical to the pre-spine per-module sums (the golden-trace
 * tests pin this). Counters may be bumped from worker threads; they
 * are integer sums, hence thread-count invariant.
 */

#ifndef HETEROGEN_SUPPORT_RUN_CONTEXT_H
#define HETEROGEN_SUPPORT_RUN_CONTEXT_H

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/faults.h"
#include "support/trace.h"

namespace heterogen {

/** A simulated-minutes allowance attached to one span. */
struct Budget
{
    double limit_minutes = std::numeric_limits<double>::infinity();

    static Budget unlimited() { return {}; }

    static Budget
    minutes(double m)
    {
        Budget b;
        b.limit_minutes = m;
        return b;
    }

    bool
    isUnlimited() const
    {
        return limit_minutes ==
               std::numeric_limits<double>::infinity();
    }

    /** Exhausted once the span has been charged `limit_minutes`. */
    bool
    exceededBy(double elapsed_minutes) const
    {
        return !isUnlimited() && elapsed_minutes >= limit_minutes;
    }
};

/**
 * Per-run state shared by the whole pipeline. Create one per
 * HeteroGen::run (the facade does this for you) or per standalone
 * stage invocation; thread it by reference.
 */
class RunContext
{
  public:
    RunContext();
    ~RunContext();
    RunContext(const RunContext &) = delete;
    RunContext &operator=(const RunContext &) = delete;

    /** Simulated minutes since the context was created: the root
     * span's minutes, the one clock of the run. */
    double now() const;

    /** Minutes charged to the innermost open span. */
    double stageMinutes() const;

    /** Charge every open span, the root (the clock) included. */
    void charge(double minutes);

    /** Bump a counter on the innermost open span (thread-safe). */
    void count(const std::string &key, int64_t delta = 1);

    /** Is any open span (stage or ancestor) over its budget? */
    bool deadlineExceeded() const;

    /**
     * Least budget left over the open spans (infinity when none is
     * budgeted). A stage opened now and charged less than this in total
     * leaves every enclosing budget unexhausted — exactly so while
     * those spans are still at zero minutes, up to rounding otherwise.
     */
    double headroom() const;

    /** Cooperative cancellation, checked between loop iterations. */
    void requestCancel() { cancelled_.store(true); }
    bool cancelled() const { return cancelled_.load(); }

    /** The one stop predicate stages consult: budget or cancellation. */
    bool shouldStop() const { return cancelled() || deadlineExceeded(); }

    const Trace &trace() const { return trace_; }
    std::string traceJson() const;

    /**
     * Arm fault injection for this run: `plan` drives the instrumented
     * toolchain sites (see docs/FAULTS.md), `policy` bounds the retries
     * admitFaultSite() performs on their behalf. Installing an empty
     * plan disarms injection. A plan whose rules all have probability 0
     * leaves the run bit-identical to an uninstrumented one.
     */
    void installFaults(FaultPlan plan, RetryPolicy policy = {});

    /** Is a non-empty fault plan installed? */
    bool faultsEnabled() const;

    /** The installed plan (null when faults are disarmed). */
    const FaultPlan *faultPlan() const;

    /** Retry schedule used by admitFaultSite (meaningful when armed). */
    const RetryPolicy &retryPolicy() const { return retry_; }

    /**
     * Consult the plan for one invocation of `site`. When a fault
     * fires, its latency is charged to the clock and fault.injected /
     * fault.<site> counters are bumped on the current span; otherwise
     * clock and trace are untouched. Most sites want admitFaultSite()
     * (support/faults.h), which adds the retry loop on top.
     */
    std::optional<Fault> drawFault(const std::string &site);

  private:
    friend class SpanScope;

    TraceSpan &pushSpan(std::string name, Budget budget);
    void popSpan();

    mutable std::mutex mu_;
    Trace trace_;
    /** Budgets parallel to trace_.openSpans() (index 0 = root). */
    std::vector<Budget> budgets_;
    std::atomic<bool> cancelled_{false};

    /** Armed fault-injection state; null when no plan is installed. */
    std::unique_ptr<FaultInjector> faults_;
    RetryPolicy retry_;
};

/** RAII stage span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(RunContext &ctx, std::string name,
              Budget budget = Budget::unlimited());
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Minutes charged to this span so far. */
    double minutes() const;

    const TraceSpan &span() const { return *span_; }

  private:
    RunContext &ctx_;
    TraceSpan *span_;
};

} // namespace heterogen

#endif // HETEROGEN_SUPPORT_RUN_CONTEXT_H

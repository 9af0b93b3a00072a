/**
 * @file
 * Deterministic fault injection for the simulated HLS toolchain.
 *
 * Real Vivado runs fail transiently — licence hiccups, co-simulation
 * timeouts, flaky synthesis crashes — and a pipeline that only ever
 * sees deterministic failures never exercises its recovery paths. A
 * FaultPlan is a seeded set of {site, probability, kind, latency}
 * rules; a run takes it from HeteroGenOptions::faults, and a
 * standalone stage call installs it on its RunContext directly. Each
 * instrumented toolchain site asks
 * the context for a draw before doing real work; an injected fault
 * charges its latency to the simulated clock and bumps fault.* counters
 * on the current span. A RetryPolicy bounds re-attempts with
 * exponential backoff, also charged to the simulated clock.
 *
 * Determinism contract: draws are pure hashes of (plan seed, site
 * name, per-site invocation index) — there is no shared RNG stream, so
 * installing a plan whose rules all have probability 0 leaves a run
 * bit-identical to one with no plan at all, and results are invariant
 * to host thread counts because every site is consulted from the
 * stage-driving thread. See docs/FAULTS.md.
 */

#ifndef HETEROGEN_SUPPORT_FAULTS_H
#define HETEROGEN_SUPPORT_FAULTS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace heterogen {

class RunContext;

/** Failure mode of one injected fault. */
enum class FaultKind
{
    /** Fails fast (licence hiccup, spurious tool error); retry cheap. */
    Transient,
    /** Burns a long watchdog window before reporting failure. */
    Timeout,
    /** Tool dies partway through, wasting partial work. */
    Crash,
};

/** Minutes an injected fault of `kind` wastes unless overridden. */
double defaultFaultLatency(FaultKind kind);

/** The instrumented toolchain sites, in documentation order. */
const std::vector<std::string> &knownFaultSites();

/** One injection rule: at `site`, fail with `probability` per draw. */
struct FaultRule
{
    std::string site; ///< e.g. "hls.compile"
    double probability = 0;
    FaultKind kind = FaultKind::Transient;
    /** Simulated minutes one injected fault wastes; < 0 = kind default. */
    double latency_minutes = -1;

    double
    latencyMinutes() const
    {
        return latency_minutes >= 0 ? latency_minutes
                                    : defaultFaultLatency(kind);
    }
};

/** One fault that fired (site drew under its rule's probability). */
struct Fault
{
    std::string site;
    FaultKind kind = FaultKind::Transient;
    double latency_minutes = 0;
};

/**
 * A seedable set of fault rules. Value type: copy it into options
 * freely; it only becomes live when installed on a RunContext.
 */
struct FaultPlan
{
    /** Seed of the per-site hash streams (replays exactly). */
    uint64_t seed = 1;
    std::vector<FaultRule> rules;

    bool empty() const { return rules.empty(); }

    /** First rule for `site`; null when the site has no rule. */
    const FaultRule *ruleFor(const std::string &site) const;
};

/**
 * Bounded-retry schedule for sites whose faults may be transient: after
 * the i-th failed attempt (0-based) the caller waits
 * backoff_minutes * backoff_factor^i simulated minutes and tries again,
 * up to max_attempts total attempts.
 */
struct RetryPolicy
{
    /** Total attempts including the first (1 = no retries). */
    int max_attempts = 3;
    /** Simulated wait before the first retry. */
    double backoff_minutes = 1.0;
    /** Multiplier applied to the wait after each further failure. */
    double backoff_factor = 2.0;

    /** A policy that never retries. */
    static RetryPolicy
    none()
    {
        RetryPolicy p;
        p.max_attempts = 1;
        return p;
    }

    /** Backoff charged after failed attempt `retry` (0-based). */
    double backoffFor(int retry) const;
};

/**
 * Draw engine for one run: owns the plan plus the per-site invocation
 * counters the hash draws consume. Driving-thread only; RunContext
 * provides the locking and the charge/counter side effects.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan &plan() const { return plan_; }

    /**
     * Consult the plan for one invocation of `site`. Pure accounting:
     * no charges, no counters — the RunContext wrapper adds those.
     */
    std::optional<Fault> draw(const std::string &site);

  private:
    FaultPlan plan_;
    std::map<std::string, uint64_t> draws_;
};

/**
 * Gate one toolchain invocation at `site` through the context's fault
 * plan and retry policy: returns true when the site may execute
 * (immediately, or after injected faults were retried away), false when
 * every attempt faulted — the caller must then produce its
 * tool-failure result instead of running.
 *
 * Charges each fault's latency and each inter-attempt backoff to the
 * simulated clock, bumps fault.injected / fault.<site> / fault.retries /
 * fault.gave_up counters on the current span, and gives up early when
 * ctx.shouldStop() (cancellation or an exhausted budget) — retrying
 * past a dead deadline would only burn simulated minutes nobody has.
 *
 * With no plan installed (or no rule for `site`) this is a no-op that
 * returns true without touching clock or counters.
 */
bool admitFaultSite(RunContext &ctx, const std::string &site);

} // namespace heterogen

#endif // HETEROGEN_SUPPORT_FAULTS_H

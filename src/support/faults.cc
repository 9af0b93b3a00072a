#include "support/faults.h"

#include "support/run_context.h"

namespace heterogen {

double
defaultFaultLatency(FaultKind kind)
{
    // Shapes mirror the real toolchain: a licence hiccup fails fast, a
    // watchdog timeout burns its whole window, a crash wastes the
    // partial work done before the tool died.
    switch (kind) {
      case FaultKind::Transient: return 0.5;
      case FaultKind::Timeout: return 10.0;
      case FaultKind::Crash: return 2.0;
    }
    return 0;
}

const std::vector<std::string> &
knownFaultSites()
{
    static const std::vector<std::string> sites = {
        "hls.compile",
        "difftest.cosim",
    };
    return sites;
}

namespace {

/** SplitMix64 finalizer: a well-mixed 64-bit hash of x. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
fnv1a64(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Uniform double in [0, 1) from (seed, site, draw index). A pure hash
 * rather than a shared RNG stream: sites cannot perturb each other's
 * draws, and a probability-0 rule consumes nothing observable.
 */
double
unitDraw(uint64_t seed, const std::string &site, uint64_t n)
{
    uint64_t x = mix64(seed ^ fnv1a64(site));
    x = mix64(x ^ (n * 0xd1342543de82ef95ULL));
    return double(x >> 11) * 0x1.0p-53;
}

} // namespace

const FaultRule *
FaultPlan::ruleFor(const std::string &site) const
{
    for (const FaultRule &rule : rules) {
        if (rule.site == site)
            return &rule;
    }
    return nullptr;
}

double
RetryPolicy::backoffFor(int retry) const
{
    double wait = backoff_minutes;
    for (int i = 0; i < retry; ++i)
        wait *= backoff_factor;
    return wait;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

std::optional<Fault>
FaultInjector::draw(const std::string &site)
{
    const FaultRule *rule = plan_.ruleFor(site);
    if (!rule)
        return std::nullopt;
    uint64_t n = draws_[site]++;
    if (rule->probability <= 0)
        return std::nullopt;
    if (unitDraw(plan_.seed, site, n) >= rule->probability)
        return std::nullopt;
    return Fault{site, rule->kind, rule->latencyMinutes()};
}

bool
admitFaultSite(RunContext &ctx, const std::string &site)
{
    if (!ctx.faultsEnabled())
        return true;
    const RetryPolicy &policy = ctx.retryPolicy();
    for (int attempt = 1;; ++attempt) {
        std::optional<Fault> fault = ctx.drawFault(site);
        if (!fault)
            return true;
        if (attempt >= policy.max_attempts || ctx.shouldStop()) {
            ctx.count("fault.gave_up");
            return false;
        }
        ctx.charge(policy.backoffFor(attempt - 1));
        ctx.count("fault.retries");
    }
}

} // namespace heterogen

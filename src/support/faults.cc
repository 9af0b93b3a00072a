#include "support/faults.h"

#include <cstdio>
#include <cstdlib>

#include "support/diagnostics.h"
#include "support/run_context.h"
#include "support/strings.h"

namespace heterogen {

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Transient: return "transient";
      case FaultKind::Timeout: return "timeout";
      case FaultKind::Crash: return "crash";
    }
    return "?";
}

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

bool
isKnownSite(const std::string &site)
{
    for (const std::string &s : knownFaultSites()) {
        if (s == site)
            return true;
    }
    return false;
}

std::optional<FaultKind>
parseKind(const std::string &name)
{
    if (name == "transient")
        return FaultKind::Transient;
    if (name == "timeout")
        return FaultKind::Timeout;
    if (name == "crash")
        return FaultKind::Crash;
    return std::nullopt;
}

double
parseNumber(const std::string &text, const std::string &what)
{
    try {
        size_t used = 0;
        double v = std::stod(text, &used);
        if (used != text.size())
            fatal("FaultPlan: trailing characters in ", what, " '",
                  text, "'");
        return v;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("FaultPlan: cannot parse ", what, " '", text, "'");
    }
}

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

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

FaultPlan
FaultPlan::parse(const std::string &spec, uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    if (trim(spec).empty())
        return plan;
    for (const std::string &entry : split(spec, ',')) {
        if (trim(entry).empty())
            continue;
        std::vector<std::string> fields = split(entry, ':');
        for (std::string &f : fields)
            f = trim(f);
        if (fields.size() < 3 || fields.size() > 4)
            fatal("FaultPlan: rule '", trim(entry),
                  "' is not site:probability:kind[:latency_minutes]");
        FaultRule rule;
        rule.site = fields[0];
        if (!isKnownSite(rule.site))
            fatal("FaultPlan: unknown fault site '", rule.site,
                  "' (known: ", join(knownFaultSites(), ", "), ")");
        rule.probability = parseNumber(fields[1], "probability");
        if (rule.probability < 0 || rule.probability > 1)
            fatal("FaultPlan: probability for '", rule.site,
                  "' must be in [0, 1], got ", rule.probability);
        auto kind = parseKind(fields[2]);
        if (!kind)
            fatal("FaultPlan: unknown fault kind '", fields[2],
                  "' (known: transient, timeout, crash)");
        rule.kind = *kind;
        if (fields.size() == 4) {
            rule.latency_minutes =
                parseNumber(fields[3], "latency_minutes");
            if (rule.latency_minutes < 0)
                fatal("FaultPlan: latency_minutes for '", rule.site,
                      "' must be >= 0, got ", rule.latency_minutes);
        }
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *spec = std::getenv("HETEROGEN_FAULTS");
    if (!spec || trim(spec).empty())
        return {};
    uint64_t seed = 1;
    if (const char *s = std::getenv("HETEROGEN_FAULT_SEED")) {
        try {
            seed = std::stoull(trim(s));
        } catch (const std::exception &) {
            fatal("HETEROGEN_FAULT_SEED: cannot parse '", s, "'");
        }
    }
    return parse(spec, seed);
}

std::string
FaultPlan::spec() const
{
    std::vector<std::string> entries;
    for (const FaultRule &rule : rules) {
        std::string entry = rule.site + ":" +
                            formatNumber(rule.probability) + ":" +
                            faultKindName(rule.kind);
        if (rule.latency_minutes >= 0)
            entry += ":" + formatNumber(rule.latency_minutes);
        entries.push_back(std::move(entry));
    }
    return join(entries, ",");
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

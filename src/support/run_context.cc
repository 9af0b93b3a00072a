#include "support/run_context.h"

#include <algorithm>

namespace heterogen {

RunContext::RunContext() : trace_("run")
{
    budgets_.push_back(Budget::unlimited());
}

RunContext::~RunContext() = default;

double
RunContext::now() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return trace_.now();
}

double
RunContext::stageMinutes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return trace_.current().minutes;
}

void
RunContext::charge(double minutes)
{
    std::lock_guard<std::mutex> lock(mu_);
    trace_.charge(minutes);
}

void
RunContext::count(const std::string &key, int64_t delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    trace_.count(key, delta);
}

bool
RunContext::deadlineExceeded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto &open = trace_.openSpans();
    for (size_t i = 0; i < open.size(); ++i) {
        if (budgets_[i].exceededBy(open[i]->minutes))
            return true;
    }
    return false;
}

double
RunContext::headroom() const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto &open = trace_.openSpans();
    double room = Budget::unlimited().limit_minutes;
    for (size_t i = 0; i < open.size(); ++i) {
        if (!budgets_[i].isUnlimited())
            room = std::min(room,
                            budgets_[i].limit_minutes - open[i]->minutes);
    }
    return room;
}

void
RunContext::installFaults(FaultPlan plan, RetryPolicy policy)
{
    std::lock_guard<std::mutex> lock(mu_);
    faults_ = plan.empty()
                  ? nullptr
                  : std::make_unique<FaultInjector>(std::move(plan));
    retry_ = policy;
}

bool
RunContext::faultsEnabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return faults_ != nullptr;
}

const FaultPlan *
RunContext::faultPlan() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return faults_ ? &faults_->plan() : nullptr;
}

std::optional<Fault>
RunContext::drawFault(const std::string &site)
{
    std::optional<Fault> fault;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!faults_)
            return std::nullopt;
        fault = faults_->draw(site);
        if (!fault)
            return std::nullopt;
        // Charge and count under the same lock acquisition the draw
        // used; sites are driving-thread only, so this is ordering, not
        // atomicity.
        trace_.charge(fault->latency_minutes);
        trace_.count("fault.injected");
        trace_.count("fault." + site);
    }
    return fault;
}

std::string
RunContext::traceJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return trace_.json();
}

TraceSpan &
RunContext::pushSpan(std::string name, Budget budget)
{
    std::lock_guard<std::mutex> lock(mu_);
    TraceSpan &span = trace_.beginSpan(std::move(name));
    budgets_.push_back(budget);
    return span;
}

void
RunContext::popSpan()
{
    std::lock_guard<std::mutex> lock(mu_);
    trace_.endSpan();
    budgets_.pop_back();
}

SpanScope::SpanScope(RunContext &ctx, std::string name, Budget budget)
    : ctx_(ctx), span_(&ctx.pushSpan(std::move(name), budget))
{
}

SpanScope::~SpanScope()
{
    ctx_.popSpan();
}

double
SpanScope::minutes() const
{
    std::lock_guard<std::mutex> lock(ctx_.mu_);
    return span_->minutes;
}

} // namespace heterogen

#include "service/job.h"

#include <cctype>
#include <cmath>
#include <set>

#include "support/diagnostics.h"

namespace heterogen::service {

const char *
priorityName(Priority p)
{
    switch (p) {
      case Priority::Low:
        return "low";
      case Priority::Normal:
        return "normal";
      case Priority::High:
        return "high";
    }
    return "?";
}

std::optional<Priority>
parsePriority(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "low")
        return Priority::Low;
    if (lower == "normal")
        return Priority::Normal;
    if (lower == "high")
        return Priority::High;
    return std::nullopt;
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Pending:
        return "pending";
      case JobState::Running:
        return "running";
      case JobState::Completed:
        return "completed";
      case JobState::Cancelled:
        return "cancelled";
      case JobState::Failed:
        return "failed";
    }
    return "?";
}

void
validateServiceOptions(const ServiceOptions &options)
{
    if (options.slots < 1)
        fatal("service: slots must be >= 1, got ", options.slots);
    if (options.host_threads < 0)
        fatal("service: host_threads must be >= 0, got ",
              options.host_threads);
    if (options.eval_threads < 1)
        fatal("service: eval_threads must be >= 1, got ",
              options.eval_threads);
    std::set<std::string> seen;
    for (const TenantSpec &t : options.tenants) {
        if (t.id.empty())
            fatal("service: tenant with empty id");
        if (!seen.insert(t.id).second)
            fatal("service: duplicate tenant '", t.id, "'");
        if (std::isnan(t.quota_minutes) || t.quota_minutes <= 0)
            fatal("service: tenant '", t.id,
                  "' quota_minutes must be positive, got ",
                  t.quota_minutes);
        if (std::isnan(t.weight) || t.weight <= 0)
            fatal("service: tenant '", t.id,
                  "' weight must be positive, got ", t.weight);
    }
}

void
validateJobSpec(const JobSpec &spec)
{
    if (spec.tenant.empty())
        fatal("service: job has no tenant");
    if (spec.source.empty())
        fatal("service: job for tenant '", spec.tenant,
              "' has empty source");
    if (std::isnan(spec.arrival_minutes) || spec.arrival_minutes < 0)
        fatal("service: job for tenant '", spec.tenant,
              "' has negative arrival_minutes ", spec.arrival_minutes);
    if (spec.cancel_at_minutes >= 0 &&
        spec.cancel_at_minutes < spec.arrival_minutes) {
        fatal("service: job for tenant '", spec.tenant,
              "' is scheduled to cancel at ", spec.cancel_at_minutes,
              " before it arrives at ", spec.arrival_minutes);
    }
    if (!spec.cache_dir.empty()) {
        std::string err = repair::cacheDirError(spec.cache_dir);
        if (!err.empty())
            fatal("service: job for tenant '", spec.tenant, "': ", err);
    }
    core::validateOptions(spec.options);
}

} // namespace heterogen::service

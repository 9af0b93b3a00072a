/**
 * @file
 * Differential runs: the walker and the VM side by side, every
 * observable compared (docs/INTERP.md).
 */

#include <algorithm>
#include <sstream>

#include "interp/reference/reference.h"

namespace heterogen::interp::reference {

namespace {

/** One engine's observables, collected into private sinks. */
struct Observed
{
    RunResult result;
    CoverageMap coverage;
    ValueProfile profile;
    LoopProfile loop_profile;
    std::vector<KernelArg> captured_args;
    BranchEventLog branch_log;
};

/** Private-sink copy of `options` writing into `out`. */
RunOptions
redirect(const RunOptions &options, Observed &out)
{
    RunOptions opts = options;
    opts.coverage = &out.coverage;
    opts.profile = &out.profile;
    opts.loop_profile = &out.loop_profile;
    if (!opts.capture_function.empty())
        opts.captured_args = &out.captured_args;
    opts.trace = nullptr;
    opts.branch_log = &out.branch_log;
    return opts;
}

/**
 * Describe the first difference between the two observations, or ""
 * when the runs were bit-identical. Branch events are checked first:
 * they are timestamped with the step and cycle clocks, so the earliest
 * differing event localizes a divergence in execution order, not just
 * in the end-of-run summary.
 */
std::string
firstDivergence(const Observed &walk, const Observed &vm)
{
    std::ostringstream out;
    const auto &we = walk.branch_log.events;
    const auto &ve = vm.branch_log.events;
    size_t n = std::min(we.size(), ve.size());
    for (size_t i = 0; i < n; ++i) {
        if (we[i] == ve[i])
            continue;
        out << "branch event " << i << ": tree_walk {branch "
            << we[i].branch_id << (we[i].taken ? " taken" : " not-taken")
            << ", step " << we[i].steps << ", cycle " << we[i].cycles
            << "} vs bytecode {branch " << ve[i].branch_id
            << (ve[i].taken ? " taken" : " not-taken") << ", step "
            << ve[i].steps << ", cycle " << ve[i].cycles << "}";
        return out.str();
    }
    if (we.size() != ve.size()) {
        out << "branch event count: tree_walk " << we.size()
            << " vs bytecode " << ve.size();
        return out.str();
    }
    if (walk.result.ok != vm.result.ok ||
        walk.result.trap != vm.result.trap) {
        out << "outcome: tree_walk "
            << (walk.result.ok ? "ok" : "trap '" + walk.result.trap + "'")
            << " vs bytecode "
            << (vm.result.ok ? "ok" : "trap '" + vm.result.trap + "'");
        return out.str();
    }
    if (walk.result.steps != vm.result.steps) {
        out << "steps: tree_walk " << walk.result.steps << " vs bytecode "
            << vm.result.steps;
        return out.str();
    }
    if (walk.result.cycles != vm.result.cycles) {
        out << "cycles: tree_walk " << walk.result.cycles
            << " vs bytecode " << vm.result.cycles;
        return out.str();
    }
    if (walk.result.has_ret != vm.result.has_ret ||
        (walk.result.has_ret && !(walk.result.ret == vm.result.ret)))
        return "return value differs";
    if (!(walk.result.out_args == vm.result.out_args))
        return "output arguments differ";
    if (!(walk.coverage == vm.coverage))
        return "branch coverage differs";
    if (!(walk.profile == vm.profile))
        return "value-range profile differs";
    if (!(walk.loop_profile == vm.loop_profile))
        return "loop profile differs";
    if (!(walk.captured_args == vm.captured_args))
        return "captured seed arguments differ";
    return "";
}

} // namespace

DifferentialResult
runDifferential(const Interpreter &vm, const std::string &function,
                const std::vector<KernelArg> &args,
                const RunOptions &options)
{
    Observed walk;
    walk.result =
        runWalker(vm.tu(), function, args, redirect(options, walk));
    Observed fast;
    fast.result = vm.run(function, args, redirect(options, fast));

    DifferentialResult out;
    out.result = walk.result;
    out.divergence = firstDivergence(walk, fast);

    // The walker is the reference: forward its observations into the
    // caller's sinks.
    if (options.coverage)
        options.coverage->absorb(walk.coverage);
    if (options.profile)
        options.profile->merge(walk.profile);
    if (options.loop_profile)
        options.loop_profile->absorb(walk.loop_profile);
    if (options.captured_args && !options.capture_function.empty() &&
        !walk.captured_args.empty())
        *options.captured_args = std::move(walk.captured_args);
    if (options.branch_log)
        options.branch_log->events = std::move(walk.branch_log.events);
    return out;
}

} // namespace heterogen::interp::reference

/**
 * @file
 * Shared configuration for the table/figure reproduction benches: the
 * command-line check every bench runs, and the --trace-out harness
 * that dumps per-run RunContext traces as JSON lines for per-stage
 * cost attribution.
 */

#ifndef HETEROGEN_BENCH_COMMON_H
#define HETEROGEN_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/heterogen.h"
#include "subjects/subjects.h"
#include "support/strings.h"

namespace heterogen::bench {

/**
 * A bench's command line, checked against the flags the bench names:
 * each takes a value (`--out <path>` or `--out=<path>`) unless it is
 * listed as a switch. Anything else, or a value flag without its
 * value, is fatal: the bench lists its flags and exits 2, so a typo
 * never runs a default workload or overwrites a checked-in file.
 */
class Flags
{
  public:
    Flags(int argc, char **argv, const std::vector<std::string> &with_value,
          const std::vector<std::string> &switches = {})
    {
        auto listed = [](const std::vector<std::string> &names,
                         const std::string &name) {
            return std::find(names.begin(), names.end(), name) !=
                   names.end();
        };
        auto fail = [&](const std::string &why) {
            std::string supported;
            for (const std::string &flag : with_value)
                supported += " " + flag + " <value>";
            for (const std::string &flag : switches)
                supported += " " + flag;
            std::fprintf(stderr, "%s: %s\nsupported flags:%s\n", argv[0],
                         why.c_str(),
                         supported.empty() ? " none" : supported.c_str());
            std::exit(2);
        };
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            size_t eq = arg.find('=');
            std::string name = arg.substr(0, eq);
            if (eq == std::string::npos && listed(switches, arg))
                values_[arg] = "";
            else if (!listed(with_value, name))
                fail("unknown argument " + arg);
            else if (eq != std::string::npos)
                values_[name] = arg.substr(eq + 1);
            else if (i + 1 < argc)
                values_[name] = argv[++i];
            else
                fail(arg + " needs a value");
        }
    }

    /** Whether `flag` was given. */
    bool has(const std::string &flag) const { return values_.contains(flag); }

    /** The value given for `flag`, or `fallback`. */
    std::string
    value(const std::string &flag, const std::string &fallback = "") const
    {
        auto it = values_.find(flag);
        return it == values_.end() ? fallback : it->second;
    }

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Collects labeled run traces and writes them as JSON lines
 * ({"label": ..., "trace": <span tree>}) when --trace-out was given.
 */
class TraceWriter
{
  public:
    /** Writes to `path` (the bench's --trace-out); empty writes nothing. */
    explicit TraceWriter(std::string path) : path_(std::move(path)) {}

    /** Record one run's trace JSON under a short label (e.g. "P3/HG"). */
    void
    add(const std::string &label, const std::string &trace_json)
    {
        if (path_.empty() || trace_json.empty())
            return;
        if (!file_)
            file_ = std::fopen(path_.c_str(), "w");
        if (!file_)
            return;
        std::fprintf(file_, "{\"label\":\"%s\",\"trace\":%s}\n",
                     label.c_str(), trace_json.c_str());
    }

    ~TraceWriter()
    {
        if (file_) {
            std::fclose(file_);
            std::fprintf(stderr, "trace lines written to %s\n",
                         path_.c_str());
        }
    }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
};

/**
 * The evaluation configuration: a three-hour simulated repair budget
 * (§6.1) and a fuzzing campaign that stops 30 simulated minutes after
 * the last new path (§6.2).
 */
inline core::HeteroGenOptions
standardOptions(const subjects::Subject &subject)
{
    core::HeteroGenOptions opts;
    opts.kernel = subject.kernel;
    opts.fuzz.host_function = subject.host;
    opts.config.top_function = subject.top_function;
    opts.fuzz.rng_seed = subject.fuzz_seed;
    opts.fuzz.max_executions = 4000;
    opts.fuzz.mutations_per_input = 12;
    opts.fuzz.plateau_minutes = 30.0;
    opts.fuzz.budget_minutes = 90.0;
    opts.fuzz.max_steps_per_run = 400000;
    opts.search.budget_minutes = 180.0;
    opts.search.max_iterations = 600;
    opts.search.difftest_sample = 16;
    opts.search.rng_seed = subject.fuzz_seed * 31 + 7;
    return opts;
}

/** Render a check mark / cross for table cells. */
inline const char *
mark(bool ok)
{
    return ok ? "yes" : "no ";
}

/** The CPU model name, for the record of where host times came from. */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return trim(line.substr(colon + 1));
        }
    }
    return "unknown";
}

/**
 * The `"host": {...}` JSON member a BENCH file records next to its
 * host-time numbers: build type, CPU model and hardware threads.
 */
inline std::string
hostJson(const char *build_type)
{
    return std::string("\"host\": {\"build_type\": \"") + build_type +
           "\", \"cpu\": \"" + cpuModel() +
           "\", \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

} // namespace heterogen::bench

#endif // HETEROGEN_BENCH_COMMON_H

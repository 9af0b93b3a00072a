/**
 * @file
 * Shared configuration for the table/figure reproduction benches,
 * including the --trace-out harness that dumps per-run RunContext
 * traces as JSON lines for per-stage cost attribution.
 */

#ifndef HETEROGEN_BENCH_COMMON_H
#define HETEROGEN_BENCH_COMMON_H

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "core/baselines.h"
#include "core/heterogen.h"
#include "subjects/subjects.h"
#include "support/strings.h"

namespace heterogen::bench {

/** Command-line knobs every bench binary accepts. */
struct BenchArgs
{
    /** --trace-out <path>: append one JSON line per labeled run. */
    std::string trace_out;
};

inline BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--trace-out" && i + 1 < argc) {
            args.trace_out = argv[++i];
        } else if (a.rfind("--trace-out=", 0) == 0) {
            args.trace_out = a.substr(std::string("--trace-out=").size());
        } else {
            std::fprintf(stderr,
                         "unknown bench argument: %s "
                         "(supported: --trace-out <path>)\n",
                         a.c_str());
        }
    }
    return args;
}

/**
 * Collects labeled run traces and writes them as JSON lines
 * ({"label": ..., "trace": <span tree>}) when --trace-out was given.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const BenchArgs &args) : path_(args.trace_out) {}

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

/**
 * @file
 * HeteroGen: the end-to-end C-to-HLS-C pipeline (Figure 1).
 *
 * Given an original C program and its kernel entry point, HeteroGen
 *   (1) generates kernel test inputs by coverage-guided fuzzing,
 *   (2) profiles value ranges and emits the initial HLS version with
 *       estimated bit widths,
 *   (3..5) iteratively localizes HLS errors, explores dependence-ordered
 *       repairs with style-check early rejection, and evaluates fitness
 *       by CPU-vs-FPGA differential testing,
 * until the time budget expires or no further edit applies.
 */

#ifndef HETEROGEN_CORE_HETEROGEN_H
#define HETEROGEN_CORE_HETEROGEN_H

#include <functional>
#include <string>

#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "repair/search.h"
#include "repair/store.h"
#include "support/run_context.h"

namespace heterogen::core {

/** Pipeline options. */
struct HeteroGenOptions
{
    /** Kernel function to transpile (required). */
    std::string kernel;
    /** Profile-guided bitwidth narrowing for the initial HLS version. */
    bool narrow_bitwidths = true;
    /**
     * Budget for the whole pipeline in simulated minutes (0 =
     * unlimited). The stage budgets (fuzz.budget_minutes,
     * search.budget_minutes) still apply individually; this caps their
     * sum, so a fuzz campaign that eats the whole pipeline budget
     * leaves the repair search nothing — the hierarchical split the
     * RunContext spine checks through one deadlineExceeded(). The
     * conversion service bounds a job's run by lowering this to the
     * job's quota or scheduled-cancel horizon.
     */
    double pipeline_budget_minutes = 0;

    /**
     * Fault plan injected into the toolchain sites for this run (see
     * docs/FAULTS.md); empty = no injection. run() installs exactly
     * this plan on its context, replacing any plan armed there before.
     */
    FaultPlan faults;
    /**
     * Retry schedule for faulted toolchain invocations: bounded
     * attempts with exponential backoff charged to the simulated
     * clock. Only consulted while a fault plan is armed.
     */
    RetryPolicy retry;

    /** Fuzzing campaign; fuzz.host_function names the optional host
     * entry used for kernel-seed capture. */
    fuzz::FuzzOptions fuzz;
    /** Repair search; search.proposer picks the candidate proposer. */
    repair::SearchOptions search;
    /**
     * Initial toolchain configuration. An empty config.top_function
     * means `kernel`; a wrong name reproduces the paper's Top Function
     * configuration errors.
     */
    hls::HlsConfig config;
    /**
     * The run's one host pool (non-owning) for every parallel leaf —
     * fuzz batches and difftest fan-out. Null = run() builds one sized
     * by the HETEROGEN_JOBS default (support/worker_pool.h) for the
     * run. The conversion service points every concurrent job at one
     * bounded pool; with per-batch waits and thread-invariant results,
     * neither sharing nor the pool size ever changes a report.
     */
    WorkerPool *eval_pool = nullptr;
    /**
     * Observation hook called by run() as each stage begins ("fuzz",
     * "profile", "init_hls", "repair"), from the thread driving the
     * run. Lets a caller report job progress (the service's poll())
     * without touching the trace. Must not call back into the run.
     */
    std::function<void(const std::string &)> stage_hook;
    /**
     * Persistent cache directory for the repair search's verdicts and
     * the run's stage 1-2 record ("" = memory only; see
     * docs/CACHING.md). Defaults to the HETEROGEN_CACHE_DIR environment
     * variable. run() opens the store before fuzzing, lends it to the
     * search and flushes it afterwards; a non-empty value must name a
     * creatable, writable directory or validateOptions rejects the run
     * with a "cache:" diagnostic.
     */
    std::string cache_dir = repair::defaultCacheDir();
};

/**
 * Reject malformed options with a FatalError before any stage runs:
 * empty kernel, negative budgets, fewer than one mutation per input,
 * out-of-range stream depths, unknown proposers, unusable cache
 * directories, retry policies that could never attempt anything or
 * would wait negative time, and fault rules naming an unknown site or
 * carrying out-of-range probabilities or latencies. (Kernel existence
 * is checked against the program by run().)
 */
void validateOptions(const HeteroGenOptions &options);

/** Everything the pipeline produced. */
struct HeteroGenReport
{
    /** Test-generation statistics (Table 4 inputs). */
    fuzz::FuzzResult testgen;
    /** Value profile of the original program under the suite. */
    interp::ValueProfile profile;
    /** Repair-search outcome including the final program. */
    repair::SearchResult search;
    /** Printed HLS-C output. */
    std::string hls_source;
    int orig_loc = 0;
    int final_loc = 0;
    /**
     * Total simulated minutes of the run, read off the RunContext
     * pipeline span — every stage charge lands here by construction,
     * so a stage that forgets to report cannot cause drift.
     */
    double total_minutes = 0;
    /**
     * JSON export of the run's span tree and counters (the schema is
     * documented in docs/TRACING.md; parse with parseTraceJson).
     */
    std::string trace_json;

    /**
     * Did the pipeline degrade around a permanent toolchain failure
     * (search.degradations)? A degraded run never reports ok(): its
     * artifacts are best-effort, not verified.
     */
    bool degraded() const { return search.degraded(); }

    bool ok() const
    {
        return search.hls_compatible && search.behavior_preserved &&
               !degraded();
    }
};

/**
 * The transpiler facade. Construct from source text; run() is
 * repeatable and side-effect free on the instance.
 */
class HeteroGen
{
  public:
    /** @throws FatalError on parse/sema failure. */
    explicit HeteroGen(const std::string &source);

    /** Run the full pipeline (creates a fresh RunContext internally). */
    HeteroGenReport run(const HeteroGenOptions &options) const;

    /**
     * Run the full pipeline on a caller-provided context: the caller
     * can cancel it cooperatively and inspect the trace while stages
     * execute. Budgets and faults come from `options` alone.
     * @throws FatalError on invalid options (see validateOptions).
     */
    HeteroGenReport run(RunContext &ctx,
                        const HeteroGenOptions &options) const;

    const cir::TranslationUnit &program() const { return *tu_; }
    const cir::SemaResult &sema() const { return sema_; }

  private:
    cir::TuPtr tu_;
    cir::SemaResult sema_;
};

/**
 * Profile the original program's value ranges by running it on every
 * case of the oracle's suite (used for initial HLS version generation).
 * These runs are the oracle's first reads, so they fill it: the repair
 * search's difftest campaigns then never run the original again. Bumps
 * interp.* counters on the context.
 */
interp::ValueProfile profileUnderSuite(RunContext &ctx,
                                       repair::CpuOracle &oracle);

} // namespace heterogen::core

#endif // HETEROGEN_CORE_HETEROGEN_H

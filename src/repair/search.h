/**
 * @file
 * The evolutionary repair search (§5.3).
 *
 * Iteratively: style-check the candidate (early rejection), compile with
 * the full HLS toolchain, localize errors, choose the next edit from the
 * dependence-ordered template space, and — once error-free — evaluate
 * fitness by differential testing, continuing with performance edits
 * until the simulated time budget runs out.
 *
 * The two ablation baselines from Figure 9 are option switches:
 * use_style_checker=false (WithoutChecker) and use_dependence=false
 * (WithoutDependence).
 */

#ifndef HETEROGEN_REPAIR_SEARCH_H
#define HETEROGEN_REPAIR_SEARCH_H

#include <set>
#include <string>
#include <vector>

#include "fuzz/testsuite.h"
#include "hls/config.h"
#include "interp/interp.h"
#include "interp/profile.h"
#include "repair/diffstat.h"
#include "repair/difftest.h"
#include "repair/edit.h"
#include "repair/proposer.h"
#include "repair/store.h"

namespace heterogen {
class RunContext;
class WorkerPool;
}

namespace heterogen::repair {

/** Search configuration. */
struct SearchOptions
{
    /** Early candidate rejection via the LLVM-style checker (§5.3). */
    bool use_style_checker = true;
    /** Dependence-ordered edit enumeration vs random order (§5.3). */
    bool use_dependence = true;
    /** Simulated wall-clock budget in minutes (paper default: 3h). */
    double budget_minutes = 180.0;
    /** Hard iteration cap (backstop against degenerate walks). */
    int max_iterations = 2000;
    uint64_t rng_seed = 7;
    /** Tests evaluated per fitness check (0 = whole suite). */
    int difftest_sample = 24;
    /**
     * Persistent verdict store under the in-memory candidate memo
     * (non-owning; the on-disk L2, see docs/CACHING.md). Null = memory
     * only. The search uses whatever store it is handed: HeteroGen::run
     * decides whether a store is in play (it keeps the disk out while
     * a fault plan is armed) and opens the one named by
     * HeteroGenOptions::cache_dir; the conversion service shares one
     * store per directory across concurrent jobs. The owner flushes.
     */
    VerdictStore *verdict_store = nullptr;
    /**
     * When non-empty, only these templates may be applied — the
     * HeteroRefactor baseline restricts to the dynamic-data-structure
     * chain this way.
     */
    std::set<std::string> allowed_edits;
    /**
     * Candidate proposer driving the search ("template" — the paper's
     * enumeration — or "corpus"; see repair/proposer.h). The judge
     * side (style gate, toolchain, difftest, memo, backtracking) is
     * proposer-independent.
     */
    std::string proposer = "template";
};

/** One recorded search step (for traces and ablation analysis). */
struct SearchStep
{
    int iteration = 0;
    std::string action; ///< edit name, "style-reject", "compile", ...
    double minutes_after = 0;
};

/** Search outcome. */
struct SearchResult
{
    /** Best candidate found (never null; equals original on failure). */
    cir::TuPtr program;
    hls::HlsConfig config;

    bool hls_compatible = false;
    bool behavior_preserved = false;
    double pass_ratio = 0;
    /** FPGA candidate faster than CPU original? */
    bool improved = false;
    double orig_cpu_ms = 0;
    double fpga_ms = 0;

    /** Simulated wall-clock spent by the whole search. */
    double sim_minutes = 0;
    /**
     * Simulated minutes until the first candidate that fixed every HLS
     * error and preserved test behaviour (the repair task itself,
     * excluding the optional performance-exploration tail); equals
     * sim_minutes when the search never succeeded.
     */
    double minutes_to_success = 0;
    int iterations = 0;
    int full_hls_invocations = 0;
    int style_checks = 0;
    int style_rejections = 0;
    /**
     * Permanent toolchain failures the search degraded around, as
     * "site: consequence" notes (empty = clean run). A degraded result
     * is best-effort: downstream consumers must not treat it as a
     * verified success even when earlier candidates did pass.
     */
    std::vector<std::string> degradations;
    /**
     * Co-simulation failed permanently, so the reported candidate was
     * accepted on style-check + compile fitness alone:
     * hls_compatible may be true while behavior_preserved stays false.
     */
    bool cosim_degraded = false;

    bool degraded() const { return !degradations.empty(); }

    std::vector<std::string> applied_order;
    DiffStat diff;
    std::vector<SearchStep> trace;
    /** Canonical name of the proposer that drove the search. */
    std::string proposer;

    /** Fraction of repair attempts that invoked the full toolchain. */
    double
    hlsInvocationRatio() const
    {
        int attempts = full_hls_invocations + style_rejections;
        return attempts == 0
                   ? 0.0
                   : double(full_hls_invocations) / double(attempts);
    }
};

/**
 * Run the repair search: opens a "repair" span budgeted at
 * options.budget_minutes, charges every style-check/edit/synthesis/
 * difftest minute through the context, bumps search.* counters
 * (candidates, style checks/rejections, memo hits/misses, edits,
 * reverts) plus the hls.* and difftest.* counters of the stages it
 * drives, and stops early on cancellation or an exhausted enclosing
 * budget.
 *
 * Candidate evaluations are memoized: a revisited candidate (same
 * printed text and config) reuses its recorded compile and difftest
 * verdicts. Each difftest campaign fans its tests out over `pool`
 * (borrowed; null = inline); results are invariant to the pool size.
 *
 * When the context has a FaultPlan armed (support/faults.h), the
 * toolchain sites it drives may fail permanently; the search then
 * degrades instead of crashing — a dead co-sim downgrades fitness to
 * style-check + compile only, a dead compiler aborts with the best
 * candidate so far — and records every degradation in the result.
 *
 * @param oracle    the input C program, its kernel and the generated
 *                  tests, with the original's behaviour on each test
 *                  (the CPU side of every difftest campaign)
 * @param broken    the initial HLS candidate (typically the bitwidth-
 *                  narrowed clone of the original)
 * @param config    initial toolchain configuration
 * @param profile   value profile of the original under the suite
 */
SearchResult repairSearch(RunContext &ctx, CpuOracle &oracle,
                          const cir::TranslationUnit &broken,
                          const hls::HlsConfig &config,
                          const interp::ValueProfile &profile,
                          const SearchOptions &options = {},
                          WorkerPool *pool = nullptr);

} // namespace heterogen::repair

#endif // HETEROGEN_REPAIR_SEARCH_H

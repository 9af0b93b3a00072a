/**
 * @file
 * The simulated HLS toolchain facade.
 *
 * Bundles synthesizability checking and scheduling/resource allocation
 * behind one interface, and — critically for reproducing the paper —
 * prices each full toolchain invocation at a realistic wall-clock cost.
 * HeteroGen's two search optimizations (style-check early rejection,
 * dependence-ordered exploration) exist precisely because this cost
 * dwarfs a C run; Figure 9 measures both against the run trace, where
 * compile(ctx, tu) charges the minutes and counts hls.compiles.
 * Co-simulation is priced by the difftest campaign (repair/difftest.h)
 * over hls::simulateFpga.
 */

#ifndef HETEROGEN_HLS_COMPILER_H
#define HETEROGEN_HLS_COMPILER_H

#include <vector>

#include "cir/ast.h"
#include "hls/config.h"
#include "hls/errors.h"
#include "hls/resource.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::hls {

/**
 * Version stamp of the simulated toolchain's judging behaviour. Bump
 * whenever a change could alter any CompileResult or co-simulation
 * outcome for an unchanged design, or a fuzz campaign or value profile
 * for unchanged options: persisted verdicts and stage records
 * (repair/store.h) carry this stamp, and a mismatch invalidates every
 * stale entry.
 */
inline constexpr const char *kSimulatorVersion = "2022.1-sim3";

/** Result of one full synthesis attempt. */
struct CompileResult
{
    bool ok = false;
    /**
     * The toolchain itself failed (injected licence hiccup / timeout /
     * crash that persisted through every retry) — the design was never
     * actually judged. Callers must branch on this before reading
     * `errors`: a tool failure says nothing about the candidate.
     */
    bool tool_failure = false;
    std::vector<HlsError> errors;
    ResourceEstimate resources;
    /** Simulated synthesis wall-clock cost in minutes. */
    double synth_minutes = 0;
    /** Printed design size the cost model used. */
    int loc = 0;
};

/** One toolchain instance bound to a configuration. */
class HlsToolchain
{
  public:
    explicit HlsToolchain(HlsConfig config);

    const HlsConfig &config() const { return config_; }

    /**
     * Full synthesis: front-end checks, then scheduling/binding and
     * resource allocation. Always charges the full invocation cost —
     * invoke the style checker first if you want to avoid that.
     */
    CompileResult compile(const cir::TranslationUnit &tu);

    /**
     * Spine-aware variant: charges the synthesis minutes to the
     * context's current span and bumps hls.compiles plus one
     * hls.errors.<category-slug> counter per diagnostic. The compile
     * outcome (including synth_minutes) is identical to compile(tu).
     *
     * This overload is also the "hls.compile" fault site: when the
     * context has a FaultPlan armed, each invocation is gated through
     * admitFaultSite — injected faults charge their latency, retries
     * back off on the simulated clock, and a permanently-failing
     * toolchain returns a CompileResult with tool_failure set (no
     * synthesis performed, no hls.compiles bump).
     */
    CompileResult compile(RunContext &ctx, const cir::TranslationUnit &tu);

    /** Cost model for one full synthesis of a design of `loc` lines. */
    static double synthMinutes(int loc, int num_pragmas, int num_structs);

  private:
    HlsConfig config_;
};

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_COMPILER_H

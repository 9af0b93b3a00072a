/**
 * @file
 * The reference interpreter: a tree walker kept as the oracle the
 * bytecode VM is proven against (docs/INTERP.md). Only the
 * differential tests and bench/interp_speed link it; production code
 * never does.
 */

#ifndef HETEROGEN_INTERP_REFERENCE_REFERENCE_H
#define HETEROGEN_INTERP_REFERENCE_REFERENCE_H

#include <string>
#include <vector>

#include "cir/ast.h"
#include "interp/interp.h"

namespace heterogen::interp::reference {

/**
 * Run `function(args)` on the tree walker with fresh memory and
 * globals. Every sink in `options` is honoured; `options.trace` is
 * ignored.
 */
RunResult runWalker(const cir::TranslationUnit &tu,
                    const std::string &function,
                    const std::vector<KernelArg> &args,
                    const RunOptions &options = {});

/** Outcome of one differential run. */
struct DifferentialResult
{
    /** The walker's result: the reference side. */
    RunResult result;
    /**
     * Empty when walker and VM agreed on every observable; otherwise
     * the first diverging site (branch-event index, then summary field).
     */
    std::string divergence;
};

/**
 * Run `function(args)` on the walker and on `vm`, each with private
 * sinks, and compare every observable: outcome, steps, cycles,
 * coverage, value and loop profiles, captured seed arguments and the
 * ordered branch-event log. The walker's observations are then
 * forwarded into the caller's sinks. `options.trace` is ignored.
 */
DifferentialResult runDifferential(const Interpreter &vm,
                                   const std::string &function,
                                   const std::vector<KernelArg> &args,
                                   const RunOptions &options = {});

} // namespace heterogen::interp::reference

#endif // HETEROGEN_INTERP_REFERENCE_REFERENCE_H

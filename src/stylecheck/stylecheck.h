/**
 * @file
 * Lightweight HLS coding-style checker ("LLVM front-end" stand-in).
 *
 * Runs in simulated seconds instead of minutes and catches the subset of
 * HLS problems visible without scheduling or a dataflow graph: dynamic
 * data structures, pointers, unsupported types, struct/union restrictions
 * and pragma placement. HeteroGen consults it before every full HLS
 * compile; a candidate that fails style checking is rejected without
 * paying the toolchain cost (§5.3, "HLS Coding Style Validity").
 *
 * Deliberately NOT caught here (only full synthesis finds these):
 * dataflow argument checking, unroll/dataflow interactions, array
 * partition divisibility, top-function configuration, resource fit.
 */

#ifndef HETEROGEN_STYLECHECK_STYLECHECK_H
#define HETEROGEN_STYLECHECK_STYLECHECK_H

#include <string>
#include <vector>

#include "cir/ast.h"

namespace heterogen::style {

/** Simulated wall-clock cost of one style check in minutes (a few
 * seconds). */
inline constexpr double kCheckMinutes = 0.05;

/** One style violation. */
struct StyleIssue
{
    std::string message;
    SourceLoc loc;
};

/** Result of one style check. */
struct StyleReport
{
    std::vector<StyleIssue> issues;

    bool clean() const { return issues.empty(); }
};

/** Check a design's HLS coding style. */
StyleReport checkStyle(const cir::TranslationUnit &tu);

} // namespace heterogen::style

#endif // HETEROGEN_STYLECHECK_STYLECHECK_H

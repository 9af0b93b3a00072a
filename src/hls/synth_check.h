/**
 * @file
 * Synthesizability checking — the front half of the simulated HLS
 * toolchain.
 *
 * Reproduces the four incompatibility sources §2 describes (dynamic data
 * structures, unsupported types/pointers, pragma legality, struct/union
 * restrictions) plus top-function configuration checks, emitting
 * Vivado-style diagnostics from hls/errors.h.
 */

#ifndef HETEROGEN_HLS_SYNTH_CHECK_H
#define HETEROGEN_HLS_SYNTH_CHECK_H

#include <optional>
#include <vector>

#include "cir/ast.h"
#include "hls/config.h"
#include "hls/errors.h"

namespace heterogen::hls {

/**
 * Run all synthesizability checks. An empty result means the design passes
 * the synthesis front end.
 */
std::vector<HlsError> checkSynthesizability(const cir::TranslationUnit &tu,
                                            const HlsConfig &config);

/**
 * Compile-time trip count of a for loop of the canonical shape
 * (i = c0; i <|<= c1; i++ / i += c2); nullopt when not statically known.
 */
std::optional<long> staticTripCount(const cir::ForStmt &loop);

/** Functions that participate in any call-graph cycle. */
std::vector<std::string> recursiveFunctions(const cir::TranslationUnit &tu);

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_SYNTH_CHECK_H

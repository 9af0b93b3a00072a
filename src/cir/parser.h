/**
 * @file
 * Recursive-descent parser producing CIR translation units.
 */

#ifndef HETEROGEN_CIR_PARSER_H
#define HETEROGEN_CIR_PARSER_H

#include <cstddef>
#include <string>

#include "cir/ast.h"

namespace heterogen::cir {

/**
 * Largest source, in bytes, the parser accepts. Work downstream of the
 * parser grows with source size, so one bound here keeps a huge flat
 * submission from tying up a service slot; every paper subject and
 * forum post is a few KB at most.
 */
constexpr size_t kMaxSourceBytes = size_t(1) << 20;

/**
 * Parse a whole CIR source buffer.
 * @throws FatalError with a location-bearing message on syntax errors,
 * and "source larger than N bytes" past kMaxSourceBytes.
 */
TuPtr parse(const std::string &source);

/** Parse a single expression (used by tests and repair templates). */
ExprPtr parseExpression(const std::string &source);

} // namespace heterogen::cir

#endif // HETEROGEN_CIR_PARSER_H

/**
 * @file
 * The evaluation subjects P1-P10 (Table 3).
 *
 * Eight microbenchmarks drawn from HeteroRefactor-style workloads and
 * Xilinx-forum scenarios plus two Rosetta-style applications, re-authored
 * in the CIR C subset at sizes comparable to the paper's. Each subject
 * carries: the original C program, its kernel and host entry points, a
 * hand-written "manual" HLS-C port (Table 5's Manual column), an optional
 * intentionally-wrong initial top-function name (Top Function errors),
 * and the pre-existing test inputs the paper reports for Table 4.
 */

#ifndef HETEROGEN_SUBJECTS_SUBJECTS_H
#define HETEROGEN_SUBJECTS_SUBJECTS_H

#include <string>
#include <vector>

#include "interp/kernel_arg.h"

namespace heterogen::subjects {

/** One evaluation subject. */
struct Subject
{
    std::string id;     ///< "P1".."P10"
    std::string name;   ///< e.g. "merge sort"
    std::string source; ///< original C program (CIR subset)
    std::string kernel; ///< kernel function name
    std::string host;   ///< host entry for seed capture ("" = none)
    /** Initial top-function configuration; "" = correct (the kernel).
     * A wrong name reproduces the paper's Top Function errors (P9). */
    std::string top_function;
    /** Hand-written HLS-C port (the paper's Manual column). */
    std::string manual_source;
    /** Pre-existing handcrafted tests (empty = N/A in Table 4). */
    std::vector<std::vector<interp::KernelArg>> existing_tests;
    /** Deterministic fuzzing seed so experiments replay. */
    uint64_t fuzz_seed = 1;
};

/** All ten subjects in order. */
const std::vector<Subject> &allSubjects();

/**
 * The streaming/dataflow workload class S1-S4: producer/consumer
 * chain, tiled GEMM, 2D stencil, and an FFT-like butterfly. Each hangs
 * in (modeled) hardware while simulating cleanly in software; kept out
 * of allSubjects() so the Table 3-5 experiment set is untouched.
 */
const std::vector<Subject> &streamingSubjects();

/** Lookup by id ("P3", "S1"); fatal on unknown id. */
const Subject &subjectById(const std::string &id);

} // namespace heterogen::subjects

#endif // HETEROGEN_SUBJECTS_SUBJECTS_H

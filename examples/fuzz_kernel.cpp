/**
 * @file
 * Test-generation demo: fuzz the image-processing subject's kernel and
 * show how coverage-guided, HLS-type-valid mutation grows branch
 * coverage compared to naive handcrafted inputs (the paper's §4).
 */

#include <cstdio>

#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "subjects/subjects.h"
#include "support/worker_pool.h"

using namespace heterogen;
using interp::KernelArg;

int
main()
{
    const subjects::Subject &subject = subjects::subjectById("P4");
    auto tu = cir::parse(subject.source);
    cir::analyzeOrDie(*tu);

    std::printf("fuzzing %s (%s), kernel '%s'\n", subject.id.c_str(),
                subject.name.c_str(), subject.kernel.c_str());

    // A lone handcrafted input, the way developers usually test.
    fuzz::TestSuite handcrafted;
    handcrafted.add({KernelArg::ofInts(std::vector<long>(256, 1)),
                     KernelArg::ofInts(std::vector<long>(256, 0)),
                     KernelArg::ofInt(8), KernelArg::ofInt(8),
                     KernelArg::ofInt(100)});
    auto manual_cov =
        fuzz::measureCoverage(*tu, subject.kernel, handcrafted);
    std::printf("handcrafted input:   %zu test, %.0f%% branch coverage\n",
                handcrafted.size(), 100.0 * manual_cov.coverage());

    // HeteroGen's campaign: seed captured at the kernel boundary of a
    // host run, then coverage-guided type-valid mutation.
    fuzz::FuzzOptions options;
    options.host_function = subject.host;
    options.rng_seed = subject.fuzz_seed;
    options.max_executions = 3000;
    RunContext ctx;
    WorkerPool pool; // sized by HETEROGEN_JOBS; never changes a result
    auto result = fuzz::fuzzKernel(ctx, *tu, subject.kernel, options, &pool);

    std::printf("generated campaign:  %zu tests retained from %d "
                "executions, %.0f%% branch coverage, %.0f simulated "
                "minutes\n",
                result.suite.size(), result.executions,
                100.0 * result.branchCoverage(), result.sim_minutes);
    std::printf("sample inputs:\n");
    for (size_t i = 0; i < result.suite.size() && i < 5; ++i)
        std::printf("  #%d %s\n", result.suite[i].id,
                    result.suite[i].str().c_str());
    return 0;
}

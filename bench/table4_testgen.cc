/**
 * @file
 * Table 4 — Generated tests: per subject, the number of generated tests,
 * simulated fuzzing time (minutes), and branch coverage, against the
 * pre-existing handcrafted tests where the paper reports any.
 *
 * Expected shape (paper): generated tests reach ~100% branch coverage on
 * most subjects (P9 is the hard one) and dominate the sparse existing
 * suites (25-70%).
 */

#include <cstdio>

#include "bench/common.h"
#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "support/worker_pool.h"

using namespace heterogen;

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv, {"--trace-out"});
    bench::TraceWriter traces(flags.value("--trace-out"));
    std::printf("Table 4: Generated tests (HG) vs existing tests\n");
    std::printf("%-4s %10s %8s %7s   %10s %7s\n", "", "HG #Tests",
                "Time(m)", "Cov.", "Exist. #", "Cov.");
    double total_tests = 0;
    double total_cov = 0;
    WorkerPool pool;
    for (const subjects::Subject &subject : subjects::allSubjects()) {
        auto tu = cir::parse(subject.source);
        cir::analyzeOrDie(*tu);

        auto opts = bench::standardOptions(subject);
        fuzz::FuzzOptions fo = opts.fuzz;
        fo.host_function = subject.host;
        RunContext ctx;
        fuzz::FuzzResult r =
            fuzz::fuzzKernel(ctx, *tu, subject.kernel, fo, &pool);
        traces.add(subject.id, ctx.traceJson());
        total_tests += double(r.suite.size());
        total_cov += r.branchCoverage();

        if (subject.existing_tests.empty()) {
            std::printf("%-4s %10zu %8.0f %6.0f%%   %10s %7s\n",
                        subject.id.c_str(), r.suite.size(),
                        r.sim_minutes, 100.0 * r.branchCoverage(),
                        "N/A", "N/A");
        } else {
            fuzz::TestSuite existing;
            for (const auto &args : subject.existing_tests)
                existing.add(args);
            auto cov = fuzz::measureCoverage(*tu, subject.kernel, existing);
            std::printf("%-4s %10zu %8.0f %6.0f%%   %10zu %6.0f%%\n",
                        subject.id.c_str(), r.suite.size(),
                        r.sim_minutes, 100.0 * r.branchCoverage(),
                        existing.size(), 100.0 * cov.coverage());
        }
    }
    std::printf("\naverage: %.0f tests per subject, %.0f%% branch "
                "coverage (paper: 2437 tests, 97%%)\n",
                total_tests / 10.0, 10.0 * total_cov);
    return 0;
}

/**
 * @file
 * Table 3 — Subjects and overall results: per subject, did HeteroGen
 * produce an HLS-compatible version, and did it beat the CPU original?
 *
 * Expected shape (paper): all ten compatible; all but P1 faster (P1 has
 * no loops or arrays, so no performance-improving edit applies).
 */

#include <cstdio>

#include "bench/common.h"

using namespace heterogen;

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv, {"--trace-out"});
    bench::TraceWriter traces(flags.value("--trace-out"));
    std::printf("Table 3: Subjects and overall results\n");
    std::printf("%-4s %-22s %-14s %-12s %-10s %s\n", "ID", "Subject",
                "Compatibility", "Improved?", "CPU (ms)", "FPGA (ms)");
    int compatible = 0;
    int improved = 0;
    for (const subjects::Subject &subject : subjects::allSubjects()) {
        core::HeteroGen engine(subject.source);
        auto report = engine.run(bench::standardOptions(subject));
        traces.add(subject.id, report.trace_json);
        bool ok = report.ok();
        compatible += ok ? 1 : 0;
        improved += report.search.improved ? 1 : 0;
        std::printf("%-4s %-22s %-14s %-12s %-10.4f %.4f\n",
                    subject.id.c_str(), subject.name.c_str(),
                    bench::mark(ok),
                    bench::mark(report.search.improved),
                    report.search.orig_cpu_ms, report.search.fpga_ms);
    }
    std::printf("\n%d/10 HLS compatible, %d/10 outperform the original "
                "CPU version (paper: 10/10 and 9/10)\n",
                compatible, improved);
    return 0;
}

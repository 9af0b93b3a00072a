/**
 * @file
 * Table 5 — Comparison against manual edits and HeteroRefactor:
 * per subject, ΔLOC and kernel runtime (ms) of the original (CPU), the
 * hand-written manual HLS port, HeteroRefactor's output, and HeteroGen's
 * output (all FPGA-simulated on the same model).
 *
 * Expected shape (paper): HeteroRefactor transpiles only P3 and P8 (its
 * scope is dynamic data structures); Manual beats HeteroGen, which beats
 * the CPU original on everything but P1; HeteroGen automates edits that
 * would otherwise be manual (ΔLOC).
 */

#include <cstdio>

#include "bench/common.h"
#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "hls/fpga_model.h"
#include "interp/interp.h"
#include "repair/diffstat.h"

using namespace heterogen;

namespace {

/** Mean latency of a program over the first `n` suite tests. */
double
meanLatency(const cir::TranslationUnit &tu, const std::string &kernel,
            const fuzz::TestSuite &suite, int n, bool fpga,
            const hls::HlsConfig &config)
{
    double total = 0;
    int count = 0;
    hls::FpgaDesign design(tu);
    for (int i = 0; i < n && i < int(suite.size()); ++i) {
        if (fpga) {
            auto r = hls::simulateFpga(design, config, kernel,
                                       suite[i].args);
            total += r.millis;
        } else {
            auto r = interp::runProgram(tu, kernel, suite[i].args);
            total += r.cpuMillis();
        }
        ++count;
    }
    return count ? total / count : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv, {"--trace-out"});
    bench::TraceWriter traces(flags.value("--trace-out"));
    std::printf("Table 5: Comparison against manual edits and "
                "HeteroRefactor\n");
    std::printf("%-4s %6s | %7s %7s %7s | %9s %9s %9s %9s\n", "ID",
                "LOC", "dM", "dHR", "dHG", "Origin", "Manual", "HR",
                "HG");
    const int kSample = 8;
    for (const subjects::Subject &subject : subjects::allSubjects()) {
        // HeteroGen.
        core::HeteroGen engine(subject.source);
        auto hg = engine.run(bench::standardOptions(subject));
        const auto &suite = hg.testgen.suite;
        hls::HlsConfig config = hg.search.config;

        // HeteroRefactor: restricted edit set, same pipeline.
        auto hr = engine.run(
            core::heteroRefactor(bench::standardOptions(subject)));
        traces.add(subject.id + "/HG", hg.trace_json);
        traces.add(subject.id + "/HR", hr.trace_json);

        // Manual port.
        auto manual = cir::parse(subject.manual_source);
        cir::analyzeOrDie(*manual);
        repair::DiffStat manual_diff =
            repair::diffLines(cir::print(engine.program()),
                              cir::print(*manual));

        auto orig = cir::parse(subject.source);
        cir::analyzeOrDie(*orig);

        double origin_ms = meanLatency(*orig, subject.kernel, suite,
                                       kSample, false, config);
        hls::HlsConfig manual_config =
            hls::HlsConfig::forTop(subject.kernel);
        double manual_ms = meanLatency(*manual, subject.kernel, suite,
                                       kSample, true, manual_config);
        double hg_ms = hg.ok()
                           ? meanLatency(*hg.search.program,
                                         config.top_function, suite,
                                         kSample, true, config)
                           : 0;
        double hr_ms = hr.ok()
                           ? meanLatency(*hr.search.program,
                                         hr.search.config.top_function,
                                         suite, kSample, true,
                                         hr.search.config)
                           : 0;

        auto cell = [](bool ok, int v) {
            static char buf[2][16];
            static int which = 0;
            which ^= 1;
            if (ok)
                std::snprintf(buf[which], sizeof(buf[which]), "%7d", v);
            else
                std::snprintf(buf[which], sizeof(buf[which]), "%7s",
                              "x");
            return buf[which];
        };
        auto ms_cell = [](bool ok, double v) {
            static char buf[4][16];
            static int which = 0;
            which = (which + 1) % 4;
            if (ok)
                std::snprintf(buf[which], sizeof(buf[which]), "%9.4f",
                              v);
            else
                std::snprintf(buf[which], sizeof(buf[which]), "%9s",
                              "x");
            return buf[which];
        };
        std::printf("%-4s %6d | %7d %s %s | %9.4f %s %s %s\n",
                    subject.id.c_str(), hg.orig_loc,
                    manual_diff.delta(),
                    cell(hr.ok(), hr.search.diff.delta()),
                    cell(hg.ok(), hg.search.diff.delta()), origin_ms,
                    ms_cell(true, manual_ms), ms_cell(hr.ok(), hr_ms),
                    ms_cell(hg.ok(), hg_ms));
    }
    std::printf("\n(dM/dHR/dHG = edited lines vs the original; 'x' = "
                "transpilation failed; runtimes in ms)\n");
    std::printf("paper shape: HR succeeds only on P3+P8; "
                "Manual < HG < Origin runtime except P1\n");
    return 0;
}

/**
 * @file
 * heterogen-transpile: a command-line C-to-HLS-C transpiler.
 *
 * Usage:
 *   transpile_tool <source.c> <kernel-name> [host-name]
 *   transpile_tool --subject P3        # run on a bundled subject
 *
 * Reads a program in the CIR C subset, runs the full HeteroGen pipeline
 * and writes the HLS-C result to stdout (report to stderr).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/heterogen.h"
#include "subjects/subjects.h"
#include "support/strings.h"

using namespace heterogen;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: transpile_tool <source.c> <kernel> [host]\n"
                 "       transpile_tool --subject <P1..P10>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string source;
    std::string kernel;
    std::string host;

    if (argc >= 3 && std::string(argv[1]) == "--subject") {
        const subjects::Subject &s = subjects::subjectById(argv[2]);
        source = s.source;
        kernel = s.kernel;
        host = s.host;
        std::fprintf(stderr, "subject %s (%s), kernel '%s'\n",
                     s.id.c_str(), s.name.c_str(), kernel.c_str());
    } else if (argc >= 3) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        source = buf.str();
        kernel = argv[2];
        if (argc >= 4)
            host = argv[3];
    } else {
        return usage();
    }

    try {
        core::HeteroGen engine(source);
        core::HeteroGenOptions options;
        options.kernel = kernel;
        options.fuzz.host_function = host;
        options.fuzz.max_executions = 2000;
        options.search.budget_minutes = 180;

        core::HeteroGenReport report = engine.run(options);

        std::printf("%s", report.hls_source.c_str());
        std::fprintf(stderr,
                     "\n-- %s | %zu tests (%.0f%% coverage) | edits: %s "
                     "| CPU %.4f ms -> FPGA %.4f ms | %.1f simulated "
                     "minutes\n",
                     report.ok() ? "HLS-COMPATIBLE" : "INCOMPLETE",
                     report.testgen.suite.size(),
                     100.0 * report.testgen.branchCoverage(),
                     join(report.search.applied_order, ", ").c_str(),
                     report.search.orig_cpu_ms, report.search.fpga_ms,
                     report.total_minutes);
        return report.ok() ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}

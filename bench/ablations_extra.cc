/**
 * @file
 * Ablations of two design choices beyond the paper's Figure 9 (items 3
 * and 4 in DESIGN.md):
 *
 *   (a) seeded, HLS-type-valid mutation vs blind random inputs — the §4
 *       argument for capturing intermediate state at the kernel boundary
 *       and keeping mutants type-valid;
 *   (b) profile-guided bitwidth narrowing vs declared widths — the §2
 *       argument that finitizing bit widths saves FPGA resources.
 */

#include <cstdio>

#include "bench/common.h"
#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "hls/resource.h"
#include "repair/transforms.h"
#include "support/worker_pool.h"

using namespace heterogen;

namespace {

/** Coverage after a fixed execution budget with/without host seeding. */
void
mutationAblation()
{
    std::printf("(a) seeded type-valid mutation vs unseeded random "
                "inputs (coverage after 600 executions)\n");
    std::printf("%-4s %10s %12s\n", "", "seeded", "unseeded");
    WorkerPool pool;
    for (const char *id : {"P3", "P4", "P5", "P8", "P9"}) {
        const subjects::Subject &s = subjects::subjectById(id);
        auto tu = cir::parse(s.source);
        cir::analyzeOrDie(*tu);

        fuzz::FuzzOptions seeded;
        seeded.host_function = s.host;
        seeded.rng_seed = s.fuzz_seed;
        seeded.max_executions = 600;
        seeded.plateau_minutes = 1e9;
        RunContext seeded_ctx;
        auto with_seed =
            fuzz::fuzzKernel(seeded_ctx, *tu, s.kernel, seeded, &pool);

        fuzz::FuzzOptions blind = seeded;
        blind.host_function.clear(); // random seed instead of captured
        RunContext blind_ctx;
        auto without_seed =
            fuzz::fuzzKernel(blind_ctx, *tu, s.kernel, blind, &pool);

        std::printf("%-4s %9.0f%% %11.0f%%\n", id,
                    100.0 * with_seed.branchCoverage(),
                    100.0 * without_seed.branchCoverage());
    }
}

/** Resource estimate of the repaired design with/without narrowing. */
void
bitwidthAblation()
{
    std::printf("\n(b) profile-guided bitwidth narrowing: FF bits of "
                "the final design\n");
    std::printf("%-4s %12s %12s %9s\n", "", "narrowed", "declared",
                "saved");
    for (const char *id : {"P3", "P5", "P7", "P10"}) {
        const subjects::Subject &s = subjects::subjectById(id);
        core::HeteroGen engine(s.source);

        auto narrowed_opts = bench::standardOptions(s);
        auto narrowed = engine.run(narrowed_opts);

        auto declared_opts = bench::standardOptions(s);
        declared_opts.narrow_bitwidths = false;
        auto declared = engine.run(declared_opts);

        auto rn = hls::estimateResources(*narrowed.search.program);
        auto rd = hls::estimateResources(*declared.search.program);
        double saved =
            rd.ffs > 0 ? 100.0 * double(rd.ffs - rn.ffs) / rd.ffs : 0;
        std::printf("%-4s %12ld %12ld %8.1f%%\n", id, rn.ffs, rd.ffs,
                    saved);
    }
}

} // namespace

int
main()
{
    std::printf("Extra design-choice ablations (DESIGN.md items 3-4)\n\n");
    mutationAblation();
    bitwidthAblation();
    return 0;
}

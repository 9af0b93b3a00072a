/**
 * @file
 * Ablation of a design choice beyond the paper's Figure 9 (item 4 in
 * DESIGN.md): profile-guided bitwidth narrowing vs declared widths —
 * the §2 argument that finitizing bit widths saves FPGA resources.
 */

#include <cstdio>

#include "bench/common.h"
#include "hls/resource.h"

using namespace heterogen;

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("Profile-guided bitwidth narrowing (DESIGN.md item 4): "
                "FF bits of the final design\n");
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
    return 0;
}

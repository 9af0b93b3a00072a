/**
 * @file
 * Figure 9 — Time and HLS invocations: for every subject, the simulated
 * repair wall-clock of HeteroGen vs the WithoutDependence baseline, and
 * the fraction of repair attempts that invoked the full HLS toolchain
 * for HeteroGen vs the WithoutChecker baseline.
 *
 * Expected shape (paper): dependence-guided search is up to ~35x faster
 * than random-order exploration (which can fail outright on P9 within
 * 12 hours); the style checker lets HeteroGen skip a large share of
 * full HLS invocations while WithoutChecker pays one per attempt.
 *
 * --proposers switches to the proposer race: the same P1-P10 repairs
 * under identical simulated-minute budgets, once per candidate proposer
 * (template enumeration, corpus-mined rewrites), and
 * writes the per-proposer repair/latency/invocation numbers to
 * BENCH_proposers.json (--out overrides; --out without --proposers is
 * an error). Deterministic end to end — reruns reproduce the JSON
 * exactly, and the CI golden job checks that.
 */

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "repair/proposer.h"

using namespace heterogen;

namespace {

/** One proposer x subject cell of the race. */
struct RaceRun
{
    std::string subject;
    bool repaired = false;
    double minutes_to_success = 0;
    double sim_minutes = 0;
    double hls_invocation_ratio = 0;
    int iterations = 0;
    int edits = 0;
};

int
runProposerRace(const std::string &out_path, bench::TraceWriter &traces)
{
    const std::vector<subjects::Subject> &pool = subjects::allSubjects();

    std::printf("Proposer race: %zu subjects x %zu proposers, equal "
                "%.0f-minute simulated budgets\n",
                pool.size(), repair::proposerNames().size(), 180.0);
    std::printf("%-4s | %-8s | %-4s %12s %9s %7s\n", "", "proposer",
                "ok", "min-to-fix", "sim-min", "inv%");

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"fig9_ablation --proposers\",\n");
    std::fprintf(out, "  \"budget_minutes\": 180,\n");
    std::fprintf(out, "  \"subjects\": %zu,\n", pool.size());
    std::fprintf(out, "  \"proposers\": [\n");

    bool first_proposer = true;
    for (const std::string &proposer : repair::proposerNames()) {
        std::vector<RaceRun> runs;
        for (const subjects::Subject &subject : pool) {
            auto opts = bench::standardOptions(subject);
            opts.search.proposer = proposer;
            core::HeteroGen engine(subject.source);
            auto report = engine.run(opts);
            traces.add(subject.id + "/" + proposer, report.trace_json);

            RaceRun run;
            run.subject = subject.id;
            run.repaired = report.ok();
            run.minutes_to_success = report.search.minutes_to_success;
            run.sim_minutes = report.search.sim_minutes;
            run.hls_invocation_ratio =
                report.search.hlsInvocationRatio();
            run.iterations = report.search.iterations;
            run.edits = int(report.search.applied_order.size());
            runs.push_back(run);

            std::printf("%-4s | %-8s | %-4s %12.2f %9.2f %6.0f%%\n",
                        run.subject.c_str(), proposer.c_str(),
                        run.repaired ? "yes" : "no",
                        run.minutes_to_success, run.sim_minutes,
                        100.0 * run.hls_invocation_ratio);
        }

        int repaired = 0;
        double fix_minutes = 0, inv_ratio = 0;
        for (const RaceRun &run : runs) {
            if (run.repaired) {
                repaired += 1;
                fix_minutes += run.minutes_to_success;
            }
            inv_ratio += run.hls_invocation_ratio;
        }
        double mean_fix =
            repaired > 0 ? fix_minutes / repaired : 0;
        double mean_inv = runs.empty() ? 0 : inv_ratio / runs.size();

        std::fprintf(out, "%s    {\"name\": \"%s\", \"repaired\": %d, "
                          "\"mean_minutes_to_success\": %.4f, "
                          "\"mean_hls_invocation_ratio\": %.4f,\n",
                     first_proposer ? "" : ",\n", proposer.c_str(),
                     repaired, mean_fix, mean_inv);
        std::fprintf(out, "     \"runs\": [\n");
        for (size_t i = 0; i < runs.size(); ++i) {
            const RaceRun &run = runs[i];
            std::fprintf(
                out,
                "       {\"subject\": \"%s\", \"repaired\": %s, "
                "\"minutes_to_success\": %.4f, \"sim_minutes\": %.4f, "
                "\"hls_invocation_ratio\": %.4f, \"iterations\": %d, "
                "\"edits\": %d}%s\n",
                run.subject.c_str(), run.repaired ? "true" : "false",
                run.minutes_to_success, run.sim_minutes,
                run.hls_invocation_ratio, run.iterations, run.edits,
                i + 1 < runs.size() ? "," : "");
        }
        std::fprintf(out, "     ]}");
        first_proposer = false;
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("\nproposer-race baseline written to %s\n",
                out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv, {"--out", "--trace-out"},
                       {"--proposers"});
    bench::TraceWriter traces(flags.value("--trace-out"));
    if (flags.has("--proposers"))
        return runProposerRace(
            flags.value("--out", "BENCH_proposers.json"), traces);
    if (flags.has("--out")) {
        std::fprintf(stderr, "%s: --out needs --proposers (the Figure 9 "
                             "table goes to stdout)\n",
                     argv[0]);
        return 2;
    }

    std::printf("Figure 9: repair time and HLS invocation ablations\n");
    std::printf("%-4s | %9s %9s %8s | %7s %7s\n", "", "HG(min)",
                "NoDep", "speedup", "HG inv%", "NoChk%");
    double max_speedup = 1;
    for (const subjects::Subject &subject : subjects::allSubjects()) {
        auto base_opts = bench::standardOptions(subject);
        // Give the random-order baseline the paper's 12-hour ceiling.
        auto nodep_opts = core::withoutDependence(base_opts);
        nodep_opts.search.budget_minutes = 720.0;
        nodep_opts.search.max_iterations = 4000;

        core::HeteroGen engine(subject.source);
        auto hg = engine.run(base_opts);
        auto nodep = engine.run(nodep_opts);
        auto nochk = engine.run(core::withoutChecker(base_opts));
        traces.add(subject.id + "/HG", hg.trace_json);
        traces.add(subject.id + "/NoDep", nodep.trace_json);
        traces.add(subject.id + "/NoChk", nochk.trace_json);

        double hg_min = hg.search.minutes_to_success;
        double nodep_min = nodep.search.minutes_to_success;
        double speedup = hg_min > 0 ? nodep_min / hg_min : 0;
        if (nodep.ok())
            max_speedup = std::max(max_speedup, speedup);
        std::printf("%-4s | %9.1f %9.1f %7.1fx | %6.0f%% %6.0f%%%s\n",
                    subject.id.c_str(), hg_min, nodep_min, speedup,
                    100.0 * hg.search.hlsInvocationRatio(),
                    100.0 * nochk.search.hlsInvocationRatio(),
                    nodep.ok() ? "" : "   (NoDep FAILED)");
    }
    std::printf("\nmax dependence-guided speedup observed: %.1fx "
                "(paper: up to 35x, and the paper's NoDep fails P9 "
                "within 12h)\n",
                max_speedup);
    return 0;
}

/**
 * @file
 * Streaming-workload repair bench: runs the S1-S4 dataflow subjects
 * through the full pipeline and reports the stream-repair headline
 * numbers — repair success rate, simulated time-to-fix, hang-detector
 * verdicts on the broken sources, and the fifo-stall cycles the repair
 * removed (priced both by the static dataflow schedule and by the
 * cycle-accurate fpga model on a concrete input).
 *
 *   ./bench/stream_repair [--out BENCH_stream.json]
 *
 * The bench also re-checks the determinism contracts the stream tests
 * pin: a warm rerun over the same verdict cache must be bit-identical
 * and answer every compile from disk, and a run on an 8-thread pool
 * must reproduce the single-threaded report exactly. Any drift exits
 * non-zero, and the CI golden job compares the JSON it writes with
 * BENCH_stream.json byte for byte.
 */

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/common.h"
#include "cir/parser.h"
#include "hls/dataflow.h"
#include "hls/fpga_model.h"
#include "support/run_context.h"
#include "support/strings.h"
#include "support/trace.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

namespace fs = std::filesystem;

/** Every knob pinned, mirroring the stream-test discipline. */
core::HeteroGenOptions
streamOptions(const subjects::Subject &s, const std::string &cache_dir,
              WorkerPool &pool)
{
    core::HeteroGenOptions opts;
    opts.kernel = s.kernel;
    opts.narrow_bitwidths = false;
    opts.fuzz.host_function = s.host;
    opts.fuzz.rng_seed = s.fuzz_seed;
    opts.fuzz.max_executions = 60;
    opts.fuzz.mutations_per_input = 6;
    opts.fuzz.min_suite_size = 8;
    opts.fuzz.max_steps_per_run = 400000;
    opts.fuzz.plateau_minutes = 30.0;
    opts.fuzz.budget_minutes = 120.0;
    opts.search.rng_seed = 7;
    opts.search.difftest_sample = 8;
    opts.search.budget_minutes = 400.0;
    opts.search.max_iterations = 2000;
    opts.search.proposer = "template";
    opts.cache_dir = cache_dir;
    opts.eval_pool = &pool;
    return opts;
}

struct RunSample
{
    core::HeteroGenReport report;
    int64_t hls_compiles = 0;
    int64_t disk_hits = 0;
};

RunSample
runSubject(const subjects::Subject &s, const core::HeteroGenOptions &opts)
{
    core::HeteroGen engine(s.source);
    RunContext ctx;
    RunSample sample;
    sample.report = engine.run(ctx, opts);
    sample.hls_compiles = ctx.trace().counterTotal("hls.compiles");
    sample.disk_hits = ctx.trace().counterTotal("repair.diskcache.hits");
    return sample;
}

/** The determinism contract, field by field. */
bool
identical(const core::HeteroGenReport &a, const core::HeteroGenReport &b,
          const std::string &id)
{
    bool ok = true;
    auto complain = [&](const char *field) {
        std::fprintf(stderr, "%s: rerun diverged on %s\n", id.c_str(),
                     field);
        ok = false;
    };
    if (a.hls_source != b.hls_source)
        complain("hls_source");
    if (a.total_minutes != b.total_minutes)
        complain("total_minutes");
    if (a.search.pass_ratio != b.search.pass_ratio)
        complain("search.pass_ratio");
    if (a.search.sim_minutes != b.search.sim_minutes)
        complain("search.sim_minutes");
    if (a.search.iterations != b.search.iterations)
        complain("search.iterations");
    if (a.search.full_hls_invocations != b.search.full_hls_invocations)
        complain("search.full_hls_invocations");
    if (a.search.applied_order != b.search.applied_order)
        complain("search.applied_order");
    if (a.search.trace.size() != b.search.trace.size()) {
        complain("search.trace.size");
    } else {
        for (size_t i = 0; i < a.search.trace.size(); ++i) {
            if (a.search.trace[i].action != b.search.trace[i].action ||
                a.search.trace[i].minutes_after !=
                    b.search.trace[i].minutes_after) {
                complain("search.trace step");
                break;
            }
        }
    }
    return ok;
}

/** Static dataflow-schedule stall cycles of a source's kernel region. */
uint64_t
scheduleStalls(const cir::TranslationUnit &tu, const std::string &kernel)
{
    const cir::FunctionDecl *fn = tu.findFunction(kernel);
    if (!fn)
        return 0;
    hls::DataflowTopology topo =
        hls::extractTopology(tu, *fn, hls::HlsConfig::forTop(kernel));
    return hls::fifoStallCycles(topo);
}

/** Per-subject bench record. */
struct SubjectResult
{
    std::string id;
    bool repaired = false;
    double minutes_to_fix = 0.0;
    int64_t iterations = 0;
    size_t hang_errors = 0;
    std::string hang_codes;
    uint64_t stalls_before = 0;
    uint64_t stalls_after = 0;
    uint64_t fpga_cycles_before = 0;
    uint64_t fpga_cycles_after = 0;
    std::string applied;
};

int
benchMain(int argc, char **argv)
{
    std::string out_path =
        bench::Flags(argc, argv, {"--out"}).value("--out", "BENCH_stream.json");

    fs::path cache_dir =
        fs::temp_directory_path() /
        ("hg-bench-stream-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::remove_all(cache_dir, ec);

    const std::vector<subjects::Subject> &workload =
        subjects::streamingSubjects();

    std::printf("stream_repair: %zu streaming subjects, cache at %s\n",
                workload.size(), cache_dir.string().c_str());

    std::vector<SubjectResult> results;
    bool contracts_ok = true;
    int64_t warm_compiles = 0;
    WorkerPool serial(1);
    WorkerPool wide_pool(8);

    for (const subjects::Subject &s : workload) {
        SubjectResult r;
        r.id = s.id;

        // Hang-detector verdict on the broken source.
        auto broken_tu = cir::parse(s.source);
        const cir::FunctionDecl *fn = broken_tu->findFunction(s.kernel);
        hls::DataflowTopology broken = hls::extractTopology(
            *broken_tu, *fn, hls::HlsConfig::forTop(s.kernel));
        std::vector<hls::HlsError> hangs = hls::detectHangs(broken);
        r.hang_errors = hangs.size();
        std::vector<std::string> codes;
        for (const hls::HlsError &e : hangs)
            codes.push_back(e.code);
        r.hang_codes = join(codes, ", ");
        r.stalls_before = hls::fifoStallCycles(broken);

        // Cold repair run against the shared cache.
        RunSample cold =
            runSubject(s, streamOptions(s, cache_dir.string(), serial));
        r.repaired = cold.report.ok();
        r.minutes_to_fix = cold.report.search.minutes_to_success;
        r.iterations = cold.report.search.iterations;
        r.applied = join(cold.report.search.applied_order, ", ");

        if (r.repaired) {
            auto fixed_tu = cir::parse(cold.report.hls_source);
            r.stalls_after = scheduleStalls(*fixed_tu, s.kernel);
            // Cycle-accurate pricing on the subject's concrete input.
            hls::HlsConfig config = hls::HlsConfig::forTop(s.kernel);
            hls::FpgaRunResult before =
                hls::simulateFpga(hls::FpgaDesign(*broken_tu), config,
                                  s.kernel, s.existing_tests.at(0));
            hls::FpgaRunResult after =
                hls::simulateFpga(hls::FpgaDesign(*fixed_tu), config,
                                  s.kernel, s.existing_tests.at(0));
            if (before.run.ok && after.run.ok) {
                r.fpga_cycles_before = before.fpga_cycles;
                r.fpga_cycles_after = after.fpga_cycles;
            }
        }

        // Contract 1: the warm rerun is bit-identical and compile-free.
        RunSample warm =
            runSubject(s, streamOptions(s, cache_dir.string(), serial));
        contracts_ok &= identical(cold.report, warm.report,
                                  s.id + " (warm)");
        warm_compiles += warm.hls_compiles;

        // Contract 2: the pool size cannot show in the report.
        RunSample threaded =
            runSubject(s, streamOptions(s, "", wide_pool));
        contracts_ok &= identical(cold.report, threaded.report,
                                  s.id + " (threads=8)");

        std::printf("  %-3s repaired=%s hangs=%zu [%s] stalls %" PRIu64
                    " -> %" PRIu64 " fix=%.2f min via [%s]\n",
                    s.id.c_str(), r.repaired ? "yes" : "NO",
                    r.hang_errors, r.hang_codes.c_str(),
                    r.stalls_before, r.stalls_after, r.minutes_to_fix,
                    r.applied.c_str());
        results.push_back(r);
    }

    if (warm_compiles != 0) {
        std::fprintf(stderr,
                     "warm phase invoked the toolchain %" PRId64
                     " times (want 0)\n",
                     warm_compiles);
        contracts_ok = false;
    }

    size_t repaired = 0;
    uint64_t stalls_removed = 0;
    for (const SubjectResult &r : results) {
        repaired += r.repaired ? 1 : 0;
        stalls_removed += r.stalls_before - r.stalls_after;
    }
    std::printf("repaired %zu/%zu, %" PRIu64
                " fifo-stall cycles removed, contracts=%s\n",
                repaired, results.size(), stalls_removed,
                contracts_ok ? "ok" : "VIOLATED");

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"stream_repair\",\n");
    std::fprintf(out, "  \"subjects\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const SubjectResult &r = results[i];
        std::fprintf(out,
                     "    {\"id\": \"%s\", \"repaired\": %s, "
                     "\"minutes_to_fix\": %.6f, \"iterations\": %" PRId64
                     ", \"hang_errors\": %zu, \"hang_codes\": \"%s\", "
                     "\"fifo_stall_cycles_before\": %" PRIu64
                     ", \"fifo_stall_cycles_after\": %" PRIu64
                     ", \"fpga_cycles_before\": %" PRIu64
                     ", \"fpga_cycles_after\": %" PRIu64
                     ", \"applied\": \"%s\"}%s\n",
                     r.id.c_str(), r.repaired ? "true" : "false",
                     r.minutes_to_fix, r.iterations, r.hang_errors,
                     r.hang_codes.c_str(), r.stalls_before,
                     r.stalls_after, r.fpga_cycles_before,
                     r.fpga_cycles_after, r.applied.c_str(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"repair_success_rate\": %.2f,\n",
                 results.empty()
                     ? 0.0
                     : static_cast<double>(repaired) /
                           static_cast<double>(results.size()));
    std::fprintf(out, "  \"fifo_stall_cycles_removed\": %" PRIu64 ",\n",
                 stalls_removed);
    std::fprintf(out, "  \"warm_hls_compiles\": %" PRId64 ",\n",
                 warm_compiles);
    std::fprintf(out, "  \"reports_bit_identical\": %s\n",
                 contracts_ok ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    fs::remove_all(cache_dir, ec);
    if (!contracts_ok || repaired != results.size())
        return 1;
    return 0;
}

} // namespace
} // namespace heterogen

int
main(int argc, char **argv)
{
    return heterogen::benchMain(argc, argv);
}

/** @file Streaming/dataflow workload class: fifo topology extraction,
 * deterministic hang detection, stall accounting, and the
 * hang-diagnostic -> stream-repair path end to end on the S1-S4
 * subjects. Property contracts pinned here:
 *   - deeper fifos never increase stall cycles (monotonicity);
 *   - the hang detector fires iff the region topology is unserialized
 *     (shared array traffic, producer skew, or rate-mismatch backlog
 *      beyond the configured depth);
 *   - repaired reports are bit-identical across pool sizes and
 *     re-runs.
 */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "core/heterogen.h"
#include "hls/dataflow.h"
#include "hls/errors.h"
#include "hls/fpga_model.h"
#include "repair/localizer.h"
#include "subjects/subjects.h"
#include "support/strings.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

using hls::DataflowTopology;
using hls::ErrorCategory;
using hls::HlsConfig;
using hls::HlsError;

/** Parse a subject source and extract its kernel's topology. */
DataflowTopology
topologyOf(const std::string &source, const std::string &kernel,
           long stream_depth)
{
    static std::vector<cir::TuPtr> keep_alive;
    keep_alive.push_back(cir::parse(source));
    const cir::TranslationUnit &tu = *keep_alive.back();
    const cir::FunctionDecl *fn = tu.findFunction(kernel);
    EXPECT_NE(fn, nullptr);
    HlsConfig config = HlsConfig::forTop(kernel);
    config.stream_depth = stream_depth;
    return hls::extractTopology(tu, *fn, config);
}

const subjects::Subject &
streaming(const std::string &id)
{
    for (const subjects::Subject &s : subjects::streamingSubjects()) {
        if (s.id == id)
            return s;
    }
    ADD_FAILURE() << "unknown streaming subject " << id;
    static subjects::Subject none;
    return none;
}

// --- topology extraction ---------------------------------------------------

TEST(StreamTopology, ChainExtractsChannelAndSharedArray)
{
    DataflowTopology topo =
        topologyOf(streaming("S1").source, "chain_kernel", 2);
    ASSERT_EQ(topo.processes.size(), 3u);
    ASSERT_EQ(topo.channels.size(), 1u);
    EXPECT_EQ(topo.channels[0].name, "mid");
    EXPECT_EQ(topo.channels[0].tokens, 64);
    EXPECT_EQ(topo.channels[0].depth, 2);
    EXPECT_EQ(topo.channels[0].writer, 0);
    EXPECT_EQ(topo.channels[0].reader, 1);
    ASSERT_EQ(topo.shared_arrays.size(), 1u);
    EXPECT_EQ(topo.shared_arrays[0], "buf");
}

TEST(StreamTopology, ButterflyBankConflictInflatesReaderII)
{
    DataflowTopology topo =
        topologyOf(streaming("S4").source, "fft_kernel", 2);
    ASSERT_EQ(topo.processes.size(), 2u);
    EXPECT_EQ(topo.processes[0].ii, 1); // butterfly: 1 access per array
    EXPECT_EQ(topo.processes[1].ii, 4); // untwiddle: 8 taps on 2 ports
    ASSERT_EQ(topo.channels.size(), 1u);
    EXPECT_EQ(topo.channels[0].tokens, 2048);
    // Backlog: ceil(2048 * (4 - 1) / 4) = 1536 — beyond the legal
    // depth cap, so depth sizing alone cannot fix this subject.
    EXPECT_EQ(hls::requiredDepth(topo, topo.channels[0]), 1536);
}

TEST(StreamTopology, PlainArrayRegionHasNoChannels)
{
    // The legacy gate: a dataflow region without fifo channels keeps
    // its pre-streaming semantics (no streaming diagnostics at all).
    const char *plain = R"(
        void bump(int data[16]) {
            for (int i = 0; i < 16; i++) { data[i] = data[i] + 1; }
        }
        int kernel(int seedv) {
            #pragma HLS dataflow
            int data[16];
            for (int i = 0; i < 16; i++) { data[i] = seedv + i; }
            bump(data);
            bump(data);
            int acc = 0;
            for (int i = 0; i < 16; i++) { acc += data[i]; }
            return acc;
        }
    )";
    DataflowTopology topo = topologyOf(plain, "kernel", 2);
    EXPECT_TRUE(topo.channels.empty());
    EXPECT_TRUE(hls::detectHangs(topo).empty());
}

// --- hang detection --------------------------------------------------------

TEST(StreamHangs, FiresIffTopologyIsUnserialized)
{
    // Original sources hang; each expert port is serialized and clean.
    struct Case
    {
        const char *id;
        const char *code;   // expected diagnostic code
        const char *symbol; // expected localized symbol
    };
    const Case cases[] = {
        {"S1", "XFORM 203-715", "buf"},
        {"S2", "XFORM 203-715", "cbuf"},
        {"S3", "XFORM 203-713", "ns"},
        {"S4", "XFORM 203-713", "xs"},
    };
    for (const Case &c : cases) {
        const subjects::Subject &s = streaming(c.id);
        DataflowTopology broken = topologyOf(s.source, s.kernel, 2);
        std::vector<HlsError> errors = hls::detectHangs(broken);
        ASSERT_EQ(errors.size(), 1u) << c.id;
        EXPECT_EQ(errors[0].code, c.code) << c.id;
        EXPECT_EQ(errors[0].symbol, c.symbol) << c.id;
        EXPECT_EQ(errors[0].category, ErrorCategory::StreamingDataflow)
            << c.id;

        DataflowTopology fixed =
            topologyOf(s.manual_source, s.kernel, 2);
        EXPECT_FALSE(fixed.channels.empty()) << c.id;
        EXPECT_TRUE(hls::detectHangs(fixed).empty())
            << c.id << ": expert port must be hang-free";
    }
}

TEST(StreamHangs, DetectorIsDeterministic)
{
    const subjects::Subject &s = streaming("S3");
    DataflowTopology topo = topologyOf(s.source, s.kernel, 2);
    std::vector<HlsError> first = hls::detectHangs(topo);
    for (int i = 0; i < 10; ++i) {
        std::vector<HlsError> again = hls::detectHangs(topo);
        ASSERT_EQ(again.size(), first.size());
        for (size_t k = 0; k < first.size(); ++k)
            EXPECT_EQ(again[k].message, first[k].message);
    }
}

TEST(StreamHangs, SkewedJoinNeedsFullTokenBuffer)
{
    const subjects::Subject &s = streaming("S3");
    for (long depth : {1L, 2L, 16L, 63L}) {
        DataflowTopology topo = topologyOf(s.source, s.kernel, depth);
        EXPECT_FALSE(hls::detectHangs(topo).empty()) << depth;
    }
    DataflowTopology deep = topologyOf(s.source, s.kernel, 64);
    EXPECT_TRUE(hls::detectHangs(deep).empty());
}

TEST(StreamHangs, ClassifierRoutesStreamingVocabulary)
{
    EXPECT_EQ(repair::classifyMessage(
                  hls::diag::streamDeadlock("c", 64, 2, {}).message),
              ErrorCategory::StreamingDataflow);
    EXPECT_EQ(repair::classifyMessage(
                  hls::diag::streamStarvation("c", {}).message),
              ErrorCategory::StreamingDataflow);
    EXPECT_EQ(repair::classifyMessage(
                  hls::diag::unserializedDataflow("buf", {}).message),
              ErrorCategory::StreamingDataflow);
    // A bare "stream" keeps routing to the struct rule (P8's
    // stream_static chain must not be hijacked).
    EXPECT_EQ(repair::classifyMessage(
                  "the stream member needs a static declaration"),
              ErrorCategory::StructAndUnion);
}

// --- stall accounting ------------------------------------------------------

TEST(StreamStalls, DeeperFifosNeverIncreaseStallCycles)
{
    for (const subjects::Subject &s : subjects::streamingSubjects()) {
        uint64_t previous = ~uint64_t(0);
        for (long depth = 1; depth <= 1024; depth *= 2) {
            DataflowTopology topo =
                topologyOf(s.source, s.kernel, depth);
            uint64_t stalls = hls::fifoStallCycles(topo);
            EXPECT_LE(stalls, previous)
                << s.id << " at depth " << depth;
            previous = stalls;
        }
    }
}

TEST(StreamStalls, RepairRemovesButterflyBackpressure)
{
    // The S4 expert port prices to zero stall cycles; the broken
    // original pays (2048 - depth) * (ii_r - ii_w).
    const subjects::Subject &s = streaming("S4");
    DataflowTopology broken = topologyOf(s.source, s.kernel, 2);
    EXPECT_EQ(hls::fifoStallCycles(broken), uint64_t(2046) * 3);
    DataflowTopology fixed = topologyOf(s.manual_source, s.kernel, 2);
    EXPECT_EQ(hls::fifoStallCycles(fixed), 0u);
}

TEST(StreamStalls, FpgaModelChargesStallsAndCreditsOverlap)
{
    const subjects::Subject &s = streaming("S4");
    auto tu = cir::parse(s.source);
    HlsConfig config = HlsConfig::forTop(s.kernel);
    std::vector<interp::KernelArg> args = s.existing_tests.at(0);
    hls::FpgaRunResult r =
        hls::simulateFpga(hls::FpgaDesign(*tu), config, s.kernel, args);
    ASSERT_TRUE(r.run.ok) << r.run.trap;
    EXPECT_EQ(r.stream_processes, 2);
    EXPECT_GT(r.fifo_stall_cycles, 0u);

    auto fixed_tu = cir::parse(s.manual_source);
    hls::FpgaRunResult fixed =
        hls::simulateFpga(hls::FpgaDesign(*fixed_tu), config, s.kernel,
                          args);
    ASSERT_TRUE(fixed.run.ok) << fixed.run.trap;
    EXPECT_EQ(fixed.fifo_stall_cycles, 0u);
    EXPECT_LT(fixed.fpga_cycles, r.fpga_cycles)
        << "removing backpressure must not slow the design down";
}

// --- end-to-end repair -----------------------------------------------------

/** Every knob pinned, mirroring the golden-test discipline. */
core::HeteroGenOptions
streamOptions(const subjects::Subject &s)
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
    opts.search.use_style_checker = true;
    opts.search.use_dependence = true;
    opts.search.proposer = "template";
    return opts;
}

/** Relative-order containment: needles appear in haystack order. */
bool
appliedInOrder(const std::vector<std::string> &applied,
               const std::vector<std::string> &expected)
{
    size_t at = 0;
    for (const std::string &name : applied) {
        if (at < expected.size() && name == expected[at])
            ++at;
    }
    return at == expected.size();
}

TEST(StreamRepair, EverySubjectRepairsViaStreamTemplates)
{
    struct Case
    {
        const char *id;
        std::vector<std::string> expected_edits;
    };
    const std::vector<Case> cases = {
        {"S1", {"streamify($a1:arr)"}},
        {"S2", {"streamify($a1:arr)"}},
        {"S3", {"stream_depth($c1:chan)"}},
        {"S4", {"stream_depth($c1:chan)", "bank_partition($a1:arr)"}},
    };
    for (const Case &c : cases) {
        const subjects::Subject &s = streaming(c.id);
        core::HeteroGen engine(s.source);
        auto report = engine.run(streamOptions(s));
        EXPECT_TRUE(report.ok())
            << c.id << ": hls_compatible=" << report.search.hls_compatible
            << " behavior_preserved=" << report.search.behavior_preserved;
        EXPECT_DOUBLE_EQ(report.search.pass_ratio, 1.0) << c.id;
        EXPECT_TRUE(appliedInOrder(report.search.applied_order,
                                   c.expected_edits))
            << c.id << ": applied "
            << join(report.search.applied_order, ", ");
    }
}

TEST(StreamRepair, StreamifiedChainDrainsThroughFifos)
{
    const subjects::Subject &s = streaming("S1");
    core::HeteroGen engine(s.source);
    auto report = engine.run(streamOptions(s));
    ASSERT_TRUE(report.ok());
    // The scratch array is gone: both hops of the chain are fifos now.
    EXPECT_TRUE(contains(report.hls_source, "buf.write("));
    EXPECT_TRUE(contains(report.hls_source, "buf.read()"));
    EXPECT_FALSE(contains(report.hls_source, "int buf[64]"));
}

TEST(StreamRepair, ButterflyCapsDepthThenPartitions)
{
    const subjects::Subject &s = streaming("S4");
    core::HeteroGen engine(s.source);
    auto report = engine.run(streamOptions(s));
    ASSERT_TRUE(report.ok());
    // Depth sizing capped at the legal maximum...
    EXPECT_TRUE(contains(report.hls_source, "depth=1024"));
    // ...and partitioning closed the remaining backlog.
    EXPECT_TRUE(contains(report.hls_source, "factor=4"));
}

TEST(StreamRepair, ReportsAreThreadCountAndSeedStable)
{
    const subjects::Subject &s = streaming("S3");
    for (uint64_t seed : {uint64_t(203), uint64_t(9001)}) {
        std::string baseline_source;
        std::vector<std::string> baseline_actions;
        double baseline_minutes = -1;
        for (int threads : {1, 2, 8}) {
            WorkerPool pool(threads);
            core::HeteroGenOptions opts = streamOptions(s);
            opts.fuzz.rng_seed = seed;
            opts.eval_pool = &pool;
            core::HeteroGen engine(s.source);
            auto report = engine.run(opts);
            ASSERT_TRUE(report.ok()) << "threads=" << threads;
            std::vector<std::string> actions;
            for (const auto &step : report.search.trace)
                actions.push_back(step.action);
            if (baseline_minutes < 0) {
                baseline_source = report.hls_source;
                baseline_actions = actions;
                baseline_minutes = report.total_minutes;
                continue;
            }
            EXPECT_EQ(report.hls_source, baseline_source)
                << "threads=" << threads << " seed=" << seed;
            EXPECT_EQ(actions, baseline_actions)
                << "threads=" << threads << " seed=" << seed;
            EXPECT_DOUBLE_EQ(report.total_minutes, baseline_minutes)
                << "threads=" << threads << " seed=" << seed;
        }
    }
}

} // namespace
} // namespace heterogen

/**
 * @file
 * google-benchmark microbenchmarks of the substrate layers: frontend
 * parse/print, interpreter throughput, synthesizability checking, FPGA
 * latency modelling, type-valid mutation and line diffing.
 */

#include <benchmark/benchmark.h>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "fuzz/mutator.h"
#include "hls/fpga_model.h"
#include "hls/synth_check.h"
#include "interp/interp.h"
#include "repair/diffstat.h"
#include "stylecheck/stylecheck.h"
#include "subjects/subjects.h"

using namespace heterogen;
using interp::KernelArg;

namespace {

const subjects::Subject &
p4()
{
    return subjects::subjectById("P4");
}

void
BM_ParseSubject(benchmark::State &state)
{
    const auto &src = p4().source;
    for (auto _ : state) {
        auto tu = cir::parse(src);
        benchmark::DoNotOptimize(tu);
    }
}
BENCHMARK(BM_ParseSubject);

void
BM_ParseAnalyzePrint(benchmark::State &state)
{
    const auto &src = p4().source;
    for (auto _ : state) {
        auto tu = cir::parse(src);
        cir::analyzeOrDie(*tu);
        std::string text = cir::print(*tu);
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_ParseAnalyzePrint);

void
BM_CloneTu(benchmark::State &state)
{
    auto tu = cir::parse(p4().source);
    for (auto _ : state) {
        auto copy = tu->clone();
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_CloneTu);

void
BM_InterpretKernel(benchmark::State &state)
{
    auto tu = cir::parse(subjects::subjectById("P6").source);
    cir::analyzeOrDie(*tu);
    std::vector<KernelArg> args{
        KernelArg::ofInts(std::vector<long>(16, 3)),
        KernelArg::ofInts(std::vector<long>(16, 2)),
        KernelArg::ofInts(std::vector<long>(16, 0))};
    for (auto _ : state) {
        auto r = interp::runProgram(*tu, "kernel", args);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_InterpretKernel);

void
BM_SynthCheck(benchmark::State &state)
{
    auto tu = cir::parse(p4().source);
    cir::analyzeOrDie(*tu);
    auto config = hls::HlsConfig::forTop("kernel");
    for (auto _ : state) {
        auto errors = hls::checkSynthesizability(*tu, config);
        benchmark::DoNotOptimize(errors);
    }
}
BENCHMARK(BM_SynthCheck);

void
BM_StyleCheck(benchmark::State &state)
{
    auto tu = cir::parse(p4().source);
    cir::analyzeOrDie(*tu);
    for (auto _ : state) {
        auto report = style::checkStyle(*tu);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_StyleCheck);

void
BM_FpgaSimulate(benchmark::State &state)
{
    auto tu = cir::parse(subjects::subjectById("P6").manual_source);
    cir::analyzeOrDie(*tu);
    auto config = hls::HlsConfig::forTop("kernel");
    std::vector<KernelArg> args{
        KernelArg::ofInts(std::vector<long>(16, 3)),
        KernelArg::ofInts(std::vector<long>(16, 2)),
        KernelArg::ofInts(std::vector<long>(16, 0))};
    hls::FpgaDesign design(*tu);
    for (auto _ : state) {
        auto r = hls::simulateFpga(design, config, "kernel", args);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FpgaSimulate);

void
BM_Mutation(benchmark::State &state)
{
    Rng rng(42);
    std::vector<cir::TypePtr> types{
        cir::Type::array(cir::Type::intType(), 64),
        cir::Type::intType()};
    fuzz::Mutator mutator(types, rng);
    std::vector<KernelArg> seed{
        KernelArg::ofInts(std::vector<long>(64, 1)), KernelArg::ofInt(7)};
    for (auto _ : state) {
        auto variants = mutator.mutate(seed, 16);
        benchmark::DoNotOptimize(variants);
    }
}
BENCHMARK(BM_Mutation);

void
BM_DiffLines(benchmark::State &state)
{
    auto a = cir::print(*cir::parse(p4().source));
    auto b = cir::print(*cir::parse(p4().manual_source));
    for (auto _ : state) {
        auto d = repair::diffLines(a, b);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_DiffLines);

} // namespace

BENCHMARK_MAIN();

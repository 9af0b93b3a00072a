#include "hls/fpga_model.h"

#include <algorithm>
#include <map>
#include <set>

#include "cir/walk.h"
#include "hls/dataflow.h"

namespace heterogen::hls {

using namespace cir;
using interp::KernelArg;
using interp::LoopProfile;
using interp::LoopRecord;

namespace {

/** Collect per-loop pragma facts across the design. */
std::map<int, LoopInfo>
collectLoopInfo(const TranslationUnit &tu)
{
    std::map<int, LoopInfo> info;
    auto scanFunction = [&](const FunctionDecl &fn) {
        if (!fn.body)
            return;
        bool dataflow = false;
        long partition = 1;
        int top_loops = 0;
        for (const auto &s : fn.body->stmts) {
            if (s->kind() == StmtKind::Pragma) {
                const auto &p = static_cast<const PragmaStmt &>(*s);
                if (p.info.kind == PragmaKind::Dataflow)
                    dataflow = true;
                if (p.info.kind == PragmaKind::ArrayPartition)
                    partition = std::max(partition,
                                         p.info.paramInt("factor", 1));
            }
            if (s->kind() == StmtKind::For ||
                s->kind() == StmtKind::While) {
                ++top_loops;
            }
        }
        // Function-scope partition pragmas may also sit inside loops.
        forEachStmt(static_cast<const Stmt &>(*fn.body),
                    [&](const Stmt &s) {
                        if (s.kind() != StmtKind::Pragma)
                            return;
                        const auto &p =
                            static_cast<const PragmaStmt &>(s);
                        if (p.info.kind == PragmaKind::ArrayPartition)
                            partition = std::max(
                                partition, p.info.paramInt("factor", 1));
                    });
        forEachStmt(
            static_cast<const Stmt &>(*fn.body), [&](const Stmt &s) {
                const Block *body = nullptr;
                if (s.kind() == StmtKind::For)
                    body = static_cast<const ForStmt &>(s).body.get();
                else if (s.kind() == StmtKind::While)
                    body = static_cast<const WhileStmt &>(s).body.get();
                if (!body)
                    return;
                LoopInfo &li = info[s.node_id];
                li.function = fn.name;
                li.function_has_dataflow = dataflow;
                li.partition_factor = partition;
                li.dataflow_siblings = std::max(top_loops, 1);
                for (const auto &inner : body->stmts) {
                    if (inner->kind() != StmtKind::Pragma)
                        continue;
                    const auto &p =
                        static_cast<const PragmaStmt &>(*inner);
                    if (p.info.kind == PragmaKind::Pipeline) {
                        li.has_pipeline = true;
                        li.pipeline_ii =
                            std::max(1L, p.info.paramInt("ii", 1));
                    } else if (p.info.kind == PragmaKind::Unroll) {
                        li.has_unroll = true;
                        li.unroll_factor =
                            std::max(1L, p.info.paramInt("factor", 2));
                    }
                }
            });
    };
    for (const auto &fn : tu.functions)
        scanFunction(*fn);
    for (const auto &sd : tu.structs) {
        for (const auto &m : sd->methods)
            scanFunction(*m);
    }
    return info;
}

/** Memory-port bound on parallel duplication without/with partitioning. */
constexpr double kBasePorts = 2.0;
/** Deepest pipeline the model credits (stage count). */
constexpr double kMaxPipelineDepth = 32.0;
/** Largest dataflow overlap credited. */
constexpr double kMaxDataflowOverlap = 4.0;
/** Cells moved per FPGA cycle over the burst DMA link. */
constexpr uint64_t kTransferCellsPerCycle = 4;
/** Fixed kernel launch overhead in FPGA cycles. */
constexpr uint64_t kLaunchCycles = 100;
/** Combined per-loop acceleration bound (pipeline x unroll x flatten). */
constexpr double kMaxLoopAcceleration = 64.0;

} // namespace

FpgaDesign::FpgaDesign(const TranslationUnit &tu)
    : interp_(tu), loops_(collectLoopInfo(tu))
{
}

FpgaRunResult
simulateFpga(const FpgaDesign &design, const HlsConfig &config,
             const std::string &kernel, const std::vector<KernelArg> &args,
             interp::RunOptions options,
             std::vector<LoopAcceleration> *accel_out)
{
    FpgaRunResult result;
    LoopProfile profile;
    options.loop_profile = &profile;
    result.run = design.interpreter().run(kernel, args, options);

    const TranslationUnit &tu = design.tu();
    const std::map<int, LoopInfo> &loop_info = design.loops();

    // First pass: per-loop acceleration from its own pragmas.
    std::map<int, LoopAcceleration> accel_by_node;
    for (const auto &[node_id, rec] : profile.loops) {
        LoopAcceleration accel;
        accel.node_id = node_id;
        auto it = loop_info.find(node_id);
        double cycles = double(rec.cycles_exclusive);
        if (it != loop_info.end() && rec.iterations > 0) {
            const LoopInfo &li = it->second;
            double body = cycles / double(rec.iterations);
            if (li.has_pipeline) {
                // II-limited pipeline: steady-state one iteration per II
                // cycles, bounded by achievable depth.
                accel.pipeline_factor =
                    std::clamp(body / double(li.pipeline_ii), 1.0,
                               kMaxPipelineDepth);
            }
            if (li.has_unroll) {
                double ports = kBasePorts * double(li.partition_factor);
                accel.unroll_factor = std::clamp(
                    std::min(double(li.unroll_factor), ports), 1.0,
                    double(std::max<uint64_t>(rec.iterations, 1)));
            }
            if (li.function_has_dataflow && rec.parent_id == -1) {
                accel.dataflow_factor =
                    std::clamp(double(li.dataflow_siblings), 1.0,
                               kMaxDataflowOverlap);
            }
        }
        accel_by_node[node_id] = accel;
    }

    // Second pass: a loop nested under a pipelined parent is flattened
    // into the parent's pipeline (Vivado unrolls sub-loops under a
    // pipeline directive), inheriting the parent's pipeline factor.
    double accelerated = double(profile.root_cycles);
    std::map<std::string, double> fn_cycles;
    for (const auto &[node_id, rec] : profile.loops) {
        const LoopAcceleration &accel = accel_by_node[node_id];
        double divisor = accel.total();
        auto parent = accel_by_node.find(rec.parent_id);
        if (parent != accel_by_node.end())
            divisor *= parent->second.pipeline_factor;
        divisor = std::clamp(divisor, 1.0, kMaxLoopAcceleration);
        accelerated += double(rec.cycles_exclusive) / divisor;
        auto it = loop_info.find(node_id);
        if (it != loop_info.end())
            fn_cycles[it->second.function] +=
                double(rec.cycles_exclusive) / divisor;
        if (accel_out)
            accel_out->push_back(accel);
    }

    // Streaming dataflow regions: the interpreter ran the processes
    // serially, but FIFO-connected processes overlap — credit the
    // overlap (bounded by the longest process and kMaxDataflowOverlap),
    // then charge the backpressure stalls undersized FIFOs cost. The
    // per-loop dataflow_factor above only fires for loops owned by the
    // pragma-bearing function itself, so the two credits never stack.
    double overlap_credit = 0;
    uint64_t stalls = 0;
    for (const auto &fn : tu.functions) {
        if (!fn->body || !blockHasPragma(*fn->body, PragmaKind::Dataflow))
            continue;
        DataflowTopology topo = extractTopology(tu, *fn, config);
        if (topo.channels.empty())
            continue;
        std::set<std::string> callees;
        for (const StreamProcess &p : topo.processes)
            callees.insert(p.callee);
        double serial = 0, longest = 0;
        for (const std::string &callee : callees) {
            auto it = fn_cycles.find(callee);
            if (it == fn_cycles.end())
                continue;
            serial += it->second;
            longest = std::max(longest, it->second);
        }
        double overlap = std::clamp(double(callees.size()), 1.0,
                                    kMaxDataflowOverlap);
        double overlapped = std::max(longest, serial / overlap);
        overlap_credit += std::max(0.0, serial - overlapped);
        stalls += fifoStallCycles(topo);
        result.stream_processes +=
            static_cast<int>(topo.processes.size());
    }
    accelerated = std::max(0.0, accelerated - overlap_credit) +
                  double(stalls);
    result.fifo_stall_cycles = stalls;

    // Host<->device data movement.
    uint64_t cells = 0;
    for (const KernelArg &a : args)
        cells += a.size();
    uint64_t transfer = kLaunchCycles + cells / kTransferCellsPerCycle;
    result.transfer_cycles = transfer;

    result.fpga_cycles = uint64_t(accelerated) + transfer;
    double period_ns = 1000.0 / config.clock_mhz;
    result.millis = double(result.fpga_cycles) * period_ns * 1e-6;
    return result;
}

} // namespace heterogen::hls

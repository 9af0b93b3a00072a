/**
 * @file
 * FPGA latency model (co-simulation back end).
 *
 * Functionally executes the kernel with the CIR interpreter, then replays
 * the recorded loop profile applying pragma-driven acceleration: pipeline
 * amortizes per-iteration body latency, unroll duplicates processing
 * elements bounded by memory ports (array partitioning widens them),
 * dataflow overlaps sibling top-level loops. The result is the
 * "simulation latency" the paper reports for FPGA versions.
 */

#ifndef HETEROGEN_HLS_FPGA_MODEL_H
#define HETEROGEN_HLS_FPGA_MODEL_H

#include <map>
#include <string>

#include "cir/ast.h"
#include "hls/config.h"
#include "interp/interp.h"

namespace heterogen::hls {

/** Static pragma facts about one loop statement, read off the AST. */
struct LoopInfo
{
    bool has_pipeline = false;
    long pipeline_ii = 1;
    bool has_unroll = false;
    long unroll_factor = 1;
    std::string function;
    bool function_has_dataflow = false;
    /** Max array_partition factor declared in the same function. */
    long partition_factor = 1;
    /** Number of sibling top-level loops in the same function. */
    int dataflow_siblings = 1;
};

/**
 * A design prepared for co-simulation: one interpreter over it and its
 * per-loop pragma facts (keyed by loop node id). A difftest campaign
 * builds one per candidate and simulates every test against it, so the
 * bytecode compile and the pragma scan are paid once per campaign, not
 * once per test. Concurrent simulateFpga calls may share one design.
 */
class FpgaDesign
{
  public:
    explicit FpgaDesign(const cir::TranslationUnit &tu);

    const cir::TranslationUnit &tu() const { return interp_.tu(); }
    const interp::Interpreter &interpreter() const { return interp_; }
    const std::map<int, LoopInfo> &loops() const { return loops_; }

  private:
    interp::Interpreter interp_;
    std::map<int, LoopInfo> loops_;
};

/** Outcome of one FPGA co-simulation. */
struct FpgaRunResult
{
    /** Functional outcome (traps, outputs) from the interpreter. */
    interp::RunResult run;
    /** Modeled FPGA cycle count after pragma acceleration. */
    uint64_t fpga_cycles = 0;
    /** Modeled kernel latency in milliseconds at the configured clock. */
    double millis = 0;
    /** Host<->device transfer cycles included in fpga_cycles. */
    uint64_t transfer_cycles = 0;
    /** FIFO backpressure stall cycles included in fpga_cycles
     * (streaming dataflow regions only — hls/dataflow.h). */
    uint64_t fifo_stall_cycles = 0;
    /** Processes across all streaming dataflow regions of the design. */
    int stream_processes = 0;
};

/** Per-loop acceleration factors the model derived (for tests/reports). */
struct LoopAcceleration
{
    int node_id = -1;
    double pipeline_factor = 1.0;
    double unroll_factor = 1.0;
    double dataflow_factor = 1.0;

    double total() const
    {
        return pipeline_factor * unroll_factor * dataflow_factor;
    }
};

/**
 * Co-simulate `kernel` on the modeled FPGA.
 *
 * @param design    design (must be HLS-clean for meaningful latency)
 * @param config    toolchain configuration (clock)
 * @param kernel    kernel function name
 * @param args      kernel arguments
 * @param options   interpreter knobs; coverage/profile hooks pass through
 * @param accel_out optional: per-loop acceleration factors
 */
FpgaRunResult simulateFpga(const FpgaDesign &design,
                           const HlsConfig &config,
                           const std::string &kernel,
                           const std::vector<interp::KernelArg> &args,
                           interp::RunOptions options = {},
                           std::vector<LoopAcceleration> *accel_out =
                               nullptr);

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_FPGA_MODEL_H

/**
 * @file
 * Per-loop execution profile.
 *
 * While interpreting, cycles are attributed to the innermost active loop
 * (by statement node id). The HLS FPGA model replays this profile applying
 * pragma-driven divisors (pipeline, unroll, dataflow, array partitioning)
 * per loop to estimate accelerated latency.
 */

#ifndef HETEROGEN_INTERP_LOOP_PROFILE_H
#define HETEROGEN_INTERP_LOOP_PROFILE_H

#include <cstdint>
#include <map>

namespace heterogen::interp {

/** Aggregate execution record of one loop statement. */
struct LoopRecord
{
    int node_id = -1;
    /** Enclosing loop's node id; -1 when top-level. */
    int parent_id = -1;
    /** Total iterations executed across all entries. */
    uint64_t iterations = 0;
    /** Cycles spent in the body excluding nested loops' cycles. */
    uint64_t cycles_exclusive = 0;
    /** Number of times the loop was entered from outside. */
    uint64_t entries = 0;

    bool operator==(const LoopRecord &other) const = default;
};

/** Whole-run loop profile. */
struct LoopProfile
{
    std::map<int, LoopRecord> loops;
    /** Cycles spent outside any loop. */
    uint64_t root_cycles = 0;

    uint64_t
    totalCycles() const
    {
        uint64_t total = root_cycles;
        for (const auto &[id, rec] : loops)
            total += rec.cycles_exclusive;
        return total;
    }

    bool operator==(const LoopProfile &other) const = default;

    /**
     * Fold another profile in as if its loops had run here directly
     * (the differential runner forwards private sinks this way).
     */
    void
    absorb(const LoopProfile &other)
    {
        root_cycles += other.root_cycles;
        for (const auto &[id, rec] : other.loops) {
            LoopRecord &mine = loops[id];
            mine.node_id = rec.node_id;
            mine.parent_id = rec.parent_id;
            mine.iterations += rec.iterations;
            mine.cycles_exclusive += rec.cycles_exclusive;
            mine.entries += rec.entries;
        }
    }
};

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_LOOP_PROFILE_H

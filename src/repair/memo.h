/**
 * @file
 * Memoization of candidate evaluations for the repair search.
 *
 * Backtracking makes the search revisit syntactically identical
 * candidates (revert to a snapshot, take another branch, arrive at the
 * same program again). Compiling and differentially testing such a
 * revisit repeats the most expensive steps of the loop for an answer
 * that is already known: both the simulated toolchain and the
 * interpreter are deterministic functions of (printed program, config).
 * The memo keys a candidate by exactly that pair — candidateFingerprint,
 * which repair/store.h defines with every other persisted key — and
 * caches the compile and difftest outcomes separately, since a
 * candidate that fails to compile never reaches difftesting.
 *
 * The memo is the in-memory L1 of a two-level cache: attach a
 * persistent VerdictStore (repair/store.h) with setStore() and L1
 * misses fall through to the on-disk L2, whose hits are promoted back
 * into L1. The MemoLayer out-parameter tells the search which layer
 * answered, because a disk hit must be *replayed* (charge the stored
 * minutes, bump result counters) while an L1 hit is free by
 * construction — the candidate was already paid for in this run.
 */

#ifndef HETEROGEN_REPAIR_MEMO_H
#define HETEROGEN_REPAIR_MEMO_H

#include <optional>
#include <string>
#include <unordered_map>

#include "hls/compiler.h"
#include "repair/difftest.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::repair {

class VerdictStore;

/** Which cache layer answered a lookup. */
enum class MemoLayer
{
    None,   ///< miss everywhere
    Memory, ///< in-memory L1 (already paid for in this run)
    Disk,   ///< persistent L2 (replay: charge stored minutes)
};

/** Hit/miss counters of one memo (mirrored into SearchResult). */
struct MemoStats
{
    int compile_hits = 0;
    int compile_misses = 0;
    int difftest_hits = 0;
    int difftest_misses = 0;

    int hits() const { return compile_hits + difftest_hits; }
    int misses() const { return compile_misses + difftest_misses; }

    /** Fraction of lookups answered from cache, in [0,1]. */
    double
    hitRate() const
    {
        int lookups = hits() + misses();
        return lookups == 0 ? 0.0 : double(hits()) / double(lookups);
    }
};

/**
 * Cache of candidate evaluations keyed by candidateFingerprint().
 *
 * Counter ownership: when constructed with a RunContext, every hit and
 * miss is counted on that context's trace (repair.memo.* on the span
 * open at lookup time) as the single authoritative copy — under the
 * conversion service many jobs run concurrently, and routing the
 * counters through the *owning* context keeps each job's stats exact
 * instead of mingling them in shared state. The local MemoStats mirror
 * is kept in lockstep for result reporting (SearchResult::memo).
 */
class CandidateMemo
{
  public:
    CandidateMemo() = default;

    /** Counters additionally land on ctx's trace (repair.memo.*). */
    explicit CandidateMemo(RunContext *ctx) : ctx_(ctx) {}

    /**
     * Attach (or detach, with nullptr) the persistent L2. L1 misses
     * then consult the store; disk hits are promoted into L1 and
     * reported via the MemoLayer out-parameters below.
     */
    void setStore(VerdictStore *store) { store_ = store; }

    /**
     * Cached compile outcome for the fingerprint, or nullopt on miss.
     * Counts one hit or miss (an L2 hit counts as a memo hit — the
     * lookup was answered without running the toolchain).
     */
    std::optional<hls::CompileResult>
    findCompile(const std::string &fingerprint,
                MemoLayer *layer = nullptr);

    /** Record the compile outcome for the fingerprint, writing through
     * to the attached store (which drops tool failures). */
    void storeCompile(const std::string &fingerprint,
                      const hls::CompileResult &result);

    /**
     * Cached difftest outcome, or nullopt on miss. Counts the lookup.
     * `campaign` (a difftestCampaignKey) names the campaign on the L2;
     * "" skips the L2 even when a store is attached.
     */
    std::optional<DiffTestResult>
    findDiffTest(const std::string &fingerprint,
                 const std::string &campaign = "",
                 MemoLayer *layer = nullptr);

    /** Record the difftest outcome for the fingerprint, writing through
     * to the attached store under `campaign` when non-empty. */
    void storeDiffTest(const std::string &fingerprint,
                       const DiffTestResult &result,
                       const std::string &campaign = "");

    const MemoStats &stats() const { return stats_; }
    size_t size() const { return entries_.size(); }
    void clear();

  private:
    struct Entry
    {
        std::optional<hls::CompileResult> compile;
        std::optional<DiffTestResult> difftest;
    };

    /** Bump stats_ and, when owned, the context's trace counter. */
    void count(int MemoStats::*field, const char *trace_key);

    /** Owning context; counters route to its trace when non-null. */
    RunContext *ctx_ = nullptr;
    /** Persistent L2, not owned; may be null (L1-only operation). */
    VerdictStore *store_ = nullptr;
    std::unordered_map<std::string, Entry> entries_;
    MemoStats stats_;
};

} // namespace heterogen::repair

#endif // HETEROGEN_REPAIR_MEMO_H

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

/**
 * Cache of candidate evaluations keyed by candidateFingerprint().
 *
 * Every hit and miss is counted on the owning context's trace
 * (repair.memo.{compile,difftest}_{hits,misses} on the span open at
 * lookup time), the one record of the memo's work: under the
 * conversion service many jobs run concurrently, and routing the
 * counters through each job's own context keeps them exact instead of
 * mingling them in shared state.
 */
class CandidateMemo
{
  public:
    /** Lookups are counted on ctx's trace (repair.memo.*). */
    explicit CandidateMemo(RunContext &ctx) : ctx_(ctx) {}

    /**
     * Attach (or detach, with nullptr) the persistent L2. L1 misses
     * then consult the store; disk hits are promoted into L1 and
     * reported via the MemoLayer out-parameters below.
     */
    void setStore(VerdictStore *store) { store_ = store; }

    /**
     * Cached compile outcome for the fingerprint, or nullopt on miss.
     * Counts one L1 hit or miss; an L2 answer counts as an L1 miss
     * and a repair.diskcache hit.
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

    size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::optional<hls::CompileResult> compile;
        std::optional<DiffTestResult> difftest;
    };

    /**
     * The one lookup path: probe the L1 `slot`, count a `kind` hit or
     * miss, and on a miss ask `disk` (consulted only with a store
     * attached), promoting its answer into L1.
     */
    template <typename T, typename Disk>
    std::optional<T> find(std::optional<T> Entry::*slot, const char *kind,
                          const std::string &fingerprint, MemoLayer *layer,
                          Disk disk);

    /** Owning context; every lookup is counted on its trace. */
    RunContext &ctx_;
    /** Persistent L2, not owned; may be null (L1-only operation). */
    VerdictStore *store_ = nullptr;
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace heterogen::repair

#endif // HETEROGEN_REPAIR_MEMO_H

/**
 * @file
 * The persistent verdict store: compile, difftest and style verdicts
 * keyed by content, surviving the process — the on-disk L2 under the
 * in-memory CandidateMemo (L1). docs/CACHING.md is the full story.
 *
 * What may be persisted is exactly what CandidateMemo may hold, under
 * the same rule from the fault-injection layer: tool failures are
 * NEVER persisted — a toolchain hiccup says nothing about the design,
 * and a revisit deserves a fresh attempt. storeCompile/storeDiffTest
 * drop tool_failure results defensively even though the search already
 * gates them, and the search bypasses the disk entirely while a fault
 * plan is armed (fault draws are keyed by invocation index, so serving
 * verdicts from disk would shift every subsequent draw).
 *
 * Replay contract (bit-identical warm runs): a disk hit is replayed by
 * the search as if the toolchain ran — the stored simulated minutes
 * are charged, result counters (full_hls_invocations, style_checks)
 * advance, and the search trace records the same action. Only the
 * actual-work trace counters (hls.compiles, difftest.*, interp.*)
 * stay still, which is precisely how bench/cache_warmup measures the
 * saved work while proving reports identical.
 *
 * One more record kind holds a run's stage 1–2 output (StageRecord:
 * the fuzz campaign's result and counters plus the value profile),
 * keyed by stageRecordKey. HeteroGen::run replays a hit under the same
 * contract: the fuzz span is charged the stored minutes in one go and
 * its fuzz.* counters bumped by the stored amounts, while interp.*
 * stays still. It writes a record only for a campaign that no
 * enclosing budget or cancellation cut short, and replays one only
 * when the record's minutes fit the run's remaining budgets, so a hit
 * is exactly what fuzzing would have produced.
 *
 * One codec (store.cc) builds every key and payload: integers in
 * decimal, flags as 0/1, doubles as their exact 64-bit pattern in hex,
 * lists joined by control-character separators. Keys are exact
 * preimages, never hashes or display strings, so two evaluations share
 * a key only when they are interchangeable. The raw DiskCache key of a
 * record is "<kind>\x1f<key>", kind being compile, difftest, style or
 * stage. A value that does not decode under its kind counts as one
 * repair.diskcache.invalid plus one miss.
 */

#ifndef HETEROGEN_REPAIR_STORE_H
#define HETEROGEN_REPAIR_STORE_H

#include <limits>
#include <map>
#include <optional>
#include <string>

#include "fuzz/fuzzer.h"
#include "hls/compiler.h"
#include "repair/difftest.h"
#include "stylecheck/stylecheck.h"
#include "support/diskcache.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::repair {

/**
 * Cache directory honoured by default: the HETEROGEN_CACHE_DIR
 * environment variable, or "" (persistence disabled). The
 * conventional in-repo location is ".heterogen-cache/" (gitignored).
 */
std::string defaultCacheDir();

/**
 * Version stamp persisted with every verdict: the store format (hgc3)
 * plus the simulator (hls::kSimulatorVersion) and style-checker
 * (style::kStyleCheckerVersion) versions. Bumping any of the three
 * invalidates every entry written under the old stamp.
 */
std::string defaultToolchainVersion();

/**
 * "" when `dir` can be used as a cache directory; otherwise a
 * "cache:"-prefixed diagnostic (blank name, or the directory cannot
 * be created/written). core::validateOptions and validateJobSpec
 * reject non-empty cache_dir values this probe fails.
 */
std::string cacheDirError(const std::string &dir);

/** Stage 1–2 output of one run: what fuzzing and profiling produced. */
struct StageRecord
{
    /** The campaign result; testgen.sim_minutes is also every minute
     * the fuzz span was charged. */
    fuzz::FuzzResult testgen;
    interp::ValueProfile profile;
    /** The fuzz span's own fuzz.* counters, by name. */
    std::map<std::string, int64_t> fuzz_counters;
};

/**
 * Stable identity of a candidate evaluation: the printed program plus
 * every HlsConfig field that influences compilation or co-simulation,
 * clock_mhz included bit for bit. Two fingerprints compare equal iff
 * the evaluations are interchangeable. Keys the in-memory
 * CandidateMemo and the compile records.
 */
std::string candidateFingerprint(const std::string &printed,
                                 const hls::HlsConfig &config);

/**
 * Context of every difftest campaign over `oracle`: the printed
 * original, the kernel, every suite case argument by argument (array
 * elements and doubles exact) and the sampling cap. A difftest record
 * is keyed by (candidateFingerprint, this).
 */
std::string difftestCampaignKey(const CpuOracle &oracle, int sample);

/**
 * Content key of a StageRecord: the printed source, the kernel and
 * every FuzzOptions field. Budgets enclosing the campaign are not part
 * of it: see VerdictStore::findStage.
 */
std::string stageRecordKey(const std::string &printed_source,
                           const std::string &kernel,
                           const fuzz::FuzzOptions &options);

/** Configuration of one VerdictStore. */
struct VerdictStoreOptions
{
    /** Root directory (required). */
    std::string dir;
    /** Entry version; "" = defaultToolchainVersion(). Tests override
     * it to prove a simulated toolchain bump invalidates entries. */
    std::string version;
};

/**
 * Typed verdict cache over a DiskCache. Thread-safe; shareable by
 * every concurrent job of a conversion service.
 *
 * Counter routing: each lookup/store counts repair.diskcache.{hits,
 * misses,writes} on the calling RunContext's trace — the only record
 * of the store's traffic, so per-job counts stay exact under
 * concurrency. A write is counted whenever the load-time snapshot lacks
 * the key — a pure function of (snapshot, job), independent of which
 * concurrent job happened to buffer the physical write first. Load-time invalid counts and
 * flush-time evictions live in diskStats(); HeteroGen::run mirrors them
 * onto the run trace for the store it opens.
 */
class VerdictStore
{
  public:
    explicit VerdictStore(VerdictStoreOptions options);

    /** False when the directory was unusable (acts as always-miss). */
    bool enabled() const { return cache_.enabled(); }

    const std::string &dir() const { return cache_.dir(); }
    const std::string &version() const { return version_; }

    std::optional<hls::CompileResult>
    findCompile(RunContext &ctx, const std::string &fingerprint);

    /** No-op on tool_failure results (never persisted). */
    void storeCompile(RunContext &ctx, const std::string &fingerprint,
                      const hls::CompileResult &result);

    /** The verdict of `fingerprint` under `campaign`, a
     * difftestCampaignKey. */
    std::optional<DiffTestResult>
    findDiffTest(RunContext &ctx, const std::string &fingerprint,
                 const std::string &campaign);

    /** No-op on tool_failure results (never persisted). */
    void storeDiffTest(RunContext &ctx, const std::string &fingerprint,
                       const std::string &campaign,
                       const DiffTestResult &result);

    std::optional<style::StyleReport>
    findStyle(RunContext &ctx, const std::string &printed_program);

    void storeStyle(RunContext &ctx, const std::string &printed_program,
                    const style::StyleReport &report);

    /**
     * The stage record under `key`, if its fuzz minutes are below
     * `max_minutes` — the run's remaining budget, so the replayed
     * campaign is one the budget would not have cut. A record that
     * does not fit counts as a miss.
     */
    std::optional<StageRecord> findStage(RunContext &ctx,
                                         const std::string &key,
                                         double max_minutes);

    void storeStage(RunContext &ctx, const std::string &key,
                    const StageRecord &record);

    /** Publish buffered verdicts (see DiskCache::flush). */
    bool flush() { return cache_.flush(); }

    DiskCacheStats diskStats() const { return cache_.stats(); }
    size_t snapshotSize() const { return cache_.snapshotSize(); }

  private:
    /**
     * The one lookup path: decode the `kind` record under `key` and
     * count a hit, or a miss (plus an invalid when the value does not
     * decode). A record whose minutes are not below `max_minutes`
     * counts as a miss.
     */
    template <typename T>
    std::optional<T>
    lookup(RunContext &ctx, const char *kind, const std::string &key,
           double max_minutes = std::numeric_limits<double>::infinity());
    void put(RunContext &ctx, const char *kind, const std::string &key,
             const std::string &payload);

    std::string version_;
    DiskCache cache_;
};

} // namespace heterogen::repair

#endif // HETEROGEN_REPAIR_STORE_H

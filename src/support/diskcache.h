/**
 * @file
 * A persistent, content-addressed key-value store — the disk layer
 * under the repair search's verdict cache (ccache for simulated HLS
 * invocations; see docs/CACHING.md).
 *
 * Keys are arbitrary strings (full content preimages); the store maps
 * each to a 128-bit hash and keeps every entry of a directory in one
 * file (kFileName). Publication is atomic: every flush writes the
 * complete file to a temporary file and renames it into place, so a
 * reader never observes a torn file — a crash mid-write leaves at
 * worst a stale temp file that loaders ignore.
 *
 * Visibility contract (the determinism crux): lookups are answered
 * from the snapshot taken when the store was opened, plus entries
 * promoted by an explicit flush(). Buffered writes — this store's or a
 * concurrent job's — are never served. A job's cache outcomes are
 * therefore a pure function of (snapshot, job), independent of host
 * thread count and scheduling interleavings.
 *
 * Every entry carries a version string; loading skips (and flushing
 * physically removes) entries whose version differs from the opener's,
 * so a simulator version bump invalidates the whole stale population.
 * The file is size-capped: at flush the entries with the oldest
 * generation stamps (stamps refresh on hit, LRU-ish) are evicted
 * beyond kMaxEntries.
 */

#ifndef HETEROGEN_SUPPORT_DISKCACHE_H
#define HETEROGEN_SUPPORT_DISKCACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace heterogen {

/** Configuration of one on-disk cache. */
struct DiskCacheOptions
{
    /** Root directory (created if missing; required). */
    std::string dir;
    /**
     * Version stamp stored with every entry. Entries whose stamp
     * differs are invalid: skipped on load, removed on flush.
     */
    std::string version = "1";
    /**
     * Test hook: called with the temp-file path after it is written,
     * before the atomic rename. Returning false simulates a failed
     * write — the temp file is removed, the file keeps its previous
     * content, and flush() reports failure.
     */
    std::function<bool(const std::string &tmp_path)> pre_publish_hook;
};

/**
 * Load- and flush-time events of one DiskCache instance — the ones no
 * run sees. Lookups and writes are counted by the caller on its run's
 * trace (repair.diskcache.*, see repair/store.h).
 */
struct DiskCacheStats
{
    /** Valid entries visible in the lookup snapshot. */
    int64_t loaded = 0;
    /** Corrupt, torn or version-stale lines skipped by the loader. */
    int64_t invalid = 0;
    /** Entries dropped by the kMaxEntries cap at flush. */
    int64_t evictions = 0;
    /** Publications that failed (write error or hook veto). */
    int64_t flush_failures = 0;
};

/**
 * The store. Thread-safe: all public methods may be called from any
 * thread; lookups and buffered writes are in-memory operations, disk
 * I/O happens only at construction (snapshot load) and flush().
 * Multiple instances — in one process or many — may share a directory;
 * flush() merges with the file content on disk under atomic renames,
 * so concurrent flushes converge instead of corrupting (an unlucky
 * interleaving can drop the smaller of two racing merge sets, never
 * produce a torn file).
 */
class DiskCache
{
  public:
    /** The data file under the directory. */
    static constexpr const char *kFileName = "entries";
    /** Entry cap enforced at flush (oldest generations evicted). */
    static constexpr size_t kMaxEntries = 32768;

    /**
     * Open the store: create the directory if needed and snapshot
     * the data file. An unusable directory yields a disabled store
     * (every lookup misses, writes are dropped) rather than a throw —
     * callers wanting a hard error validate the directory up front
     * (core::validateOptions does).
     */
    explicit DiskCache(DiskCacheOptions options);

    /** Flushes buffered writes (errors are swallowed). */
    ~DiskCache();

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /** False when the directory could not be created or listed. */
    bool enabled() const { return enabled_; }

    const std::string &dir() const { return options_.dir; }

    /**
     * Look the key up in the snapshot. A hit refreshes the entry's
     * generation stamp (recency for eviction). Buffered writes are
     * never consulted — see the visibility contract above.
     */
    std::optional<std::string> find(const std::string &key);

    /** Is the key answerable from the snapshot (no recency refresh)? */
    bool snapshotHas(const std::string &key) const;

    /**
     * Buffer one write. Dropped when the snapshot or the buffer
     * already holds the key (first write wins until the next flush
     * promotes it). Nothing reaches disk before flush().
     */
    void put(const std::string &key, const std::string &value);

    /**
     * Publish buffered writes: when anything changed, merge the
     * buffer, the snapshot and the file's current on-disk content
     * (newest generation wins), apply the eviction cap, write a temp
     * file and atomically rename it into place. Successfully
     * published entries are promoted into the snapshot. Returns false
     * if the publication failed (the buffer is kept for retry).
     */
    bool flush();

    DiskCacheStats stats() const;

    /** Entries currently answerable (snapshot size). */
    size_t snapshotSize() const;

    /** Buffered writes not yet flushed. */
    size_t pendingWrites() const;

    /** 64-bit FNV-1a over `s`, folded with `seed`. */
    static uint64_t hash64(const std::string &s, uint64_t seed);

    /** 32-hex-digit content hash used as the stored key identity. */
    static std::string keyHash(const std::string &key);

  private:
    struct Entry
    {
        std::string value;
        int64_t gen = 0;
    };

    std::string filePath() const;
    void loadLocked();

    DiskCacheOptions options_;
    bool enabled_ = false;

    mutable std::mutex mu_;
    /** Snapshot, keyed by keyHash(). */
    std::map<std::string, Entry> snapshot_;
    /** Buffered writes, keyed by keyHash(). */
    std::map<std::string, Entry> buffer_;
    /** Snapshot entries changed (gen refresh) or the file holds
     * garbage, duplicates or stale lines to scrub. */
    bool dirty_ = false;
    int64_t next_gen_ = 1;
    DiskCacheStats stats_;
};

} // namespace heterogen

#endif // HETEROGEN_SUPPORT_DISKCACHE_H

#include "support/diskcache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>

#include <unistd.h>

#include "support/strings.h"

namespace heterogen {

namespace fs = std::filesystem;

namespace {

constexpr const char *kMagic = "HGC1";
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ULL;
/** Second seed for the upper half of the 128-bit key identity. */
constexpr uint64_t kAltSeed = 0x9e3779b97f4a7c15ULL;
/** Seed for per-line checksums (distinct from key hashing). */
constexpr uint64_t kCksumSeed = 0x6a09e667f3bcc908ULL;

/**
 * One mutex per canonical directory, process-wide: flushes from
 * different DiskCache instances sharing a directory serialize their
 * read-merge-publish cycles, so same-process stores converge instead
 * of dropping each other's merge sets.
 */
std::mutex &
dirMutex(const std::string &dir)
{
    static std::mutex registry_mu;
    static std::map<std::string, std::unique_ptr<std::mutex>> registry;
    std::error_code ec;
    fs::path canonical = fs::weakly_canonical(dir, ec);
    std::string key = ec ? dir : canonical.string();
    std::lock_guard<std::mutex> lock(registry_mu);
    auto &slot = registry[key];
    if (!slot)
        slot = std::make_unique<std::mutex>();
    return *slot;
}

std::string
escapeField(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

std::optional<std::string>
unescapeField(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out.push_back(s[i]);
            continue;
        }
        if (i + 1 >= s.size())
            return std::nullopt;
        switch (s[++i]) {
          case '\\':
            out.push_back('\\');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          default:
            return std::nullopt;
        }
    }
    return out;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

enum class LineVerdict { Ok, Corrupt, Stale };

struct ParsedLine
{
    std::string hash;
    int64_t gen = 0;
    std::string value;
};

/**
 * Parse one record line. Any malformation — wrong field count, bad
 * magic, checksum mismatch, broken escapes, non-numeric generation —
 * is Corrupt; a well-formed line with a different version is Stale.
 */
LineVerdict
parseLine(const std::string &line, const std::string &version,
          ParsedLine *out)
{
    std::vector<std::string> fields = split(line, '\t');
    if (fields.size() != 6 || fields[0] != kMagic)
        return LineVerdict::Corrupt;
    std::string prefix = line.substr(0, line.rfind('\t'));
    if (hex64(DiskCache::hash64(prefix, kCksumSeed)) != fields[5])
        return LineVerdict::Corrupt;
    if (fields[1].size() != 32 ||
        fields[1].find_first_not_of("0123456789abcdef") !=
            std::string::npos) {
        return LineVerdict::Corrupt;
    }
    std::optional<std::string> ver = unescapeField(fields[2]);
    std::optional<std::string> value = unescapeField(fields[4]);
    if (!ver || !value)
        return LineVerdict::Corrupt;
    char *end = nullptr;
    long long gen = std::strtoll(fields[3].c_str(), &end, 10);
    if (end == fields[3].c_str() || *end != '\0' || gen < 0)
        return LineVerdict::Corrupt;
    if (*ver != version)
        return LineVerdict::Stale;
    out->hash = fields[1];
    out->gen = gen;
    out->value = std::move(*value);
    return LineVerdict::Ok;
}

std::string
formatLine(const std::string &hash, const std::string &version,
           int64_t gen, const std::string &value)
{
    std::string prefix = std::string(kMagic) + '\t' + hash + '\t' +
                         escapeField(version) + '\t' +
                         std::to_string(gen) + '\t' + escapeField(value);
    return prefix + '\t' + hex64(DiskCache::hash64(prefix, kCksumSeed)) +
           '\n';
}

} // namespace

uint64_t
DiskCache::hash64(const std::string &s, uint64_t seed)
{
    uint64_t h = kFnvOffset ^ seed;
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    // FNV-1a mixes the low bits far better than the high ones on short
    // inputs — finish with a murmur-style avalanche so every byte of
    // the key identity depends on every input byte.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

std::string
DiskCache::keyHash(const std::string &key)
{
    return hex64(hash64(key, 0)) + hex64(hash64(key, kAltSeed));
}

DiskCache::DiskCache(DiskCacheOptions options)
    : options_(std::move(options))
{
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (!fs::is_directory(options_.dir, ec))
        return; // disabled: every lookup misses, writes are dropped
    enabled_ = true;
    std::lock_guard<std::mutex> dir_lock(dirMutex(options_.dir));
    std::lock_guard<std::mutex> lock(mu_);
    loadLocked();
}

DiskCache::~DiskCache()
{
    // Filesystem failures surface as flush_failures, never throws.
    flush();
}

std::string
DiskCache::filePath() const
{
    return (fs::path(options_.dir) / kFileName).string();
}

void
DiskCache::loadLocked()
{
    std::ifstream in(filePath());
    std::string line;
    while (in.is_open() && std::getline(in, line)) {
        if (line.empty())
            continue;
        ParsedLine parsed;
        if (parseLine(line, options_.version, &parsed) != LineVerdict::Ok) {
            // Corrupt/torn garbage and version-stale entries are both
            // skipped; the dirty mark makes the next flush rewrite the
            // file without them.
            stats_.invalid += 1;
            dirty_ = true;
            continue;
        }
        auto [it, inserted] = snapshot_.try_emplace(parsed.hash, Entry{});
        if (!inserted) {
            dirty_ = true; // duplicate line: newest gen wins
            if (parsed.gen <= it->second.gen)
                continue;
        }
        it->second.value = std::move(parsed.value);
        it->second.gen = parsed.gen;
        next_gen_ = std::max(next_gen_, parsed.gen + 1);
    }
    stats_.loaded = static_cast<int64_t>(snapshot_.size());
}

std::optional<std::string>
DiskCache::find(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = snapshot_.find(keyHash(key));
    if (it == snapshot_.end())
        return std::nullopt;
    // Refresh recency so the eviction cap keeps hot entries.
    it->second.gen = next_gen_++;
    dirty_ = true;
    return it->second.value;
}

bool
DiskCache::snapshotHas(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_.count(keyHash(key)) > 0;
}

void
DiskCache::put(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    std::string hash = keyHash(key);
    if (snapshot_.count(hash))
        return;
    auto [it, inserted] = buffer_.try_emplace(std::move(hash), Entry{});
    if (!inserted)
        return; // first buffered write wins until the next flush
    it->second.value = value;
    it->second.gen = next_gen_++;
}

bool
DiskCache::flush()
{
    // Lock order: directory registry first, then the instance — the
    // same order the constructor takes, and find/put never hold both.
    std::lock_guard<std::mutex> dir_lock(dirMutex(options_.dir));
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_ || (!dirty_ && buffer_.empty()))
        return true;
    // Merge three populations, newest generation winning: the file's
    // current on-disk content (another store may have published since
    // our snapshot), our snapshot (carrying refreshed recency stamps),
    // and our buffered writes.
    std::map<std::string, Entry> merged;
    {
        std::ifstream in(filePath());
        std::string line;
        while (in.is_open() && std::getline(in, line)) {
            if (line.empty())
                continue;
            ParsedLine parsed;
            if (parseLine(line, options_.version, &parsed) !=
                LineVerdict::Ok) {
                continue; // counted at load; physically dropped here
            }
            Entry &e = merged[parsed.hash];
            if (parsed.gen >= e.gen) {
                e.value = std::move(parsed.value);
                e.gen = parsed.gen;
            }
        }
    }
    for (const auto *population : {&snapshot_, &buffer_}) {
        for (const auto &[hash, entry] : *population) {
            Entry &e = merged[hash];
            if (entry.gen >= e.gen)
                e = entry;
        }
    }

    // LRU-ish cap: keep the highest generation stamps.
    std::vector<std::pair<std::string, Entry>> entries(merged.begin(),
                                                       merged.end());
    if (entries.size() > kMaxEntries) {
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second.gen != b.second.gen)
                          return a.second.gen > b.second.gen;
                      return a.first < b.first;
                  });
        stats_.evictions +=
            static_cast<int64_t>(entries.size() - kMaxEntries);
        entries.resize(kMaxEntries);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.gen != b.second.gen)
                      return a.second.gen < b.second.gen;
                  return a.first < b.first;
              });

    static std::atomic<uint64_t> tmp_seq{0};
    std::string tmp =
        (fs::path(options_.dir) /
         (".tmp-" + std::to_string(::getpid()) + "-" +
          std::to_string(tmp_seq.fetch_add(1))))
            .string();
    {
        std::ofstream out(tmp, std::ios::trunc);
        for (const auto &[hash, entry] : entries)
            out << formatLine(hash, options_.version, entry.gen,
                              entry.value);
        out.flush();
        if (!out.good()) {
            std::error_code ec;
            fs::remove(tmp, ec);
            stats_.flush_failures += 1;
            return false;
        }
    }
    if (options_.pre_publish_hook && !options_.pre_publish_hook(tmp)) {
        // Simulated write failure: the file keeps its previous
        // content and the buffer is retained for a retry — a partial
        // write is never published, so it can never be served.
        std::error_code ec;
        fs::remove(tmp, ec);
        stats_.flush_failures += 1;
        return false;
    }
    std::error_code ec;
    fs::rename(tmp, filePath(), ec);
    if (ec) {
        fs::remove(tmp, ec);
        stats_.flush_failures += 1;
        return false;
    }
    // Published: buffered entries become answerable.
    for (auto &[hash, entry] : buffer_)
        snapshot_[hash] = std::move(entry);
    buffer_.clear();
    dirty_ = false;
    return true;
}

DiskCacheStats
DiskCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
DiskCache::snapshotSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_.size();
}

size_t
DiskCache::pendingWrites() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_.size();
}

} // namespace heterogen

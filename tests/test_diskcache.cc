/** @file Persistent verdict-cache tests: DiskCache crash safety, the
 * one-file layout, versioned invalidation and eviction; VerdictStore
 * exact round-trips and the never-persist-tool-failures rule; cold/warm
 * bit-identity of whole pipeline runs; shared-cache conversion-service
 * determinism at any host thread count (the tsan CI job runs these);
 * and the cache_dir validation surface. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "core/heterogen.h"
#include "repair/search.h"
#include "repair/store.h"
#include "service/service.h"
#include "subjects/subjects.h"
#include "support/diagnostics.h"
#include "support/diskcache.h"
#include "support/run_context.h"
#include "support/strings.h"
#include "support/trace.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty cache directory under the system temp root. */
std::string
freshDir(const std::string &tag)
{
    static std::atomic<int> seq{0};
    fs::path p = fs::temp_directory_path() /
                 ("hg-cache-" + tag + "-" + std::to_string(::getpid()) +
                  "-" + std::to_string(seq.fetch_add(1)));
    std::error_code ec;
    fs::remove_all(p, ec);
    return p.string();
}

/** The directory's files, temp files and write probes (dot files)
 * left out. */
std::vector<std::string>
dataFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        std::string name = e.path().filename().string();
        if (!startsWith(name, "."))
            files.push_back(name);
    }
    return files;
}

/** The directory's data file. */
std::string
dataFile(const std::string &dir)
{
    return (fs::path(dir) / DiskCache::kFileName).string();
}

// --- DiskCache: round trips and snapshot visibility ----------------------

TEST(DiskCache, BufferedWritesInvisibleUntilFlushThenServed)
{
    std::string dir = freshDir("vis");
    DiskCacheOptions o;
    o.dir = dir;
    DiskCache cache(o);
    ASSERT_TRUE(cache.enabled());

    cache.put("k1", "v1");
    // Snapshot visibility: the buffered write is never served.
    EXPECT_FALSE(cache.find("k1").has_value());
    EXPECT_EQ(cache.pendingWrites(), 1u);

    ASSERT_TRUE(cache.flush());
    // The flush promoted the entry into the snapshot.
    auto hit = cache.find("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "v1");
    EXPECT_EQ(cache.pendingWrites(), 0u);
}

TEST(DiskCache, RoundTripsAcrossReopen)
{
    std::string dir = freshDir("reopen");
    DiskCacheOptions o;
    o.dir = dir;
    {
        DiskCache cache(o);
        cache.put("key-a", "value-a");
        cache.put("key-b", "value with\ttab and\nnewline and \\slash");
        ASSERT_TRUE(cache.flush());
    }
    DiskCache cache(o);
    EXPECT_EQ(cache.stats().loaded, 2);
    EXPECT_EQ(cache.snapshotSize(), 2u);
    auto a = cache.find("key-a");
    auto b = cache.find("key-b");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, "value-a");
    EXPECT_EQ(*b, "value with\ttab and\nnewline and \\slash");
    EXPECT_FALSE(cache.find("key-c").has_value());
}

TEST(DiskCache, FlushLeavesOneDataFile)
{
    std::string dir = freshDir("onefile");
    DiskCacheOptions o;
    o.dir = dir;
    {
        DiskCache cache(o);
        for (int i = 0; i < 64; ++i)
            cache.put("key-" + std::to_string(i), "v");
        ASSERT_TRUE(cache.flush());
        EXPECT_EQ(dataFiles(dir),
                  std::vector<std::string>{DiskCache::kFileName});
    }
    // Files an older layout left behind are not read.
    {
        std::ofstream out(fs::path(dir) / "shard-00");
        out << "not read\n";
    }
    DiskCache cache(o);
    EXPECT_EQ(cache.stats().loaded, 64);
    EXPECT_EQ(cache.stats().invalid, 0);
    EXPECT_EQ(DiskCache::keyHash("key-0").size(), 32u);
}

TEST(DiskCache, DuplicateInstanceSharingADirConverges)
{
    std::string dir = freshDir("share");
    DiskCacheOptions o;
    o.dir = dir;
    DiskCache a(o);
    DiskCache b(o);
    a.put("from-a", "1");
    b.put("from-b", "2");
    ASSERT_TRUE(a.flush());
    ASSERT_TRUE(b.flush());
    DiskCache fresh(o);
    EXPECT_TRUE(fresh.find("from-a").has_value());
    EXPECT_TRUE(fresh.find("from-b").has_value());
}

// --- DiskCache: crash safety ---------------------------------------------

TEST(DiskCache, CorruptAndTruncatedLinesAreSkippedAsMisses)
{
    std::string dir = freshDir("corrupt");
    DiskCacheOptions o;
    o.dir = dir;
    {
        DiskCache cache(o);
        cache.put("good", "value");
        ASSERT_TRUE(cache.flush());
    }
    // Damage the file: garbage, a checksum-broken copy and a torn
    // (truncated) record appended after the valid line.
    std::string file = dataFile(dir);
    std::string valid;
    {
        std::ifstream in(file);
        std::getline(in, valid);
    }
    {
        std::ofstream out(file, std::ios::app);
        out << "complete garbage, not a record\n";
        std::string broken = valid;
        broken.back() = broken.back() == '0' ? '1' : '0';
        out << broken << "\n";
        out << valid.substr(0, valid.size() / 2) << "\n";
    }

    DiskCache cache(o);
    EXPECT_EQ(cache.stats().loaded, 1);
    EXPECT_EQ(cache.stats().invalid, 3);
    EXPECT_TRUE(cache.find("good").has_value());
    EXPECT_FALSE(cache.find("never-stored").has_value());

    // The next flush rewrites the file without the garbage.
    ASSERT_TRUE(cache.flush());
    DiskCache clean(o);
    EXPECT_EQ(clean.stats().loaded, 1);
    EXPECT_EQ(clean.stats().invalid, 0);
}

TEST(DiskCache, StaleTempFilesAreIgnoredByTheLoader)
{
    std::string dir = freshDir("tmpfile");
    DiskCacheOptions o;
    o.dir = dir;
    {
        DiskCache cache(o);
        cache.put("k", "v");
        ASSERT_TRUE(cache.flush());
    }
    // A crash mid-publish leaves a temp file behind; it must never be
    // read as cache content.
    {
        std::ofstream out(fs::path(dir) / ".tmp-0-99999-0");
        out << "half-written partial file\n";
    }
    DiskCache cache(o);
    EXPECT_EQ(cache.stats().loaded, 1);
    EXPECT_EQ(cache.stats().invalid, 0);
}

TEST(DiskCache, VetoedPublishKeepsOldShardAndReportsFailure)
{
    std::string dir = freshDir("veto");
    DiskCacheOptions o;
    o.dir = dir;
    {
        DiskCache cache(o);
        cache.put("old", "published");
        ASSERT_TRUE(cache.flush());
    }
    DiskCacheOptions failing = o;
    failing.pre_publish_hook = [](const std::string &) { return false; };
    {
        DiskCache cache(failing);
        cache.put("new", "never-published");
        EXPECT_FALSE(cache.flush());
        EXPECT_EQ(cache.stats().flush_failures, 1);
        // The buffer is retained for a retry...
        EXPECT_EQ(cache.pendingWrites(), 1u);
        // ...and the failed write was never promoted to the snapshot.
        EXPECT_FALSE(cache.find("new").has_value());
        // The destructor's flush fails too (hook still vetoes).
    }
    DiskCache fresh(o);
    EXPECT_TRUE(fresh.find("old").has_value());
    EXPECT_FALSE(fresh.find("new").has_value());
    // No temp litter either: the vetoed file was removed.
    for (const auto &e : fs::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string(), DiskCache::kFileName);
}

// --- DiskCache: versioning and eviction ----------------------------------

TEST(DiskCache, VersionBumpInvalidatesEveryStaleEntry)
{
    std::string dir = freshDir("version");
    DiskCacheOptions v1;
    v1.dir = dir;
    v1.version = "sim-1";
    {
        DiskCache cache(v1);
        for (int i = 0; i < 10; ++i)
            cache.put("key-" + std::to_string(i), "v");
        ASSERT_TRUE(cache.flush());
    }
    DiskCacheOptions v2 = v1;
    v2.version = "sim-2";
    {
        DiskCache cache(v2);
        // Every old entry is stale: invisible and counted invalid.
        EXPECT_EQ(cache.stats().loaded, 0);
        EXPECT_EQ(cache.stats().invalid, 10);
        for (int i = 0; i < 10; ++i)
            EXPECT_FALSE(
                cache.find("key-" + std::to_string(i)).has_value());
        // Flushing physically removes the stale population.
        ASSERT_TRUE(cache.flush());
    }
    DiskCache old_again(v1);
    EXPECT_EQ(old_again.stats().loaded, 0);
    DiskCache new_again(v2);
    EXPECT_EQ(new_again.stats().invalid, 0);
}

TEST(DiskCache, ShardCapEvictsOldestGenerations)
{
    std::string dir = freshDir("evict");
    DiskCacheOptions o;
    o.dir = dir;
    const int total = int(DiskCache::kMaxEntries) + 5;
    {
        DiskCache cache(o);
        for (int i = 0; i < total; ++i)
            cache.put("key-" + std::to_string(i), "v");
        ASSERT_TRUE(cache.flush());
        EXPECT_EQ(cache.stats().evictions, 5);
    }
    DiskCache cache(o);
    EXPECT_EQ(cache.stats().loaded, int64_t(DiskCache::kMaxEntries));
    // The most recently written keys survived, the five oldest did not.
    EXPECT_TRUE(cache.find("key-" + std::to_string(total - 1)).has_value());
    EXPECT_TRUE(cache.find("key-5").has_value());
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(cache.find("key-" + std::to_string(i)).has_value());
}

// --- DiskCache: concurrency (tsan hunts races here) ----------------------

TEST(DiskCacheConcurrency, ParallelFindPutFlushOnSharedDir)
{
    std::string dir = freshDir("hammer");
    DiskCacheOptions o;
    o.dir = dir;
    {
        DiskCache seedcache(o);
        for (int i = 0; i < 32; ++i)
            seedcache.put("seed-" + std::to_string(i), "v");
        ASSERT_TRUE(seedcache.flush());
    }
    DiskCache a(o);
    DiskCache b(o);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            DiskCache &cache = t % 2 ? a : b;
            for (int i = 0; i < 200; ++i) {
                std::string key =
                    (i % 3 == 0)
                        ? "seed-" + std::to_string(i % 32)
                        : "t" + std::to_string(t) + "-" +
                              std::to_string(i);
                (void)cache.find(key);
                cache.put(key, "w");
                if (i % 64 == 63)
                    cache.flush();
            }
        });
    }
    for (auto &th : threads)
        th.join();
    ASSERT_TRUE(a.flush());
    ASSERT_TRUE(b.flush());
    DiskCache fresh(o);
    EXPECT_GE(fresh.snapshotSize(), 32u);
}

// --- VerdictStore: typed round trips -------------------------------------

TEST(VerdictStore, CompileVerdictRoundTripsBitExactly)
{
    std::string dir = freshDir("vs-compile");
    repair::VerdictStoreOptions o;
    o.dir = dir;
    hls::CompileResult r;
    r.ok = false;
    r.synth_minutes = 12.345678901234567;
    r.loc = 42;
    r.resources = {1000, 2000, 8, 1 << 20, 3};
    hls::HlsError e;
    e.code = "XFORM 202-876";
    e.message = "Synthesizability check failed: recursive call";
    e.category = hls::ErrorCategory::LoopParallelization;
    e.symbol = "acc";
    e.loc = {17, 4};
    r.errors.push_back(e);
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        store.storeCompile(ctx, "fp-1", r);
        EXPECT_TRUE(store.flush());
        EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.writes"),
                  1);
    }
    repair::VerdictStore store(o);
    RunContext ctx;
    auto hit = store.findCompile(ctx, "fp-1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ok, r.ok);
    EXPECT_FALSE(hit->tool_failure);
    EXPECT_EQ(hit->synth_minutes, r.synth_minutes); // bit-exact
    EXPECT_EQ(hit->loc, r.loc);
    EXPECT_EQ(hit->resources.luts, r.resources.luts);
    EXPECT_EQ(hit->resources.bram_bits, r.resources.bram_bits);
    EXPECT_EQ(hit->resources.memory_banks, r.resources.memory_banks);
    ASSERT_EQ(hit->errors.size(), 1u);
    EXPECT_EQ(hit->errors[0].code, e.code);
    EXPECT_EQ(hit->errors[0].message, e.message);
    EXPECT_EQ(hit->errors[0].category, e.category);
    EXPECT_EQ(hit->errors[0].symbol, e.symbol);
    EXPECT_EQ(hit->errors[0].loc.line, 17);
    EXPECT_EQ(hit->errors[0].loc.column, 4);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.hits"), 1);
    EXPECT_FALSE(store.findCompile(ctx, "fp-2").has_value());
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.misses"), 1);
}

TEST(VerdictStore, DiffTestVerdictRoundTrips)
{
    std::string dir = freshDir("vs-dt");
    repair::VerdictStoreOptions o;
    o.dir = dir;
    repair::DiffTestResult dt;
    dt.total = 16;
    dt.identical = 14;
    dt.failing = {3, 11};
    dt.cpu_millis = 1.0625;
    dt.fpga_millis = 0.4375;
    dt.sim_minutes = 2.7182818284590451;
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        store.storeDiffTest(ctx, "dt-fp", "dt-campaign", dt);
        EXPECT_TRUE(store.flush());
        EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.writes"),
                  1);
    }
    repair::VerdictStore store(o);
    RunContext ctx;
    auto dhit = store.findDiffTest(ctx, "dt-fp", "dt-campaign");
    ASSERT_TRUE(dhit.has_value());
    EXPECT_EQ(dhit->total, 16);
    EXPECT_EQ(dhit->identical, 14);
    EXPECT_EQ(dhit->failing, (std::vector<int>{3, 11}));
    EXPECT_EQ(dhit->sim_minutes, dt.sim_minutes); // bit-exact
    EXPECT_FALSE(dhit->tool_failure);
}

TEST(VerdictStore, ToolFailuresAreNeverPersisted)
{
    std::string dir = freshDir("vs-fail");
    repair::VerdictStoreOptions o;
    o.dir = dir;
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        hls::CompileResult broken;
        broken.tool_failure = true;
        store.storeCompile(ctx, "fp", broken);
        repair::DiffTestResult dt;
        dt.tool_failure = true;
        store.storeDiffTest(ctx, "dt", "campaign", dt);
        EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.writes"),
                  0);
        store.flush();
    }
    repair::VerdictStore store(o);
    RunContext ctx;
    EXPECT_EQ(store.snapshotSize(), 0u);
    EXPECT_FALSE(store.findCompile(ctx, "fp").has_value());
    EXPECT_FALSE(store.findDiffTest(ctx, "dt", "campaign").has_value());
}

TEST(VerdictStore, ToolchainVersionBumpInvalidatesVerdicts)
{
    std::string dir = freshDir("vs-version");
    repair::VerdictStoreOptions current;
    current.dir = dir;
    {
        repair::VerdictStore store(current);
        RunContext ctx;
        hls::CompileResult ok;
        ok.ok = true;
        store.storeCompile(ctx, "fp", ok);
        EXPECT_TRUE(store.flush());
        EXPECT_EQ(store.version(), repair::defaultToolchainVersion());
    }
    repair::VerdictStoreOptions bumped = current;
    bumped.version = "hgc1;sim=2023.1-sim2";
    repair::VerdictStore store(bumped);
    EXPECT_EQ(store.diskStats().invalid, 1);
    EXPECT_EQ(store.snapshotSize(), 0u);
    RunContext ctx;
    EXPECT_FALSE(store.findCompile(ctx, "fp").has_value());
}

// --- VerdictStore: malformed payloads ------------------------------------

/** `payload` with its `index`-th `sep`-separated field replaced. */
std::string
withField(const std::string &payload, size_t index,
          const std::string &value, char sep = '\x1f')
{
    std::vector<std::string> fields = split(payload, sep);
    fields.at(index) = value;
    return join(fields, std::string(1, sep));
}

/**
 * Cache files are input from outside the program. Store `write` as the
 * valid record under `key`, read its payload back through a raw
 * DiskCache, then check that `find` serves the valid payload and
 * rejects each malformed variant `mangle` makes of it — as one
 * repair.diskcache.invalid plus one miss.
 */
void
expectMalformedRejected(
    const std::string &kind, const std::string &key,
    const std::function<void(repair::VerdictStore &, RunContext &)> &write,
    const std::function<bool(repair::VerdictStore &, RunContext &)> &find,
    const std::function<std::map<std::string, std::string>(
        const std::string &)> &mangle)
{
    std::string raw_key = kind + '\x1f' + key;
    DiskCacheOptions raw_opts;
    raw_opts.version = repair::defaultToolchainVersion();
    repair::VerdictStoreOptions o;
    o.dir = raw_opts.dir = freshDir("bad-" + kind);
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        write(store, ctx);
        ASSERT_TRUE(store.flush());
    }
    std::optional<std::string> good = DiskCache(raw_opts).find(raw_key);
    ASSERT_TRUE(good.has_value()) << kind;
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        ASSERT_TRUE(find(store, ctx)) << kind;
    }
    for (const auto &[what, payload] : mangle(*good)) {
        raw_opts.dir = o.dir = freshDir("bad-" + kind);
        {
            DiskCache raw(raw_opts);
            raw.put(raw_key, payload);
            ASSERT_TRUE(raw.flush());
        }
        repair::VerdictStore store(o);
        RunContext ctx;
        EXPECT_FALSE(find(store, ctx)) << kind << ": " << what;
        EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.invalid"), 1)
            << kind << ": " << what;
        EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.misses"), 1)
            << kind << ": " << what;
        EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.hits"), 0)
            << kind << ": " << what;
    }
}

/** Mangles every record kind shares: cut short, one field too many. */
std::map<std::string, std::string>
shapeMangles(const std::string &good)
{
    return {{"truncated", good.substr(0, good.size() / 2)},
            {"extra field", good + '\x1f' + "0"}};
}

TEST(VerdictStore, MalformedCompilePayloadsAreInvalidMisses)
{
    hls::CompileResult r;
    r.synth_minutes = 12.5;
    hls::HlsError e;
    e.code = "XFORM 202-876";
    e.message = "recursive call";
    e.category = hls::ErrorCategory::LoopParallelization;
    r.errors.push_back(e);
    expectMalformedRejected(
        "compile", "fp",
        [&](repair::VerdictStore &s, RunContext &ctx) {
            s.storeCompile(ctx, "fp", r);
        },
        [](repair::VerdictStore &s, RunContext &ctx) {
            return s.findCompile(ctx, "fp").has_value();
        },
        [](const std::string &good) {
            auto bad = shapeMangles(good);
            bad["non-hex double"] = withField(good, 1, "12.5");
            std::string error = split(good, '\x1f').at(4);
            bad["category out of range"] = withField(
                good, 4,
                withField(error, 2,
                          std::to_string(hls::kNumErrorCategories),
                          '\x1d'));
            return bad;
        });
}

TEST(VerdictStore, MalformedDiffTestPayloadsAreInvalidMisses)
{
    repair::DiffTestResult dt;
    dt.total = 4;
    dt.identical = 3;
    dt.failing = {2};
    dt.cpu_millis = 1.0625;
    expectMalformedRejected(
        "difftest", std::string("fp") + '\x1f' + "campaign",
        [&](repair::VerdictStore &s, RunContext &ctx) {
            s.storeDiffTest(ctx, "fp", "campaign", dt);
        },
        [](repair::VerdictStore &s, RunContext &ctx) {
            return s.findDiffTest(ctx, "fp", "campaign").has_value();
        },
        [](const std::string &good) {
            auto bad = shapeMangles(good);
            bad["non-hex double"] = withField(good, 3, "1.0625");
            return bad;
        });
}

TEST(VerdictStore, MalformedStagePayloadsAreInvalidMisses)
{
    repair::StageRecord r;
    r.testgen.suite.add({interp::KernelArg::ofInt(5)});
    r.testgen.sim_minutes = 12.5;
    r.fuzz_counters = {{"fuzz.executions", 3}};
    expectMalformedRejected(
        "stage", "key",
        [&](repair::VerdictStore &s, RunContext &ctx) {
            s.storeStage(ctx, "key", r);
        },
        [](repair::VerdictStore &s, RunContext &ctx) {
            return s.findStage(ctx, "key", 1e9).has_value();
        },
        [](const std::string &good) {
            auto bad = shapeMangles(good);
            bad["non-hex double"] = withField(good, 1, "12.5");
            // The suite field: case count, then the one case's one
            // argument, whose first part is its KernelArg::Kind.
            std::string suite = split(good, '\x1f').at(4);
            std::string arg = split(suite, '\x1e').at(1);
            bad["argument kind out of range"] = withField(
                good, 4,
                withField(suite, 1, withField(arg, 0, "4", ':'), '\x1e'));
            return bad;
        });
}

// --- cache_dir validation surface ----------------------------------------

TEST(CacheDirValidation, DiagnosticsCarryTheCachePrefix)
{
    EXPECT_EQ(repair::cacheDirError(freshDir("probe")), "");
    std::string blank_err = repair::cacheDirError("   ");
    EXPECT_TRUE(startsWith(blank_err, "cache:")) << blank_err;

    // A path whose parent is a regular file cannot become a directory.
    std::string file = freshDir("as-file");
    {
        std::ofstream out(file);
        out << "x";
    }
    std::string err = repair::cacheDirError(file + "/nested");
    EXPECT_TRUE(startsWith(err, "cache:")) << err;
}

TEST(CacheDirValidation, ValidateOptionsRejectsUnusableCacheDir)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.cache_dir = "   ";
    try {
        core::validateOptions(opts);
        FAIL() << "blank cache_dir must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cache:"),
                  std::string::npos)
            << e.what();
    }
    opts.cache_dir = "  \t ";
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.cache_dir = freshDir("valid");
    core::validateOptions(opts); // now fine
    opts.cache_dir.clear();
    core::validateOptions(opts); // "" = memory only
}

TEST(CacheDirValidation, JobSpecRejectsUnusableCacheDirAtSubmit)
{
    service::ConversionService svc;
    service::JobSpec spec;
    spec.tenant = "t";
    spec.source = "int kernel(int x) { return x; }";
    spec.options.kernel = "kernel";
    spec.cache_dir = "   ";
    EXPECT_THROW(svc.submit(spec), FatalError);
    spec.cache_dir.clear();
    svc.submit(std::move(spec));
    svc.drain();
}

TEST(CacheDirValidation, EnvironmentKnobFeedsTheDefault)
{
    std::string dir = freshDir("env");
    ASSERT_EQ(setenv("HETEROGEN_CACHE_DIR", dir.c_str(), 1), 0);
    EXPECT_EQ(repair::defaultCacheDir(), dir);
    EXPECT_EQ(core::HeteroGenOptions{}.cache_dir, dir);
    ASSERT_EQ(unsetenv("HETEROGEN_CACHE_DIR"), 0);
    EXPECT_EQ(repair::defaultCacheDir(), "");
    EXPECT_EQ(core::HeteroGenOptions{}.cache_dir, "");
}

// --- warm-start repair: end-to-end ---------------------------------------

/** A subject whose repair must backtrack (shared-buffer dataflow fix),
 * producing memo traffic and several full HLS invocations. */
const char *kBacktracking = R"(
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

core::HeteroGenOptions
cachedOptions(const std::string &cache_dir)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 400;
    opts.fuzz.min_suite_size = 12;
    opts.search.difftest_sample = 10;
    opts.cache_dir = cache_dir;
    return opts;
}

struct PipelineRun
{
    core::HeteroGenReport report;
    int64_t hls_compiles = 0;
    int64_t style_checks_run = 0;
    int64_t disk_hits = 0;
    int64_t disk_writes = 0;
};

PipelineRun
runCached(const core::HeteroGenOptions &opts,
          const std::string &src = kBacktracking)
{
    core::HeteroGen engine(src);
    RunContext ctx;
    PipelineRun run;
    run.report = engine.run(ctx, opts);
    run.hls_compiles = ctx.trace().counterTotal("hls.compiles");
    run.style_checks_run = ctx.trace().counterTotal("style.checks");
    run.disk_hits = ctx.trace().counterTotal("repair.diskcache.hits");
    run.disk_writes =
        ctx.trace().counterTotal("repair.diskcache.writes");
    return run;
}

/** Bit-identity of everything a cold and warm run must agree on. */
void
expectIdenticalReports(const core::HeteroGenReport &a,
                       const core::HeteroGenReport &b)
{
    EXPECT_EQ(a.hls_source, b.hls_source);
    EXPECT_EQ(a.search.hls_compatible, b.search.hls_compatible);
    EXPECT_EQ(a.search.behavior_preserved, b.search.behavior_preserved);
    EXPECT_EQ(a.search.pass_ratio, b.search.pass_ratio);
    EXPECT_EQ(a.search.sim_minutes, b.search.sim_minutes);
    EXPECT_EQ(a.search.minutes_to_success, b.search.minutes_to_success);
    EXPECT_EQ(a.search.iterations, b.search.iterations);
    EXPECT_EQ(a.search.full_hls_invocations,
              b.search.full_hls_invocations);
    EXPECT_EQ(a.search.style_checks, b.search.style_checks);
    EXPECT_EQ(a.search.style_rejections, b.search.style_rejections);
    EXPECT_EQ(a.search.applied_order, b.search.applied_order);
    auto a_trace = parseTraceJson(a.trace_json);
    auto b_trace = parseTraceJson(b.trace_json);
    for (const char *key :
         {"repair.memo.compile_hits", "repair.memo.compile_misses",
          "repair.memo.difftest_hits", "repair.memo.difftest_misses"})
        EXPECT_EQ(a_trace->counterTotal(key), b_trace->counterTotal(key))
            << key;
    EXPECT_EQ(a.total_minutes, b.total_minutes);
    ASSERT_EQ(a.search.trace.size(), b.search.trace.size());
    for (size_t i = 0; i < a.search.trace.size(); ++i) {
        EXPECT_EQ(a.search.trace[i].iteration,
                  b.search.trace[i].iteration);
        EXPECT_EQ(a.search.trace[i].action, b.search.trace[i].action);
        // Bit-equal simulated clock at every recorded step.
        EXPECT_EQ(a.search.trace[i].minutes_after,
                  b.search.trace[i].minutes_after);
    }
}

TEST(WarmStart, WarmRunsAreBitIdenticalAndSkipToolchainWork)
{
    std::string dir = freshDir("warm");
    PipelineRun cold = runCached(cachedOptions(dir));
    ASSERT_TRUE(cold.report.ok());
    EXPECT_GT(cold.disk_writes, 0);
    EXPECT_EQ(cold.disk_hits, 0);
    EXPECT_GT(cold.hls_compiles, 0);

    PipelineRun warm = runCached(cachedOptions(dir));
    PipelineRun warm2 = runCached(cachedOptions(dir));
    ASSERT_TRUE(warm.report.ok());
    expectIdenticalReports(cold.report, warm.report);
    expectIdenticalReports(warm.report, warm2.report);

    // The warm run answered compile verdicts from disk instead of
    // invoking the simulated toolchain.
    EXPECT_GT(warm.disk_hits, 0);
    EXPECT_LT(warm.hls_compiles, cold.hls_compiles);
    EXPECT_EQ(warm.hls_compiles, 0);
    EXPECT_EQ(warm2.hls_compiles, warm.hls_compiles);
    EXPECT_EQ(warm2.disk_hits, warm.disk_hits);
}

TEST(WarmStart, ToolchainVersionBumpRunsColdAgain)
{
    std::string dir = freshDir("warm-version");
    PipelineRun cold = runCached(cachedOptions(dir));
    ASSERT_TRUE(cold.report.ok());

    // How many entries the cold run actually persisted. (disk_writes
    // over-counts: a re-store of the same verdict after a revert is
    // counted, then deduplicated by the write buffer.)
    int64_t persisted = 0;
    {
        repair::VerdictStoreOptions probe;
        probe.dir = dir;
        persisted =
            static_cast<int64_t>(repair::VerdictStore(probe)
                                     .snapshotSize());
    }
    ASSERT_GT(persisted, 0);

    // Simulate a simulator upgrade: a store stamped with a different
    // toolchain version sees every persisted verdict as stale.
    repair::VerdictStoreOptions vopts;
    vopts.dir = dir;
    vopts.version = "hgc1;sim=2099.9-simX";
    repair::VerdictStore bumped(vopts);
    EXPECT_EQ(bumped.snapshotSize(), 0u);
    EXPECT_EQ(bumped.diskStats().invalid, persisted);

    core::HeteroGenOptions opts = cachedOptions("");
    opts.search.verdict_store = &bumped;
    PipelineRun rerun = runCached(opts);
    expectIdenticalReports(cold.report, rerun.report);
    // No warm-start: every compile was fresh work again.
    EXPECT_EQ(rerun.hls_compiles, cold.hls_compiles);

    // Flushing the bumped store scrubs the stale population and
    // publishes the rerun's verdicts: reopening under the bumped
    // version sees a clean, warm cache.
    ASSERT_TRUE(bumped.flush());
    repair::VerdictStore again(vopts);
    EXPECT_EQ(again.diskStats().invalid, 0);
    EXPECT_GT(again.snapshotSize(), 0u);
}

TEST(WarmStart, ArmedFaultPlanBypassesTheDiskEntirely)
{
    std::string dir = freshDir("faults");
    core::HeteroGenOptions opts = cachedOptions(dir);
    opts.faults = FaultPlan{11, {{"hls.compile", 1.0}}};
    opts.retry = RetryPolicy::none();
    core::HeteroGen engine(kBacktracking);
    RunContext ctx;
    auto report = engine.run(ctx, opts);
    EXPECT_TRUE(report.degraded());
    // No verdict — and in particular no tool failure — reached disk.
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.writes"), 0);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.hits"), 0);
    EXPECT_TRUE(dataFiles(dir).empty());
}

// --- difftest verdicts are keyed by the exact suite -----------------------

/** One repair search of `candidate` against `original` over `suite`,
 * with `store` lent to it (null = memory only). */
struct SuiteSearch
{
    repair::SearchResult result;
    int64_t campaigns = 0;
    int64_t disk_hits = 0;
};

SuiteSearch
searchOverSuite(const char *original, const char *candidate,
                const fuzz::TestSuite &suite, repair::VerdictStore *store)
{
    cir::TuPtr orig = cir::parse(original);
    cir::analyzeOrDie(*orig);
    cir::TuPtr cand = cir::parse(candidate);
    cir::analyzeOrDie(*cand);
    repair::CpuOracle oracle(*orig, "kernel", suite);
    repair::SearchOptions options;
    options.budget_minutes = 60;
    options.verdict_store = store;
    interp::ValueProfile profile;
    RunContext ctx;
    SuiteSearch run;
    run.result = repair::repairSearch(ctx, oracle, *cand,
                                      hls::HlsConfig::forTop("kernel"),
                                      profile, options);
    run.campaigns = ctx.trace().counterTotal("difftest.campaigns");
    run.disk_hits = ctx.trace().counterTotal("repair.diskcache.hits");
    return run;
}

/**
 * Warm a store with the search over `suite_a`, then search the same
 * candidate over `suite_b`: B must run every campaign itself (no
 * difftest verdict of A's served) and end exactly as a cold search on
 * B does.
 */
void
expectSuiteKeysApart(const char *original, const char *candidate,
                     const fuzz::TestSuite &suite_a,
                     const fuzz::TestSuite &suite_b)
{
    SuiteSearch cold_b = searchOverSuite(original, candidate, suite_b,
                                         nullptr);
    ASSERT_GT(cold_b.campaigns, 0);

    repair::VerdictStoreOptions o;
    o.dir = freshDir("suite-key");
    {
        repair::VerdictStore store(o);
        SuiteSearch a = searchOverSuite(original, candidate, suite_a,
                                        &store);
        ASSERT_GT(a.campaigns, 0);
        ASSERT_NE(a.result.behavior_preserved,
                  cold_b.result.behavior_preserved);
        ASSERT_TRUE(store.flush());
    }
    repair::VerdictStore store(o);
    SuiteSearch warm_b = searchOverSuite(original, candidate, suite_b,
                                         &store);
    // The compile verdicts do carry over: B saw the store.
    EXPECT_GT(warm_b.disk_hits, 0);
    EXPECT_EQ(warm_b.campaigns, cold_b.campaigns)
        << "a difftest verdict of suite A was served to suite B";
    EXPECT_EQ(warm_b.result.behavior_preserved,
              cold_b.result.behavior_preserved);
    EXPECT_EQ(warm_b.result.pass_ratio, cold_b.result.pass_ratio);
    EXPECT_EQ(warm_b.result.iterations, cold_b.result.iterations);
    EXPECT_EQ(warm_b.result.sim_minutes, cold_b.result.sim_minutes);
    EXPECT_EQ(cir::print(*warm_b.result.program),
              cir::print(*cold_b.result.program));
}

TEST(DifftestKey, SuitesDifferingOnlyAtArrayElementNineKeyApart)
{
    // The original reads a[9]; the candidate ignores it, so it agrees
    // with the original on A (a[9] = 0) and diverges on B (a[9] = 7).
    const char *original =
        "int kernel(int a[16]) { return a[9] > 5 ? 1 : 0; }";
    const char *candidate = "int kernel(int a[16]) { return 0; }";
    std::vector<long> elems(16, 1);
    elems[9] = 0;
    fuzz::TestSuite suite_a;
    suite_a.add({interp::KernelArg::ofInts(elems)});
    elems[9] = 7;
    fuzz::TestSuite suite_b;
    suite_b.add({interp::KernelArg::ofInts(elems)});
    expectSuiteKeysApart(original, candidate, suite_a, suite_b);
}

TEST(DifftestKey, SuitesDifferingOnlyInTheSeventhDigitKeyApart)
{
    // 1.234567 and 1.234568 print alike at six significant digits.
    const char *original =
        "int kernel(float x) { return x > 1.2345675 ? 1 : 0; }";
    const char *candidate = "int kernel(float x) { return 0; }";
    fuzz::TestSuite suite_a;
    suite_a.add({interp::KernelArg::ofFloat(1.234567)});
    fuzz::TestSuite suite_b;
    suite_b.add({interp::KernelArg::ofFloat(1.234568)});
    expectSuiteKeysApart(original, candidate, suite_a, suite_b);
}

// --- stage 1-2 records ----------------------------------------------------

/** Counter `key` summed under the first span named `span`. */
int64_t
spanCounter(const RunContext &ctx, const char *span, const char *key)
{
    const TraceSpan *s = ctx.trace().root().find(span);
    return s ? s->counterTotal(key) : 0;
}

/** A counter of the pipeline span itself (where stage-record lookups
 * and writes count), excluding its stages. */
int64_t
pipelineCounter(const RunContext &ctx, const char *key)
{
    const TraceSpan *s = ctx.trace().root().find("pipeline");
    return s ? s->counter(key) : 0;
}

std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Stage 1-2 output equality, beyond what expectIdenticalReports checks. */
void
expectIdenticalStages(const core::HeteroGenReport &a,
                      const core::HeteroGenReport &b)
{
    EXPECT_EQ(exact(a.total_minutes), exact(b.total_minutes));
    ASSERT_EQ(a.testgen.suite.size(), b.testgen.suite.size());
    for (size_t i = 0; i < a.testgen.suite.size(); ++i) {
        EXPECT_EQ(a.testgen.suite[i].id, b.testgen.suite[i].id);
        EXPECT_EQ(a.testgen.suite[i].args, b.testgen.suite[i].args);
    }
    EXPECT_TRUE(a.testgen.coverage == b.testgen.coverage);
    EXPECT_EQ(a.testgen.executions, b.testgen.executions);
    EXPECT_EQ(exact(a.testgen.sim_minutes), exact(b.testgen.sim_minutes));
    EXPECT_EQ(exact(a.testgen.last_progress_minutes),
              exact(b.testgen.last_progress_minutes));
    EXPECT_TRUE(a.profile == b.profile);
}

TEST(StageRecord, RoundTripsBitExactly)
{
    repair::StageRecord r;
    r.testgen.suite.add({interp::KernelArg::ofInt(-3),
                         interp::KernelArg::ofFloat(-0.0),
                         interp::KernelArg::ofInts({1, -2, 1L << 40}),
                         interp::KernelArg::ofFloats(
                             {0.1, std::nan(""), -1e300})});
    r.testgen.suite.add({interp::KernelArg::ofInt(7),
                         interp::KernelArg::ofFloat(1.0 / 3),
                         interp::KernelArg::ofInts({}),
                         interp::KernelArg::ofFloats({})});
    r.testgen.coverage.setNumBranches(5);
    interp::CoverageMap local(5);
    local.record(0, true);
    local.record(3, false);
    local.record(3, false);
    r.testgen.coverage.merge(local);
    r.testgen.executions = 321;
    r.testgen.sim_minutes = 12.345678901234567;
    r.testgen.last_progress_minutes = 0.1 + 0.2;
    r.profile.note("kernel::x", -40);
    r.profile.note("kernel::x", 1L << 33);
    r.profile.noteFloat("kernel::y", -2.5e-7);
    r.fuzz_counters = {{"fuzz.executions", 321},
                       {"fuzz.coverage_edges", 2},
                       {"fuzz.suite_size", 2}};

    std::string dir = freshDir("stage-rt");
    repair::VerdictStoreOptions o;
    o.dir = dir;
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        store.storeStage(ctx, "key", r);
        ASSERT_TRUE(store.flush());
    }
    repair::VerdictStore store(o);
    RunContext ctx;
    auto hit = store.findStage(ctx, "key", 1e9);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->testgen.suite.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(hit->testgen.suite[i].id, r.testgen.suite[i].id);
        EXPECT_EQ(hit->testgen.suite[i].str(), r.testgen.suite[i].str());
    }
    // NaN compares unequal to itself: check that element bit for bit.
    double nan_back = hit->testgen.suite[0].args[3].floats[1];
    double nan_orig = r.testgen.suite[0].args[3].floats[1];
    EXPECT_EQ(std::memcmp(&nan_back, &nan_orig, sizeof nan_back), 0);
    EXPECT_TRUE(std::signbit(hit->testgen.suite[0].args[1].f));
    EXPECT_EQ(hit->testgen.suite[1].args, r.testgen.suite[1].args);
    EXPECT_TRUE(hit->testgen.coverage == r.testgen.coverage);
    EXPECT_EQ(hit->testgen.coverage.coverage(),
              r.testgen.coverage.coverage());
    EXPECT_EQ(hit->testgen.executions, 321);
    EXPECT_EQ(hit->testgen.sim_minutes, r.testgen.sim_minutes);
    EXPECT_EQ(hit->testgen.last_progress_minutes,
              r.testgen.last_progress_minutes);
    EXPECT_TRUE(hit->profile == r.profile);
    EXPECT_EQ(hit->fuzz_counters, r.fuzz_counters);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.hits"), 1);

    // A record at least as long as the allowance would have been cut
    // short, so it is a miss.
    EXPECT_FALSE(
        store.findStage(ctx, "key", r.testgen.sim_minutes).has_value());
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.misses"), 1);
}

TEST(StageRecord, EveryKeyedFuzzOptionChangesTheKey)
{
    fuzz::FuzzOptions base;
    const std::string key =
        repair::stageRecordKey("int k(int x) { return x; }", "k", base);
    std::vector<std::function<void(fuzz::FuzzOptions &)>> edits = {
        [](fuzz::FuzzOptions &o) { o.host_function = "host"; },
        [](fuzz::FuzzOptions &o) { o.rng_seed += 1; },
        [](fuzz::FuzzOptions &o) { o.mutations_per_input += 1; },
        [](fuzz::FuzzOptions &o) { o.max_executions += 1; },
        [](fuzz::FuzzOptions &o) { o.budget_minutes += 1e-9; },
        [](fuzz::FuzzOptions &o) { o.plateau_minutes += 1e-9; },
        [](fuzz::FuzzOptions &o) { o.min_suite_size += 1; },
        [](fuzz::FuzzOptions &o) { o.max_steps_per_run += 1; },
    };
    std::set<std::string> keys = {key};
    for (const auto &edit : edits) {
        fuzz::FuzzOptions changed = base;
        edit(changed);
        keys.insert(repair::stageRecordKey("int k(int x) { return x; }",
                                           "k", changed));
    }
    keys.insert(repair::stageRecordKey("int k(int y) { return y; }", "k",
                                       base));
    keys.insert(
        repair::stageRecordKey("int k(int x) { return x; }", "j", base));
    EXPECT_EQ(keys.size(), edits.size() + 3);
}

TEST(StageRecord, SecondRunReplaysStagesByteIdentically)
{
    std::string dir = freshDir("stage-warm");
    core::HeteroGen engine(kBacktracking);
    RunContext cold_ctx;
    auto cold = engine.run(cold_ctx, cachedOptions(dir));
    ASSERT_TRUE(cold.ok());
    EXPECT_GT(spanCounter(cold_ctx, "fuzz", "interp.steps"), 0);
    EXPECT_GT(spanCounter(cold_ctx, "profile", "interp.steps"), 0);
    EXPECT_EQ(pipelineCounter(cold_ctx, "repair.diskcache.misses"), 1);
    EXPECT_EQ(pipelineCounter(cold_ctx, "repair.diskcache.writes"), 1);

    RunContext warm_ctx;
    auto warm = engine.run(warm_ctx, cachedOptions(dir));
    expectIdenticalReports(cold, warm);
    expectIdenticalStages(cold, warm);
    EXPECT_EQ(pipelineCounter(warm_ctx, "repair.diskcache.hits"), 1);
    EXPECT_EQ(pipelineCounter(warm_ctx, "repair.diskcache.writes"), 0);
    // Neither stage ran the original...
    EXPECT_EQ(spanCounter(warm_ctx, "fuzz", "interp.steps"), 0);
    EXPECT_EQ(spanCounter(warm_ctx, "profile", "interp.steps"), 0);
    // ...yet the fuzz span reads as it did cold: same minutes, same
    // fuzz.* counters.
    const TraceSpan *cold_fuzz = cold_ctx.trace().root().find("fuzz");
    const TraceSpan *warm_fuzz = warm_ctx.trace().root().find("fuzz");
    ASSERT_NE(cold_fuzz, nullptr);
    ASSERT_NE(warm_fuzz, nullptr);
    EXPECT_EQ(exact(warm_fuzz->minutes), exact(cold_fuzz->minutes));
    for (const auto &[k, v] : cold_fuzz->counters) {
        if (startsWith(k, "fuzz.")) {
            EXPECT_EQ(warm_fuzz->counter(k), v) << k;
        }
    }

    // A changed campaign option is a different campaign: it misses.
    core::HeteroGenOptions reseeded = cachedOptions(dir);
    reseeded.fuzz.rng_seed += 1;
    RunContext miss_ctx;
    engine.run(miss_ctx, reseeded);
    EXPECT_EQ(pipelineCounter(miss_ctx, "repair.diskcache.hits"), 0);
    EXPECT_GT(spanCounter(miss_ctx, "fuzz", "interp.steps"), 0);
}

TEST(StageRecord, ColdRunWritesOnlyCompileDiffTestAndStageRecords)
{
    // Style verdicts are recomputed on every run, never persisted:
    // each write of a cold run is a compile verdict, a difftest
    // verdict or the stage record.
    core::HeteroGen engine(kBacktracking);
    RunContext ctx;
    ASSERT_TRUE(engine.run(ctx, cachedOptions(freshDir("cold-writes"))).ok());
    EXPECT_GT(spanCounter(ctx, "repair", "search.style_checks"), 0);
    EXPECT_EQ(pipelineCounter(ctx, "repair.diskcache.writes"), 1);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.writes"),
              spanCounter(ctx, "repair", "hls.compiles") +
                  spanCounter(ctx, "repair", "difftest.campaigns") +
                  pipelineCounter(ctx, "repair.diskcache.writes"));
}

TEST(StageRecord, ReplaysOnlyWhatTheBudgetWouldNotCut)
{
    std::string dir = freshDir("stage-budget");
    core::HeteroGen engine(kBacktracking);
    auto cold = engine.run(cachedOptions(dir));
    double fuzz_minutes = cold.testgen.sim_minutes;
    ASSERT_GT(fuzz_minutes, 0);

    // A pipeline budget that cuts the campaign: the record would
    // overstate it, so the run fuzzes afresh and records nothing.
    core::HeteroGenOptions tight = cachedOptions(dir);
    tight.pipeline_budget_minutes = fuzz_minutes / 2;
    RunContext tight_ctx;
    auto cut = engine.run(tight_ctx, tight);
    EXPECT_EQ(pipelineCounter(tight_ctx, "repair.diskcache.hits"), 0);
    EXPECT_EQ(pipelineCounter(tight_ctx, "repair.diskcache.writes"), 0);
    EXPECT_GT(spanCounter(tight_ctx, "fuzz", "interp.steps"), 0);
    core::HeteroGenOptions tight_alone = tight;
    tight_alone.cache_dir = "";
    auto reference = engine.run(tight_alone);
    expectIdenticalReports(reference, cut);
    expectIdenticalStages(reference, cut);

    // A budget the campaign fits in replays it.
    core::HeteroGenOptions roomy = cachedOptions(dir);
    roomy.pipeline_budget_minutes = fuzz_minutes + 500;
    RunContext roomy_ctx;
    auto replayed = engine.run(roomy_ctx, roomy);
    EXPECT_EQ(pipelineCounter(roomy_ctx, "repair.diskcache.hits"), 1);
    roomy.cache_dir = "";
    auto fresh = engine.run(roomy);
    expectIdenticalReports(fresh, replayed);
    expectIdenticalStages(fresh, replayed);
}

TEST(StageRecord, ArmedFaultPlanNeitherReadsNorWritesIt)
{
    // A zero-probability rule arms the plan without firing, so the run
    // is the clean one — only the store is bypassed.
    std::string dir = freshDir("stage-faults");
    core::HeteroGen engine(kBacktracking);
    auto cold = engine.run(cachedOptions(dir));
    size_t entries = 0;
    {
        repair::VerdictStoreOptions probe;
        probe.dir = dir;
        entries = repair::VerdictStore(probe).snapshotSize();
    }
    ASSERT_GT(entries, 0u);

    core::HeteroGenOptions armed = cachedOptions(dir);
    armed.faults = FaultPlan{11, {{"hls.compile", 0}}};
    RunContext ctx;
    auto report = engine.run(ctx, armed);
    expectIdenticalReports(cold, report);
    expectIdenticalStages(cold, report);
    EXPECT_GT(spanCounter(ctx, "fuzz", "interp.steps"), 0);
    EXPECT_GT(spanCounter(ctx, "profile", "interp.steps"), 0);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.hits"), 0);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.misses"), 0);
    EXPECT_EQ(ctx.trace().counterTotal("repair.diskcache.writes"), 0);

    std::string empty = freshDir("stage-faults-empty");
    armed.cache_dir = empty;
    engine.run(armed);
    EXPECT_TRUE(dataFiles(empty).empty());
}

// --- streaming subjects through the cache --------------------------------

TEST(VerdictStore, StreamingDeadlockVerdictRoundTripsBitExactly)
{
    std::string dir = freshDir("vs-stream");
    repair::VerdictStoreOptions o;
    o.dir = dir;
    hls::CompileResult r;
    r.ok = false;
    r.synth_minutes = 3.0000000000000004;
    hls::HlsError e;
    e.code = "XFORM 203-713";
    e.message = "deadlock detected in DATAFLOW region: fifo 'ns' of "
                "depth 2 requires depth 64 to avoid backpressure stall.";
    e.category = hls::ErrorCategory::StreamingDataflow;
    e.symbol = "ns";
    e.loc = {12, 5};
    r.errors.push_back(e);
    {
        repair::VerdictStore store(o);
        RunContext ctx;
        store.storeCompile(ctx, "stream-fp", r);
        EXPECT_TRUE(store.flush());
    }
    repair::VerdictStore store(o);
    RunContext ctx;
    auto hit = store.findCompile(ctx, "stream-fp");
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->ok);
    EXPECT_EQ(hit->synth_minutes, r.synth_minutes); // bit-exact
    ASSERT_EQ(hit->errors.size(), 1u);
    EXPECT_EQ(hit->errors[0].code, e.code);
    EXPECT_EQ(hit->errors[0].message, e.message);
    EXPECT_EQ(hit->errors[0].category,
              hls::ErrorCategory::StreamingDataflow);
    EXPECT_EQ(hit->errors[0].symbol, "ns");
    EXPECT_EQ(hit->errors[0].loc.line, 12);
    EXPECT_EQ(hit->errors[0].loc.column, 5);
}

core::HeteroGenOptions
streamCachedOptions(const subjects::Subject &s, const std::string &dir)
{
    core::HeteroGenOptions opts;
    opts.kernel = s.kernel;
    opts.fuzz.host_function = s.host;
    opts.fuzz.rng_seed = s.fuzz_seed;
    opts.fuzz.max_executions = 60;
    opts.fuzz.mutations_per_input = 6;
    opts.fuzz.min_suite_size = 8;
    opts.fuzz.max_steps_per_run = 400000;
    opts.search.difftest_sample = 8;
    opts.cache_dir = dir;
    return opts;
}

TEST(WarmStart, StreamingSubjectWarmRunSkipsEveryCompile)
{
    // The stream-repair path (hang verdicts, stream_depth edits, the
    // stream_depth fingerprint component) must round-trip through the
    // persistent cache like every other verdict: a warm rerun of the
    // stencil subject answers everything from disk.
    const subjects::Subject &s = subjects::subjectById("S3");
    std::string dir = freshDir("warm-stream");
    PipelineRun cold = runCached(streamCachedOptions(s, dir), s.source);
    ASSERT_TRUE(cold.report.ok());
    EXPECT_GT(cold.hls_compiles, 0);
    EXPECT_GT(cold.disk_writes, 0);
    EXPECT_EQ(cold.disk_hits, 0);

    PipelineRun warm = runCached(streamCachedOptions(s, dir), s.source);
    ASSERT_TRUE(warm.report.ok());
    expectIdenticalReports(cold.report, warm.report);
    EXPECT_GT(warm.disk_hits, 0);
    EXPECT_EQ(warm.hls_compiles, 0);
}

// --- stale-cache guard ----------------------------------------------------

/**
 * Digest of everything a directory persists: the sorted (key hash,
 * value) pairs of its data file's lines, generation stamps left out.
 * Every line must be valid under `version`.
 */
std::string
persistedDigest(const std::string &dir, const std::string &version)
{
    std::vector<std::string> records;
    std::ifstream in(dataFile(dir));
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> f = split(line, '\t');
        EXPECT_EQ(f.size(), 6u) << line;
        if (f.size() == 6 && f[2] == version)
            records.push_back(f[1] + '\t' + f[4]);
    }
    std::sort(records.begin(), records.end());
    repair::VerdictStoreOptions o;
    o.dir = dir;
    repair::VerdictStore store(o);
    EXPECT_EQ(store.diskStats().invalid, 0);
    EXPECT_EQ(store.snapshotSize(), records.size());
    return std::to_string(records.size()) + ":" +
           DiskCache::keyHash(join(records, "\n"));
}

TEST(StaleCacheGuard, PersistedVerdictsMoveOnlyWithTheVersion)
{
    // A warm cache serves whatever an older build persisted, as long as
    // the version stamp matches. So a change to the code behind any
    // verdict or stage record must come with a version bump. Pinned:
    // the stamp and the digest of what cold runs of these subjects
    // persist.
    const std::string pinned_version = "hgc4;sim=2022.1-sim3";
    const std::string pinned_digest = "15:be19b97dd8a9c11704171efb955bd643";

    std::string dir = freshDir("guard");
    ASSERT_TRUE(runCached(cachedOptions(dir)).report.ok());
    const subjects::Subject &s3 = subjects::subjectById("S3");
    ASSERT_TRUE(
        runCached(streamCachedOptions(s3, dir), s3.source).report.ok());
    std::string version = repair::defaultToolchainVersion();
    std::string digest = persistedDigest(dir, version);
    if (version == pinned_version) {
        EXPECT_EQ(digest, pinned_digest)
            << "What the verdict store persists changed, but its version "
               "stamp did not: a warm cache from an older build would "
               "serve stale verdicts. Bump hls::kSimulatorVersion "
               "(src/hls/compiler.h), or the store format stamp in "
               "repair::defaultToolchainVersion() (src/repair/store.cc) "
               "when the codec changed, then re-pin this test with the "
               "new version and digest.";
    } else {
        ADD_FAILURE() << "The store version moved to '" << version
                      << "': re-pin this test with that version and "
                         "digest '" << digest << "'.";
    }
}

// --- shared cache under the conversion service ---------------------------

const char *kScaleSource = R"(
int scale(int x, int y) {
    long double acc = 0.299L * x + 0.587L * y;
    long double bias = acc * 0.125L + 1.0L;
    return bias;
}
)";

core::HeteroGenOptions
fastServiceOptions(uint64_t seed)
{
    core::HeteroGenOptions opts;
    opts.kernel = "scale";
    opts.fuzz.rng_seed = seed;
    opts.fuzz.max_executions = 80;
    opts.fuzz.mutations_per_input = 4;
    opts.fuzz.min_suite_size = 8;
    opts.fuzz.budget_minutes = 30;
    opts.search.budget_minutes = 60;
    opts.search.max_iterations = 40;
    opts.search.difftest_sample = 4;
    opts.search.rng_seed = seed * 31 + 7;
    return opts;
}

struct ServiceRecord
{
    std::vector<std::string> sources;
    std::vector<std::string> traces;
    std::vector<double> minutes;
    int64_t hls_compiles = 0;
    int64_t disk_hits = 0;
};

ServiceRecord
drainWithCache(const std::string &dir, int host_threads)
{
    service::ServiceOptions so;
    so.slots = 2;
    so.host_threads = host_threads;
    so.eval_threads = 2;
    service::ConversionService svc(so);
    std::vector<int> ids;
    for (int i = 0; i < 4; ++i) {
        service::JobSpec spec;
        spec.tenant = i % 2 ? "alpha" : "beta";
        spec.arrival_minutes = 0.3 * i;
        spec.source = kScaleSource;
        // Two seed groups: jobs 0/2 and 1/3 are exact repeats, so even
        // the cold drain shares verdicts via the snapshot-plus-flush
        // discipline (never mid-drain).
        spec.options = fastServiceOptions(3 + (i % 2));
        spec.cache_dir = dir;
        ids.push_back(svc.submit(std::move(spec)));
    }
    svc.drain();
    ServiceRecord rec;
    for (int id : ids) {
        const service::JobOutcome &out = svc.collect(id);
        EXPECT_TRUE(out.has_report);
        rec.sources.push_back(out.report.hls_source);
        rec.traces.push_back(out.trace_json);
        rec.minutes.push_back(out.report.total_minutes);
        auto span = parseTraceJson(out.trace_json);
        rec.hls_compiles += span->counterTotal("hls.compiles");
        rec.disk_hits +=
            span->counterTotal("repair.diskcache.hits");
    }
    return rec;
}

TEST(ServiceCache, WarmDrainSkipsToolchainWorkWithIdenticalReports)
{
    std::string dir = freshDir("svc-warm");
    ServiceRecord cold = drainWithCache(dir, 2);
    EXPECT_EQ(cold.disk_hits, 0);
    EXPECT_GT(cold.hls_compiles, 0);

    ServiceRecord warm = drainWithCache(dir, 2);
    EXPECT_EQ(warm.sources, cold.sources);
    EXPECT_EQ(warm.minutes, cold.minutes);
    EXPECT_GT(warm.disk_hits, 0);
    EXPECT_LT(warm.hls_compiles, cold.hls_compiles);

    ServiceRecord warm2 = drainWithCache(dir, 2);
    EXPECT_EQ(warm2.sources, warm.sources);
    EXPECT_EQ(warm2.minutes, warm.minutes);
    EXPECT_EQ(warm2.traces, warm.traces);
}

TEST(ServiceCache, SharedCacheOutcomesAreHostThreadInvariant)
{
    // Cold drains on fresh directories: every thread count sees the
    // same (empty) snapshot, so everything must match bit for bit.
    ServiceRecord c1 = drainWithCache(freshDir("svc-c1"), 1);
    ServiceRecord c2 = drainWithCache(freshDir("svc-c2"), 2);
    ServiceRecord c8 = drainWithCache(freshDir("svc-c8"), 8);
    EXPECT_EQ(c1.sources, c2.sources);
    EXPECT_EQ(c1.traces, c2.traces);
    EXPECT_EQ(c1.minutes, c2.minutes);
    EXPECT_EQ(c1.sources, c8.sources);
    EXPECT_EQ(c1.traces, c8.traces);

    // Warm drains over one populated directory: the snapshot is the
    // same for every replay, so thread count still cannot show.
    std::string dir = freshDir("svc-warm-threads");
    drainWithCache(dir, 2);
    ServiceRecord w1 = drainWithCache(dir, 1);
    ServiceRecord w2 = drainWithCache(dir, 2);
    ServiceRecord w8 = drainWithCache(dir, 8);
    EXPECT_EQ(w1.sources, w2.sources);
    EXPECT_EQ(w1.traces, w2.traces);
    EXPECT_EQ(w1.minutes, w2.minutes);
    EXPECT_EQ(w1.sources, w8.sources);
    EXPECT_EQ(w1.traces, w8.traces);
}

/** Per-job schedule and outcome of a two-wave drain. */
struct WaveRecord
{
    std::vector<double> starts;
    std::vector<double> finishes;
    std::vector<std::string> sources;
    std::vector<std::string> traces;
    std::vector<std::string> minutes;
    std::vector<int64_t> fuzz_steps;
};

/**
 * Two waves through one service and one cache directory: wave 0 runs
 * two seed groups, wave 1 resubmits both next to a new one, so the
 * repeats replay wave 0's stage records from the snapshot the flush
 * between the waves published.
 */
WaveRecord
drainTwoWaves(const std::string &dir, int host_threads)
{
    service::ServiceOptions so;
    so.slots = 2;
    so.host_threads = host_threads;
    so.eval_threads = 2;
    service::ConversionService svc(so);
    std::vector<int> ids;
    const std::vector<std::vector<uint64_t>> waves = {{3, 4}, {3, 5, 4}};
    for (size_t w = 0; w < waves.size(); ++w) {
        for (size_t i = 0; i < waves[w].size(); ++i) {
            service::JobSpec spec;
            spec.tenant = i % 2 ? "alpha" : "beta";
            spec.arrival_minutes = 200.0 * double(w) + 0.3 * double(i);
            spec.source = kScaleSource;
            spec.options = fastServiceOptions(waves[w][i]);
            spec.cache_dir = dir;
            ids.push_back(svc.submit(std::move(spec)));
        }
        svc.drain();
    }
    WaveRecord rec;
    for (int id : ids) {
        const service::JobOutcome &out = svc.collect(id);
        EXPECT_TRUE(out.has_report);
        rec.starts.push_back(out.status.start_minutes);
        rec.finishes.push_back(out.status.finish_minutes);
        rec.sources.push_back(out.report.hls_source);
        rec.traces.push_back(out.trace_json);
        rec.minutes.push_back(exact(out.report.total_minutes));
        auto trace = parseTraceJson(out.trace_json);
        const TraceSpan *fuzz = trace->find("fuzz");
        rec.fuzz_steps.push_back(fuzz ? fuzz->counterTotal("interp.steps")
                                      : -1);
    }
    return rec;
}

TEST(ServiceCache, RepeatedSourceInALaterWaveIsHostThreadInvariant)
{
    WaveRecord one = drainTwoWaves(freshDir("svc-waves-1"), 1);
    WaveRecord four = drainTwoWaves(freshDir("svc-waves-4"), 4);
    EXPECT_EQ(one.starts, four.starts);
    EXPECT_EQ(one.finishes, four.finishes);
    EXPECT_EQ(one.sources, four.sources);
    EXPECT_EQ(one.traces, four.traces);
    EXPECT_EQ(one.minutes, four.minutes);
    // Wave 1's repeats (jobs 2 and 4) replayed their stage records and
    // match their wave-0 twins; the new seed (job 3) fuzzed.
    ASSERT_EQ(one.fuzz_steps.size(), 5u);
    EXPECT_GT(one.fuzz_steps[0], 0);
    EXPECT_GT(one.fuzz_steps[1], 0);
    EXPECT_EQ(one.fuzz_steps[2], 0);
    EXPECT_GT(one.fuzz_steps[3], 0);
    EXPECT_EQ(one.fuzz_steps[4], 0);
    EXPECT_EQ(one.sources[2], one.sources[0]);
    EXPECT_EQ(one.minutes[2], one.minutes[0]);
    EXPECT_EQ(one.sources[4], one.sources[1]);
    EXPECT_EQ(one.minutes[4], one.minutes[1]);
}

} // namespace
} // namespace heterogen

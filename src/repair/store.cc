#include "repair/store.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "support/run_context.h"
#include "support/strings.h"

namespace heterogen::repair {

namespace fs = std::filesystem;

namespace {

/** Field / list-element / sub-field separators inside payloads. No
 * diagnostic or printed program contains these control characters. */
constexpr char kField = '\x1f';
constexpr char kElem = '\x1e';
constexpr char kSub = '\x1d';

/**
 * Doubles are serialized at %.17g — the same round-trip guarantee the
 * trace JSON relies on — so replayed charges are bit-exact.
 */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
parseDouble(const std::string &s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return end != s.c_str() && *end == '\0';
}

bool
parseLong(const std::string &s, long long *out)
{
    char *end = nullptr;
    *out = std::strtoll(s.c_str(), &end, 10);
    return end != s.c_str() && *end == '\0';
}

std::string
joinLongs(const std::vector<long long> &vals)
{
    std::string out;
    for (size_t i = 0; i < vals.size(); ++i) {
        if (i)
            out.push_back(',');
        out += std::to_string(vals[i]);
    }
    return out;
}

bool
splitLongs(const std::string &s, std::vector<long long> *out)
{
    out->clear();
    if (s.empty())
        return true;
    for (const std::string &part : split(s, ',')) {
        long long v = 0;
        if (!parseLong(part, &v))
            return false;
        out->push_back(v);
    }
    return true;
}

std::string
encodeCompile(const hls::CompileResult &r)
{
    std::string errors;
    for (size_t i = 0; i < r.errors.size(); ++i) {
        const hls::HlsError &e = r.errors[i];
        if (i)
            errors.push_back(kElem);
        errors += e.code;
        errors.push_back(kSub);
        errors += e.message;
        errors.push_back(kSub);
        errors += std::to_string(static_cast<int>(e.category));
        errors.push_back(kSub);
        errors += e.symbol;
        errors.push_back(kSub);
        errors += std::to_string(e.loc.line);
        errors.push_back(kSub);
        errors += std::to_string(e.loc.column);
    }
    std::string out = r.ok ? "1" : "0";
    out.push_back(kField);
    out += fmtDouble(r.synth_minutes);
    out.push_back(kField);
    out += std::to_string(r.loc);
    out.push_back(kField);
    out += joinLongs({r.resources.luts, r.resources.ffs,
                      r.resources.dsps, r.resources.bram_bits,
                      r.resources.memory_banks});
    out.push_back(kField);
    out += errors;
    return out;
}

std::optional<hls::CompileResult>
decodeCompile(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    if (fields.size() != 5 || (fields[0] != "0" && fields[0] != "1"))
        return std::nullopt;
    hls::CompileResult r;
    r.ok = fields[0] == "1";
    long long loc = 0;
    std::vector<long long> res;
    if (!parseDouble(fields[1], &r.synth_minutes) ||
        !parseLong(fields[2], &loc) || !splitLongs(fields[3], &res) ||
        res.size() != 5) {
        return std::nullopt;
    }
    r.loc = static_cast<int>(loc);
    r.resources.luts = res[0];
    r.resources.ffs = res[1];
    r.resources.dsps = res[2];
    r.resources.bram_bits = res[3];
    r.resources.memory_banks = res[4];
    if (!fields[4].empty()) {
        for (const std::string &enc : split(fields[4], kElem)) {
            std::vector<std::string> sub = split(enc, kSub);
            if (sub.size() != 6)
                return std::nullopt;
            long long category = 0, line = 0, column = 0;
            if (!parseLong(sub[2], &category) ||
                !parseLong(sub[4], &line) ||
                !parseLong(sub[5], &column) || category < 0 ||
                category >= hls::kNumErrorCategories) {
                return std::nullopt;
            }
            hls::HlsError e;
            e.code = sub[0];
            e.message = sub[1];
            e.category = static_cast<hls::ErrorCategory>(category);
            e.symbol = sub[3];
            e.loc.line = static_cast<int>(line);
            e.loc.column = static_cast<int>(column);
            r.errors.push_back(std::move(e));
        }
    }
    return r;
}

std::string
encodeDiffTest(const DiffTestResult &r)
{
    std::vector<long long> failing(r.failing.begin(), r.failing.end());
    std::string out = std::to_string(r.total);
    out.push_back(kField);
    out += std::to_string(r.identical);
    out.push_back(kField);
    out += joinLongs(failing);
    out.push_back(kField);
    out += fmtDouble(r.cpu_millis);
    out.push_back(kField);
    out += fmtDouble(r.fpga_millis);
    out.push_back(kField);
    out += fmtDouble(r.sim_minutes);
    return out;
}

std::optional<DiffTestResult>
decodeDiffTest(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    if (fields.size() != 6)
        return std::nullopt;
    DiffTestResult r;
    long long total = 0, identical = 0;
    std::vector<long long> failing;
    if (!parseLong(fields[0], &total) ||
        !parseLong(fields[1], &identical) ||
        !splitLongs(fields[2], &failing) ||
        !parseDouble(fields[3], &r.cpu_millis) ||
        !parseDouble(fields[4], &r.fpga_millis) ||
        !parseDouble(fields[5], &r.sim_minutes)) {
        return std::nullopt;
    }
    r.total = static_cast<int>(total);
    r.identical = static_cast<int>(identical);
    for (long long f : failing)
        r.failing.push_back(static_cast<int>(f));
    return r;
}

std::string
encodeStyle(const style::StyleReport &r)
{
    std::string issues;
    for (size_t i = 0; i < r.issues.size(); ++i) {
        const style::StyleIssue &issue = r.issues[i];
        if (i)
            issues.push_back(kElem);
        issues += issue.message;
        issues.push_back(kSub);
        issues += std::to_string(issue.loc.line);
        issues.push_back(kSub);
        issues += std::to_string(issue.loc.column);
    }
    std::string out = fmtDouble(r.check_minutes);
    out.push_back(kField);
    out += issues;
    return out;
}

std::optional<style::StyleReport>
decodeStyle(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    if (fields.size() != 2)
        return std::nullopt;
    style::StyleReport r;
    r.issues.clear();
    if (!parseDouble(fields[0], &r.check_minutes))
        return std::nullopt;
    if (!fields[1].empty()) {
        for (const std::string &enc : split(fields[1], kElem)) {
            std::vector<std::string> sub = split(enc, kSub);
            if (sub.size() != 3)
                return std::nullopt;
            long long line = 0, column = 0;
            if (!parseLong(sub[1], &line) ||
                !parseLong(sub[2], &column)) {
                return std::nullopt;
            }
            style::StyleIssue issue;
            issue.message = sub[0];
            issue.loc.line = static_cast<int>(line);
            issue.loc.column = static_cast<int>(column);
            r.issues.push_back(std::move(issue));
        }
    }
    return r;
}

/** Separator of the parts of one kernel argument or coverage bucket. */
constexpr char kPart = ':';

/** `items` mapped through `fn` and joined by `sep`. */
template <typename Range, typename Fn>
std::string
joinMapped(const Range &items, char sep, Fn fn)
{
    std::string out;
    bool first = true;
    for (const auto &item : items) {
        if (!first)
            out.push_back(sep);
        first = false;
        out += fn(item);
    }
    return out;
}

/** Feed each `sep`-separated item of `list` ("" = none) to `fn`;
 * false as soon as one does not decode. */
template <typename Fn>
bool
decodeEach(const std::string &list, char sep, Fn fn)
{
    if (list.empty())
        return true;
    for (const std::string &item : split(list, sep)) {
        if (!fn(item))
            return false;
    }
    return true;
}

/** A double as its 16-hex-digit bit pattern: exact for every value,
 * NaN payloads and signed zeros included. */
std::string
hexDouble(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

bool
parseHexDouble(const std::string &s, double *out)
{
    char *end = nullptr;
    uint64_t bits = std::strtoull(s.c_str(), &end, 16);
    if (s.size() != 16 || *end != '\0')
        return false;
    std::memcpy(out, &bits, sizeof bits);
    return true;
}

bool
parseFlag(const std::string &s, bool *out)
{
    *out = s == "1";
    return s == "0" || s == "1";
}

/** Every field of a KernelArg, whatever its kind, so equality and
 * printing survive the round trip. */
std::string
encodeArg(const interp::KernelArg &a)
{
    std::string out = std::to_string(static_cast<int>(a.kind));
    out.push_back(kPart);
    out += std::to_string(a.i);
    out.push_back(kPart);
    out += hexDouble(a.f);
    out.push_back(kPart);
    out += joinMapped(a.ints, ',', [](long v) { return std::to_string(v); });
    out.push_back(kPart);
    out += joinMapped(a.floats, ',', hexDouble);
    return out;
}

std::optional<interp::KernelArg>
decodeArg(const std::string &enc)
{
    std::vector<std::string> parts = split(enc, kPart);
    interp::KernelArg a;
    long long kind = 0, i = 0;
    std::vector<long long> ints;
    bool ok = parts.size() == 5 && parseLong(parts[0], &kind) &&
              kind >= 0 &&
              kind <= static_cast<int>(interp::KernelArg::Kind::FloatArray) &&
              parseLong(parts[1], &i) && parseHexDouble(parts[2], &a.f) &&
              splitLongs(parts[3], &ints) &&
              decodeEach(parts[4], ',', [&](const std::string &item) {
                  a.floats.push_back(0);
                  return parseHexDouble(item, &a.floats.back());
              });
    if (!ok)
        return std::nullopt;
    a.kind = static_cast<interp::KernelArg::Kind>(kind);
    a.i = static_cast<long>(i);
    a.ints.assign(ints.begin(), ints.end());
    return a;
}

/** Case count, then each case's arguments; the count tells a suite of
 * one argument-less case from an empty suite. */
std::string
encodeSuite(const fuzz::TestSuite &suite)
{
    std::string out = std::to_string(suite.size());
    for (const fuzz::TestCase &test : suite.cases()) {
        out.push_back(kElem);
        out += joinMapped(test.args, kSub, encodeArg);
    }
    return out;
}

/** Rebuilt through TestSuite::add, so case ids come out as the
 * campaign numbered them. */
std::optional<fuzz::TestSuite>
decodeSuite(const std::string &field)
{
    std::vector<std::string> cases = split(field, kElem);
    long long n = 0;
    if (cases.empty() || !parseLong(cases[0], &n) ||
        n != static_cast<long long>(cases.size()) - 1) {
        return std::nullopt;
    }
    fuzz::TestSuite suite;
    for (size_t c = 1; c < cases.size(); ++c) {
        std::vector<interp::KernelArg> args;
        bool ok = decodeEach(cases[c], kSub, [&](const std::string &enc) {
            std::optional<interp::KernelArg> arg = decodeArg(enc);
            if (arg)
                args.push_back(std::move(*arg));
            return arg.has_value();
        });
        // A stored suite has no duplicate cases.
        if (!ok || !suite.add(std::move(args)))
            return std::nullopt;
    }
    return suite;
}

std::string
encodeCoverage(const interp::CoverageMap &coverage)
{
    interp::CoverageMap::State st = coverage.state();
    auto number = [](auto v) { return std::to_string(v); };
    std::string out = std::to_string(st.num_branches);
    out.push_back(kSub);
    out += joinMapped(st.counts, ',', number);
    out.push_back(kSub);
    out += joinMapped(st.merged_hits, ',', number);
    out.push_back(kSub);
    out += joinMapped(st.buckets, ',', [](const auto &b) {
        const auto &[branch, taken, bucket] = b;
        return std::to_string(branch) + kPart + (taken ? "1" : "0") +
               kPart + std::to_string(bucket);
    });
    return out;
}

std::optional<interp::CoverageMap>
decodeCoverage(const std::string &field)
{
    std::vector<std::string> parts = split(field, kSub);
    interp::CoverageMap::State st;
    long long branches = 0;
    std::vector<long long> counts, hits;
    bool ok =
        parts.size() == 4 && parseLong(parts[0], &branches) &&
        splitLongs(parts[1], &counts) && splitLongs(parts[2], &hits) &&
        decodeEach(parts[3], ',', [&](const std::string &item) {
            std::vector<std::string> b = split(item, kPart);
            long long branch = 0, bucket = 0;
            bool taken = false;
            return b.size() == 3 && parseLong(b[0], &branch) &&
                   parseFlag(b[1], &taken) && parseLong(b[2], &bucket) &&
                   st.buckets
                       .insert({static_cast<int>(branch), taken,
                                static_cast<int>(bucket)})
                       .second;
        });
    for (long long v : counts)
        ok = ok && v >= 0;
    for (long long v : hits)
        ok = ok && v >= 0 && st.merged_hits.insert(size_t(v)).second;
    if (!ok)
        return std::nullopt;
    st.counts.assign(counts.begin(), counts.end());
    st.num_branches = static_cast<int>(branches);
    return interp::CoverageMap::fromState(std::move(st));
}

std::string
encodeProfile(const interp::ValueProfile &profile)
{
    return joinMapped(profile.ranges(), kElem, [](const auto &entry) {
        const auto &[key, r] = entry;
        return join({key, r.saw_int ? "1" : "0", std::to_string(r.min_int),
                     std::to_string(r.max_int), r.saw_float ? "1" : "0",
                     hexDouble(r.max_abs_float)},
                    std::string(1, kSub));
    });
}

/** Rebuilt through note()/noteFloat(): two int notes restore
 * [min, max] and one float note the largest magnitude. */
std::optional<interp::ValueProfile>
decodeProfile(const std::string &field)
{
    interp::ValueProfile profile;
    bool ok = decodeEach(field, kElem, [&](const std::string &enc) {
        std::vector<std::string> sub = split(enc, kSub);
        long long lo = 0, hi = 0;
        double max_abs = 0;
        bool saw_int = false, saw_float = false;
        if (sub.size() != 6 || !parseFlag(sub[1], &saw_int) ||
            !parseLong(sub[2], &lo) || !parseLong(sub[3], &hi) ||
            !parseFlag(sub[4], &saw_float) ||
            !parseHexDouble(sub[5], &max_abs) || !(saw_int || saw_float))
            return false;
        if (saw_int) {
            profile.note(sub[0], static_cast<long>(lo));
            profile.note(sub[0], static_cast<long>(hi));
        }
        if (saw_float)
            profile.noteFloat(sub[0], max_abs);
        return true;
    });
    if (!ok)
        return std::nullopt;
    return profile;
}

std::string
encodeStage(const StageRecord &r)
{
    std::string counters =
        joinMapped(r.fuzz_counters, kElem, [](const auto &entry) {
            return entry.first + kSub + std::to_string(entry.second);
        });
    return join({std::to_string(r.testgen.executions),
                 fmtDouble(r.testgen.sim_minutes),
                 fmtDouble(r.testgen.last_progress_minutes),
                 encodeCoverage(r.testgen.coverage),
                 encodeSuite(r.testgen.suite), encodeProfile(r.profile),
                 counters},
                std::string(1, kField));
}

std::optional<StageRecord>
decodeStage(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    StageRecord r;
    long long executions = 0;
    if (fields.size() != 7 || !parseLong(fields[0], &executions) ||
        !parseDouble(fields[1], &r.testgen.sim_minutes) ||
        !parseDouble(fields[2], &r.testgen.last_progress_minutes)) {
        return std::nullopt;
    }
    r.testgen.executions = static_cast<int>(executions);
    std::optional<interp::CoverageMap> coverage =
        decodeCoverage(fields[3]);
    std::optional<fuzz::TestSuite> suite = decodeSuite(fields[4]);
    std::optional<interp::ValueProfile> profile =
        decodeProfile(fields[5]);
    bool ok = coverage && suite && profile &&
              decodeEach(fields[6], kElem, [&](const std::string &enc) {
                  std::vector<std::string> sub = split(enc, kSub);
                  long long value = 0;
                  if (sub.size() != 2 || !parseLong(sub[1], &value))
                      return false;
                  r.fuzz_counters[sub[0]] = value;
                  return true;
              });
    if (!ok)
        return std::nullopt;
    r.testgen.coverage = std::move(*coverage);
    r.testgen.suite = std::move(*suite);
    r.profile = std::move(*profile);
    return r;
}

std::string
kindKey(const char *kind, const std::string &key)
{
    std::string out = kind;
    out.push_back(kField);
    out += key;
    return out;
}

} // namespace

std::string
defaultCacheDir()
{
    if (const char *env = std::getenv("HETEROGEN_CACHE_DIR"))
        return env;
    return "";
}

std::string
defaultToolchainVersion()
{
    return std::string("hgc1;sim=") + hls::kSimulatorVersion +
           ";style=" + style::kStyleCheckerVersion;
}

std::string
stageRecordKey(const std::string &printed_source, const std::string &kernel,
               const fuzz::FuzzOptions &options)
{
    std::string host_args;
    for (const interp::KernelArg &arg : options.host_args) {
        host_args += encodeArg(arg);
        host_args.push_back(kSub);
    }
    std::string key = printed_source;
    for (const std::string &part :
         {kernel, options.host_function, host_args,
          std::to_string(options.rng_seed),
          std::to_string(options.mutations_per_input),
          std::to_string(options.max_executions),
          fmtDouble(options.budget_minutes),
          fmtDouble(options.plateau_minutes),
          std::to_string(options.min_suite_size),
          std::to_string(options.max_steps_per_run)}) {
        key.push_back(kField);
        key += part;
    }
    return key;
}

std::string
cacheDirError(const std::string &dir)
{
    if (trim(dir).empty())
        return "cache: cache_dir must name a directory "
               "(got a blank string)";
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!fs::is_directory(dir, ec))
        return "cache: cache_dir '" + dir +
               "' cannot be created as a directory";
    static std::atomic<uint64_t> probe_seq{0};
    fs::path probe =
        fs::path(dir) / (".probe-" + std::to_string(::getpid()) + "-" +
                         std::to_string(probe_seq.fetch_add(1)));
    {
        std::ofstream out(probe, std::ios::trunc);
        out << "probe";
        out.flush();
        if (!out.good()) {
            fs::remove(probe, ec);
            return "cache: cache_dir '" + dir + "' is not writable";
        }
    }
    fs::remove(probe, ec);
    return "";
}

VerdictStore::VerdictStore(VerdictStoreOptions options)
    : version_(options.version.empty() ? defaultToolchainVersion()
                                       : options.version),
      cache_([&] {
          DiskCacheOptions dc;
          dc.dir = options.dir;
          dc.version = options.version.empty()
                           ? defaultToolchainVersion()
                           : options.version;
          dc.max_entries_per_shard = options.max_entries_per_shard;
          dc.pre_publish_hook = options.pre_publish_hook;
          return dc;
      }())
{
}

std::optional<std::string>
VerdictStore::findRaw(RunContext *ctx, const std::string &key)
{
    std::optional<std::string> raw = cache_.find(key);
    if (!raw)
        countMiss(ctx);
    return raw;
}

void
VerdictStore::countMiss(RunContext *ctx)
{
    if (ctx)
        ctx->count("repair.diskcache.misses");
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.misses += 1;
}

void
VerdictStore::storeRaw(RunContext *ctx, const std::string &key,
                       const std::string &value)
{
    if (!cache_.enabled())
        return;
    // Counted against the load-time snapshot — not the shared write
    // buffer — so a job's write count is a pure function of
    // (snapshot, job) and stays bit-identical at any thread count.
    if (cache_.snapshotHas(key))
        return;
    if (ctx)
        ctx->count("repair.diskcache.writes");
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.writes += 1;
    }
    cache_.put(key, value);
}

void
VerdictStore::countSaved(double minutes)
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.hits += 1;
    stats_.minutes_saved += minutes;
}

void
VerdictStore::countDecodeFailure(RunContext *ctx)
{
    if (ctx)
        ctx->count("repair.diskcache.invalid");
    countMiss(ctx);
}

std::optional<hls::CompileResult>
VerdictStore::findCompile(RunContext *ctx,
                          const std::string &fingerprint)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("compile", fingerprint));
    if (!raw)
        return std::nullopt;
    std::optional<hls::CompileResult> decoded = decodeCompile(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->synth_minutes);
    return decoded;
}

void
VerdictStore::storeCompile(RunContext *ctx,
                           const std::string &fingerprint,
                           const hls::CompileResult &result)
{
    if (result.tool_failure)
        return; // never persisted — see the file comment
    storeRaw(ctx, kindKey("compile", fingerprint),
             encodeCompile(result));
}

std::optional<DiffTestResult>
VerdictStore::findDiffTest(RunContext *ctx, const std::string &key)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("difftest", key));
    if (!raw)
        return std::nullopt;
    std::optional<DiffTestResult> decoded = decodeDiffTest(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->sim_minutes);
    return decoded;
}

void
VerdictStore::storeDiffTest(RunContext *ctx, const std::string &key,
                            const DiffTestResult &result)
{
    if (result.tool_failure)
        return; // never persisted — see the file comment
    storeRaw(ctx, kindKey("difftest", key), encodeDiffTest(result));
}

std::optional<style::StyleReport>
VerdictStore::findStyle(RunContext *ctx,
                        const std::string &printed_program)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("style", printed_program));
    if (!raw)
        return std::nullopt;
    std::optional<style::StyleReport> decoded = decodeStyle(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->check_minutes);
    return decoded;
}

void
VerdictStore::storeStyle(RunContext *ctx,
                         const std::string &printed_program,
                         const style::StyleReport &report)
{
    storeRaw(ctx, kindKey("style", printed_program),
             encodeStyle(report));
}

std::optional<StageRecord>
VerdictStore::findStage(RunContext *ctx, const std::string &key,
                        double max_minutes)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("stage", key));
    if (!raw)
        return std::nullopt;
    std::optional<StageRecord> decoded = decodeStage(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (!(decoded->testgen.sim_minutes < max_minutes)) {
        countMiss(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->testgen.sim_minutes);
    return decoded;
}

void
VerdictStore::storeStage(RunContext *ctx, const std::string &key,
                         const StageRecord &record)
{
    storeRaw(ctx, kindKey("stage", key), encodeStage(record));
}

VerdictStats
VerdictStore::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

} // namespace heterogen::repair

#include "repair/store.h"

#include <atomic>
#include <cerrno>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include <unistd.h>

#include "cir/printer.h"
#include "support/run_context.h"
#include "support/strings.h"

namespace heterogen::repair {

namespace fs = std::filesystem;

namespace {

/** Field / list-element / sub-field separators inside keys and payloads.
 * No diagnostic or printed program contains these control characters. */
constexpr char kField = '\x1f';
constexpr char kElem = '\x1e';
constexpr char kSub = '\x1d';
/** Separator of the parts of one kernel argument or coverage bucket. */
constexpr char kPart = ':';

// --- the codec ------------------------------------------------------------
//
// Every key and payload the store reads or writes is built from one set
// of forms: integers in decimal, flags as 0/1, doubles as their
// 16-hex-digit bit pattern (exact for every value, NaN payloads and
// signed zeros included), and lists joined by one separator.

std::string
text(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

template <std::integral T>
std::string
text(T v)
{
    return std::to_string(v);
}

/** text() of any scalar, as a value joinMapped can take. */
constexpr auto kText = [](auto v) { return text(v); };

bool
parse(const std::string &s, double *out)
{
    if (s.size() != 16 ||
        s.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    uint64_t bits = std::strtoull(s.c_str(), nullptr, 16);
    std::memcpy(out, &bits, sizeof bits);
    return true;
}

bool
parse(const std::string &s, bool *out)
{
    *out = s == "1";
    return s == "0" || s == "1";
}

/** A decimal integer that fits T. */
template <std::integral T>
bool
parse(const std::string &s, T *out)
{
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
        !std::in_range<T>(v))
        return false;
    *out = static_cast<T>(v);
    return true;
}

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

/** decodeEach item parser: parse one scalar onto the end of `out`. */
template <typename T>
auto
appendTo(std::vector<T> *out)
{
    return [out](const std::string &item) {
        return parse(item, &out->emplace_back());
    };
}

/** One key or record: `parts` joined by `sep`. */
std::string
fields(const std::vector<std::string> &parts, char sep = kField)
{
    return join(parts, std::string(1, sep));
}

// --- payloads -------------------------------------------------------------

std::string
encode(const hls::CompileResult &r)
{
    const hls::ResourceEstimate &res = r.resources;
    return fields(
        {text(r.ok), text(r.synth_minutes), text(r.loc),
         joinMapped(std::vector<long>{res.luts, res.ffs, res.dsps,
                                      res.bram_bits, res.memory_banks},
                    ',', kText),
         joinMapped(r.errors, kElem, [](const hls::HlsError &e) {
             return fields({e.code, e.message,
                            text(static_cast<int>(e.category)), e.symbol,
                            text(e.loc.line), text(e.loc.column)},
                           kSub);
         })});
}

bool
decode(const std::string &payload, hls::CompileResult *r)
{
    std::vector<std::string> f = split(payload, kField);
    std::vector<long> res;
    bool ok =
        f.size() == 5 && parse(f[0], &r->ok) &&
        parse(f[1], &r->synth_minutes) && parse(f[2], &r->loc) &&
        decodeEach(f[3], ',', appendTo(&res)) && res.size() == 5 &&
        decodeEach(f[4], kElem, [&](const std::string &enc) {
            std::vector<std::string> sub = split(enc, kSub);
            hls::HlsError &e = r->errors.emplace_back();
            int category = 0;
            if (sub.size() != 6 || !parse(sub[2], &category) ||
                category < 0 || category >= hls::kNumErrorCategories ||
                !parse(sub[4], &e.loc.line) ||
                !parse(sub[5], &e.loc.column))
                return false;
            e.code = sub[0];
            e.message = sub[1];
            e.category = static_cast<hls::ErrorCategory>(category);
            e.symbol = sub[3];
            return true;
        });
    if (!ok)
        return false;
    r->resources.luts = res[0];
    r->resources.ffs = res[1];
    r->resources.dsps = res[2];
    r->resources.bram_bits = res[3];
    r->resources.memory_banks = res[4];
    return true;
}

std::string
encode(const DiffTestResult &r)
{
    return fields({text(r.total), text(r.identical),
                   joinMapped(r.failing, ',', kText), text(r.cpu_millis),
                   text(r.fpga_millis), text(r.sim_minutes)});
}

bool
decode(const std::string &payload, DiffTestResult *r)
{
    std::vector<std::string> f = split(payload, kField);
    return f.size() == 6 && parse(f[0], &r->total) &&
           parse(f[1], &r->identical) &&
           decodeEach(f[2], ',', appendTo(&r->failing)) &&
           parse(f[3], &r->cpu_millis) && parse(f[4], &r->fpga_millis) &&
           parse(f[5], &r->sim_minutes);
}

/** Every field of a KernelArg, whatever its kind, so equality and
 * printing survive the round trip. */
std::string
encodeArg(const interp::KernelArg &a)
{
    return fields({text(static_cast<int>(a.kind)), text(a.i), text(a.f),
                   joinMapped(a.ints, ',', kText),
                   joinMapped(a.floats, ',', kText)},
                  kPart);
}

bool
decodeArg(const std::string &enc, interp::KernelArg *a)
{
    std::vector<std::string> parts = split(enc, kPart);
    int kind = 0;
    bool ok = parts.size() == 5 && parse(parts[0], &kind) && kind >= 0 &&
              kind <= static_cast<int>(interp::KernelArg::Kind::FloatArray) &&
              parse(parts[1], &a->i) && parse(parts[2], &a->f) &&
              decodeEach(parts[3], ',', appendTo(&a->ints)) &&
              decodeEach(parts[4], ',', appendTo(&a->floats));
    a->kind = static_cast<interp::KernelArg::Kind>(kind);
    return ok;
}

/** Case count, then each case's arguments; the count tells a suite of
 * one argument-less case from an empty suite. */
std::string
encodeSuite(const fuzz::TestSuite &suite)
{
    std::string out = text(suite.size());
    for (const fuzz::TestCase &test : suite.cases()) {
        out.push_back(kElem);
        out += joinMapped(test.args, kSub, encodeArg);
    }
    return out;
}

/** Rebuilt through TestSuite::add, so case ids come out as the
 * campaign numbered them. */
bool
decodeSuite(const std::string &field, fuzz::TestSuite *suite)
{
    std::vector<std::string> cases = split(field, kElem);
    size_t n = 0;
    if (cases.empty() || !parse(cases[0], &n) || n != cases.size() - 1)
        return false;
    for (size_t c = 1; c < cases.size(); ++c) {
        std::vector<interp::KernelArg> args;
        bool ok = decodeEach(cases[c], kSub, [&](const std::string &enc) {
            return decodeArg(enc, &args.emplace_back());
        });
        // A stored suite has no duplicate cases.
        if (!ok || !suite->add(std::move(args)))
            return false;
    }
    return true;
}

std::string
encodeCoverage(const interp::CoverageMap &coverage)
{
    interp::CoverageMap::State st = coverage.state();
    return fields(
        {text(st.num_branches), joinMapped(st.counts, ',', kText),
         joinMapped(st.merged_hits, ',', kText),
         joinMapped(st.buckets, ',',
                    [](const auto &b) {
                        const auto &[branch, taken, bucket] = b;
                        return fields(
                            {text(branch), text(taken), text(bucket)},
                            kPart);
                    })},
        kSub);
}

bool
decodeCoverage(const std::string &field, interp::CoverageMap *coverage)
{
    std::vector<std::string> parts = split(field, kSub);
    interp::CoverageMap::State st;
    std::vector<size_t> hits;
    bool ok =
        parts.size() == 4 && parse(parts[0], &st.num_branches) &&
        decodeEach(parts[1], ',', appendTo(&st.counts)) &&
        decodeEach(parts[2], ',', appendTo(&hits)) &&
        decodeEach(parts[3], ',', [&](const std::string &item) {
            std::vector<std::string> b = split(item, kPart);
            int branch = 0, bucket = 0;
            bool taken = false;
            return b.size() == 3 && parse(b[0], &branch) &&
                   parse(b[1], &taken) && parse(b[2], &bucket) &&
                   st.buckets.insert({branch, taken, bucket}).second;
        });
    for (size_t h : hits)
        ok = ok && st.merged_hits.insert(h).second;
    if (ok)
        *coverage = interp::CoverageMap::fromState(std::move(st));
    return ok;
}

std::string
encodeProfile(const interp::ValueProfile &profile)
{
    return joinMapped(profile.ranges(), kElem, [](const auto &entry) {
        const auto &[key, r] = entry;
        return fields({key, text(r.saw_int), text(r.min_int),
                       text(r.max_int), text(r.saw_float),
                       text(r.max_abs_float)},
                      kSub);
    });
}

/** Rebuilt through note()/noteFloat(): two int notes restore
 * [min, max] and one float note the largest magnitude. */
bool
decodeProfile(const std::string &field, interp::ValueProfile *profile)
{
    return decodeEach(field, kElem, [&](const std::string &enc) {
        std::vector<std::string> sub = split(enc, kSub);
        long lo = 0, hi = 0;
        double max_abs = 0;
        bool saw_int = false, saw_float = false;
        if (sub.size() != 6 || !parse(sub[1], &saw_int) ||
            !parse(sub[2], &lo) || !parse(sub[3], &hi) ||
            !parse(sub[4], &saw_float) || !parse(sub[5], &max_abs) ||
            !(saw_int || saw_float))
            return false;
        if (saw_int) {
            profile->note(sub[0], lo);
            profile->note(sub[0], hi);
        }
        if (saw_float)
            profile->noteFloat(sub[0], max_abs);
        return true;
    });
}

std::string
encode(const StageRecord &r)
{
    return fields(
        {text(r.testgen.executions), text(r.testgen.sim_minutes),
         text(r.testgen.last_progress_minutes),
         encodeCoverage(r.testgen.coverage), encodeSuite(r.testgen.suite),
         encodeProfile(r.profile),
         joinMapped(r.fuzz_counters, kElem, [](const auto &entry) {
             return fields({entry.first, text(entry.second)}, kSub);
         })});
}

bool
decode(const std::string &payload, StageRecord *r)
{
    std::vector<std::string> f = split(payload, kField);
    return f.size() == 7 && parse(f[0], &r->testgen.executions) &&
           parse(f[1], &r->testgen.sim_minutes) &&
           parse(f[2], &r->testgen.last_progress_minutes) &&
           decodeCoverage(f[3], &r->testgen.coverage) &&
           decodeSuite(f[4], &r->testgen.suite) &&
           decodeProfile(f[5], &r->profile) &&
           decodeEach(f[6], kElem, [&](const std::string &enc) {
               std::vector<std::string> sub = split(enc, kSub);
               return sub.size() == 2 &&
                      parse(sub[1], &r->fuzz_counters[sub[0]]);
           });
}

/** Simulated minutes a hit replays, checked against lookup's cap. */
double savedMinutes(const hls::CompileResult &r) { return r.synth_minutes; }
double savedMinutes(const DiffTestResult &r) { return r.sim_minutes; }
double savedMinutes(const StageRecord &r) { return r.testgen.sim_minutes; }

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
    return std::string("hgc4;sim=") + hls::kSimulatorVersion;
}

std::string
candidateFingerprint(const std::string &printed,
                     const hls::HlsConfig &config)
{
    return fields({printed, config.top_function, text(config.clock_mhz),
                   config.device, text(config.stream_depth)});
}

std::string
difftestCampaignKey(const CpuOracle &oracle, int sample)
{
    return fields({cir::print(oracle.original()), oracle.kernel(),
                   encodeSuite(oracle.suite()), text(sample)});
}

std::string
stageRecordKey(const std::string &printed_source, const std::string &kernel,
               const fuzz::FuzzOptions &options)
{
    return fields({printed_source, kernel, options.host_function,
                   text(options.rng_seed), text(options.mutations_per_input),
                   text(options.max_executions), text(options.budget_minutes),
                   text(options.plateau_minutes),
                   text(options.min_suite_size),
                   text(options.max_steps_per_run)});
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
          dc.version = version_;
          return dc;
      }())
{
}

template <typename T>
std::optional<T>
VerdictStore::lookup(RunContext &ctx, const char *kind,
                     const std::string &key, double max_minutes)
{
    std::optional<std::string> raw = cache_.find(fields({kind, key}));
    T value;
    bool invalid = raw && !decode(*raw, &value);
    bool hit = raw && !invalid && savedMinutes(value) < max_minutes;
    if (invalid)
        ctx.count("repair.diskcache.invalid");
    ctx.count(hit ? "repair.diskcache.hits" : "repair.diskcache.misses");
    if (!hit)
        return std::nullopt;
    return value;
}

void
VerdictStore::put(RunContext &ctx, const char *kind, const std::string &key,
                  const std::string &payload)
{
    if (!cache_.enabled())
        return;
    std::string raw_key = fields({kind, key});
    // Counted against the load-time snapshot — not the shared write
    // buffer — so a job's write count is a pure function of
    // (snapshot, job) and stays bit-identical at any thread count.
    if (cache_.snapshotHas(raw_key))
        return;
    ctx.count("repair.diskcache.writes");
    cache_.put(raw_key, payload);
}

std::optional<hls::CompileResult>
VerdictStore::findCompile(RunContext &ctx, const std::string &fingerprint)
{
    return lookup<hls::CompileResult>(ctx, "compile", fingerprint);
}

void
VerdictStore::storeCompile(RunContext &ctx, const std::string &fingerprint,
                           const hls::CompileResult &result)
{
    if (!result.tool_failure) // never persisted — see the file comment
        put(ctx, "compile", fingerprint, encode(result));
}

std::optional<DiffTestResult>
VerdictStore::findDiffTest(RunContext &ctx, const std::string &fingerprint,
                           const std::string &campaign)
{
    return lookup<DiffTestResult>(ctx, "difftest",
                                  fields({fingerprint, campaign}));
}

void
VerdictStore::storeDiffTest(RunContext &ctx, const std::string &fingerprint,
                            const std::string &campaign,
                            const DiffTestResult &result)
{
    if (!result.tool_failure) // never persisted — see the file comment
        put(ctx, "difftest", fields({fingerprint, campaign}),
            encode(result));
}

std::optional<StageRecord>
VerdictStore::findStage(RunContext &ctx, const std::string &key,
                        double max_minutes)
{
    return lookup<StageRecord>(ctx, "stage", key, max_minutes);
}

void
VerdictStore::storeStage(RunContext &ctx, const std::string &key,
                         const StageRecord &record)
{
    put(ctx, "stage", key, encode(record));
}

} // namespace heterogen::repair

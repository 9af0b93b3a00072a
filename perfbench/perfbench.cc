/**
 * @file
 * Host-time benchmark of the conversion pipeline.
 *
 * Runs one workload against the library's public API, checks every
 * output, and prints the metrics BENCHMARK.json names. Usage (normally
 * through perfbench/run.py, which builds this binary first):
 *
 *   perfbench --workload <subjects-cold|forum-service>
 *             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
 *
 * Each layer is measured from outside: host time between the stage
 * hooks of HeteroGenOptions around the calls into it, and the counters
 * every run already exports in HeteroGenReport::trace_json. The timed
 * passes of --trace 0 install no hooks; --trace 1 adds traced passes and
 * prints the per-layer metrics instead.
 *
 * Timings are per-job minima over passes: the host's speed drifts by
 * up to 2.5x within seconds and slow phases only ever add time, so the
 * fastest of several passes is the steadiest estimate of a job's cost.
 *
 * Exit codes: 0 = every output check passed; 1 = an output check
 * failed (the result line reports correct=false); 2 = refused to run
 * (bad arguments, a HETEROGEN_* variable set, unoptimized build).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "cir/parser.h"
#include "cir/sema.h"
#include "hls/compiler.h"
#include "hls/errors.h"
#include "repair/difftest.h"
#include "service/service.h"
#include "subjects/forum_corpus.h"
#include "support/diagnostics.h"
#include "support/trace.h"
#include "support/worker_pool.h"

extern char **environ;

namespace heterogen::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/**
 * Threads of the one leaf-parallelism pool. One runs every leaf inline:
 * under a noisy neighbour a second busy core slowed a pass by 56% where
 * a single one slowed by 30%.
 */
constexpr int kEvalThreads = 1;
/** Service slots (and host threads) on forum-service. */
constexpr int kServiceSlots = 2;
/** Fewest whole cycles of passes a run makes, whatever --seconds says. */
constexpr int kMinCycles = 2;
/**
 * Set-up repetitions before the first pass, and again after every pass.
 * setup_s is the fastest of them all: a set-up takes milliseconds, the
 * host's slow phases last tens of seconds, and repetitions spread over
 * the whole run reach its fast phases as the per-job minima do.
 */
constexpr int kSetupRepsFirst = 20;
constexpr int kSetupRepsPerPass = 10;
/** Forum corpus size the waves are drawn from. */
constexpr int kForumDraw = 100;
/** Forum waves per pass; each is drained before the next arrives. */
constexpr int kForumWaves = 2;
/**
 * Fuzz seed of every forum job, in every wave: a source a later wave
 * repeats is then the same job, and can be served from the disk cache.
 * bench/service_throughput seeds its second cycle with it. Under its
 * first cycle's seed (1000) a runaway-loop post takes ~3.5x longer,
 * too long for a run to repeat its passes.
 */
constexpr uint64_t kForumFuzzSeed = 1001;

/** The pipeline stages in hook order; the last one runs to the end. */
const char *const kStages[] = {"fuzz", "profile", "init_hls", "repair"};
constexpr int kNumStages = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of deterministic values. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0 : std::exp(log_sum / double(v.size()));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
fmt17(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

/** JSON string literal (job ids and CPU names need no more). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Digest of everything a report says about the conversion: the HLS
 * output, the simulated clock at %.17g, and the search trace. Two runs
 * of one job must agree on it bit for bit, whatever the host did.
 */
std::string
reportDigest(const core::HeteroGenReport &r)
{
    std::string s = r.hls_source;
    s += "|total=" + fmt17(r.total_minutes);
    s += "|fuzz=" + std::to_string(r.testgen.executions) + "," +
         std::to_string(r.testgen.suite.size()) + "," +
         fmt17(r.testgen.sim_minutes);
    const repair::SearchResult &sr = r.search;
    s += "|search=" + fmt17(sr.sim_minutes) + "," +
         fmt17(sr.minutes_to_success) + "," + fmt17(sr.pass_ratio) + "," +
         fmt17(sr.orig_cpu_ms) + "," + fmt17(sr.fpga_ms) + "," +
         std::to_string(sr.iterations) + "," +
         std::to_string(sr.full_hls_invocations) + "," +
         std::to_string(sr.style_checks) + "," +
         std::to_string(sr.style_rejections);
    for (const std::string &edit : sr.applied_order)
        s += "|edit=" + edit;
    for (const repair::SearchStep &step : sr.trace)
        s += "|step=" + std::to_string(step.iteration) + ":" +
             step.action + "@" + fmt17(step.minutes_after);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a(s)));
    return buf;
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Arguments and hermetic-run guards

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 30;
    bool trace = false;
    std::string scratch;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            refuse("argument " + a + " needs a value");
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            args.trace = v == "1";
            if (v != "0" && v != "1")
                refuse("--trace takes 0 or 1");
        } else if (a == "--scratch") {
            args.scratch = v;
        } else {
            refuse("unknown argument " + a);
        }
        if (end && *end)
            refuse("bad number for " + a + ": " + v);
    }
    if (args.workload != "subjects-cold" && args.workload != "forum-service")
        refuse("--workload must be subjects-cold or forum-service");
    if (!(args.seconds > 0))
        refuse("--seconds must be positive");
    if (args.scratch.empty())
        refuse("--scratch <dir> is required");
    return args;
}

/** Build type the binary was compiled with, or a refusal. */
std::string
checkBuild()
{
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) ||                 \
    defined(__SANITIZE_THREAD__)
    refuse("timings need an optimized, uninstrumented build (got " +
           std::string(PERFBENCH_BUILD_TYPE) +
           " with assertions or sanitizers)");
#endif
    std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release")
        refuse("build type " + type + " is not Release");
    return type;
}

/** Eight HETEROGEN_* variables silently change engine, proposer,
 * cache, faults and threads; a timing taken under any is not this
 * benchmark's. */
void
checkEnvironment()
{
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "HETEROGEN_", 10) == 0)
            refuse(std::string("environment sets ") + *e);
}

/** Removes its directory tree on destruction, so no run leaves a cache
 * directory behind, on error paths too. */
class ScratchDir
{
  public:
    explicit ScratchDir(fs::path path) : path_(std::move(path)) { reset(); }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const fs::path &path() const { return path_; }

    /** Empty the directory (between passes). */
    void
    reset() const
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    uint64_t
    bytes() const
    {
        uint64_t total = 0;
        for (const auto &e : fs::recursive_directory_iterator(path_))
            if (e.is_regular_file())
                total += e.file_size();
        return total;
    }

  private:
    fs::path path_;
};

// ---------------------------------------------------------------------
// Workload inputs

/** One conversion job of a workload. */
struct Job
{
    std::string id;
    std::string source;
    core::HeteroGenOptions options;
    /** forum-service only: wave, tenant and priority. */
    int wave = 0;
    std::string tenant;
    service::Priority priority = service::Priority::Normal;
};

/**
 * The subjects P1-P10 and S1-S4 except P3, P4, P9 and S4, under the
 * paper's §6 options. Seed 0 is bench::standardOptions exactly; other
 * seeds move the fuzz and search seeds.
 */
std::vector<Job>
subjectJobs(uint64_t seed)
{
    std::vector<subjects::Subject> all = subjects::allSubjects();
    for (const subjects::Subject &s : subjects::streamingSubjects())
        all.push_back(s);
    std::vector<Job> jobs;
    for (const subjects::Subject &s : all) {
        // These four take 51 of the 56 s a single-threaded sweep takes.
        // Without them a run repeats the other ten jobs five or more
        // times, and the per-job minimum over that many passes is what
        // keeps the timing steady on a host whose speed drifts.
        if (s.id == "P3" || s.id == "P4" || s.id == "P9" || s.id == "S4")
            continue;
        Job job;
        job.id = s.id;
        job.source = s.source;
        job.options = bench::standardOptions(s);
        if (seed != 0) {
            job.options.fuzz.rng_seed = s.fuzz_seed + seed * 1000003ULL;
            job.options.search.rng_seed =
                job.options.fuzz.rng_seed * 31 + 7;
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** bench/service_throughput's trimmed per-job options, keeping the
 * program's default engine. */
core::HeteroGenOptions
forumOptions()
{
    subjects::Subject post;
    post.kernel = "kernel";
    core::HeteroGenOptions opts = bench::standardOptions(post);
    opts.fuzz.rng_seed = kForumFuzzSeed;
    opts.fuzz.max_executions = 150;
    opts.fuzz.mutations_per_input = 8;
    opts.fuzz.max_steps_per_run = 60000;
    opts.fuzz.min_suite_size = 12;
    opts.search.budget_minutes = 90.0;
    opts.search.max_iterations = 60;
    opts.search.difftest_sample = 6;
    opts.search.rng_seed = opts.fuzz.rng_seed * 31 + 7;
    return opts;
}

/**
 * Posts a wave takes per category, in draw order. Roughly the corpus
 * mix (LoopParallelization, the runaway-loop posts, is 1 in 7 against
 * 16% of the corpus). DynamicDataStructures posts are left out: under
 * the trimmed options their repair never succeeds, and the workload
 * must be one on which no job fails.
 */
const std::pair<hls::ErrorCategory, int> kWaveMix[] = {
    {hls::ErrorCategory::UnsupportedDataTypes, 2},
    {hls::ErrorCategory::TopFunction, 2},
    {hls::ErrorCategory::DataflowOptimization, 1},
    {hls::ErrorCategory::LoopParallelization, 1},
    {hls::ErrorCategory::StructAndUnion, 1},
};

/** Four tenants with fair-share weights 1/1/2/4. */
std::vector<service::TenantSpec>
forumTenants()
{
    std::vector<service::TenantSpec> tenants;
    const std::pair<const char *, double> spec[] = {
        {"bronze", 1.0}, {"silver", 1.0}, {"gold", 2.0}, {"platinum", 4.0}};
    for (const auto &[id, weight] : spec) {
        service::TenantSpec t;
        t.id = id;
        t.weight = weight;
        tenants.push_back(t);
    }
    return tenants;
}

/**
 * Forum posts from generateForumCorpus(100, 2022 + seed), split into
 * waves of the fixed mix above, each wave in kWaveMix order. Later waves
 * resubmit the first wave's runaway-loop posts rather than draw new
 * ones: that repeat is the costliest job a disk cache can answer, and
 * drawing it by chance (two posts with one symbol) made one seed in
 * fourteen ~1.5x faster than the rest. The seed changes which posts
 * arrive (their symbols, and so which tiny posts repeat) but not the
 * kind of post at each position, which fixes each position's tenant,
 * priority and cost, nor the fuzz and search seeds: a runaway post's
 * host time varies 3.5x with its fuzz seed.
 */
std::vector<Job>
forumJobs(uint64_t seed)
{
    std::vector<subjects::ForumPost> posts =
        subjects::generateForumCorpus(kForumDraw, 2022 + seed);
    const std::vector<service::TenantSpec> tenants = forumTenants();
    std::vector<bool> used(posts.size(), false);
    std::vector<Job> jobs;
    std::vector<size_t> first_runaway;
    for (int wave = 0; wave < kForumWaves; ++wave) {
        std::vector<size_t> picked;
        for (const auto &[category, count] : kWaveMix) {
            bool runaway = category == hls::ErrorCategory::LoopParallelization;
            if (runaway && wave > 0) {
                picked.insert(picked.end(), first_runaway.begin(),
                              first_runaway.end());
                continue;
            }
            int taken = 0;
            for (size_t i = 0; i < posts.size() && taken < count; ++i) {
                if (!used[i] && posts[i].ground_truth == category) {
                    used[i] = true;
                    picked.push_back(i);
                    ++taken;
                }
            }
            if (taken < count)
                fatal("perfbench: forum draw too small for the wave mix");
            if (runaway)
                first_runaway.assign(picked.end() - count, picked.end());
        }
        for (size_t i : picked) {
            int n = int(jobs.size());
            Job job;
            job.id = "w" + std::to_string(wave) + "-" +
                     std::to_string(posts[i].post_id);
            job.source = posts[i].snippet;
            job.options = forumOptions();
            job.wave = wave;
            job.tenant = tenants[size_t(n) % tenants.size()].id;
            job.priority = static_cast<service::Priority>(n % 3);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

// ---------------------------------------------------------------------
// Measurements

/** What the checks and metrics need from one report (reports hold
 * the final program and are move-only). */
struct Outcome
{
    bool ok = false;
    std::string digest;
    std::string hls_source;
    hls::HlsConfig config;
    fuzz::TestSuite suite;
    double total_minutes = 0;
    double minutes_to_fix = 0;
    double speedup = 0;
    double loc_ratio = 0;
    int full_hls_invocations = 0;
    int style_rejections = 0;
};

Outcome
summarize(const core::HeteroGenReport &r)
{
    Outcome o;
    o.ok = r.ok();
    o.digest = reportDigest(r);
    o.hls_source = r.hls_source;
    o.config = r.search.config;
    o.suite = r.testgen.suite;
    o.total_minutes = r.total_minutes;
    o.minutes_to_fix = r.search.minutes_to_success;
    o.speedup = ratio(r.search.orig_cpu_ms, r.search.fpga_ms);
    o.loc_ratio = ratio(r.final_loc, r.orig_loc);
    o.full_hls_invocations = r.search.full_hls_invocations;
    o.style_rejections = r.search.style_rejections;
    return o;
}

/** One job's outcome in one pass. */
struct JobRun
{
    /** Closed-loop passes: the job's host seconds. */
    double host_s = 0;
    /** Traced passes: host seconds per stage of kStages. */
    double stage_s[kNumStages] = {};
    bool completed = false;
    Outcome out;
    std::string trace_json;
    /** forum-service: arrival-to-finish on the service clock. */
    double sim_latency_min = 0;
};

struct Pass
{
    /** Jobs went through the conversion service, not one at a time. */
    bool service = false;
    bool traced = false;
    /** Total host time of the pass (forum: summed wave drains). */
    double host_s = 0;
    std::vector<double> wave_s;
    std::vector<JobRun> jobs;
    service::SchedulerStats stats;
    double fairness = 0;
    uint64_t cache_bytes = 0;
};

/** Runs one job under a single client; `traced` installs the stage
 * hook. */
JobRun
runJob(const Job &job, WorkerPool &pool, const fs::path &cache_dir,
       bool traced)
{
    JobRun run;
    core::HeteroGenOptions opts = job.options;
    opts.eval_pool = &pool;
    opts.cache_dir = cache_dir.string();
    Clock::time_point marks[kNumStages] = {};
    if (traced) {
        opts.stage_hook = [&marks](const std::string &stage) {
            for (int s = 0; s < kNumStages; ++s)
                if (stage == kStages[s])
                    marks[s] = Clock::now();
        };
    }
    Clock::time_point t0 = Clock::now();
    core::HeteroGen hg(job.source);
    core::HeteroGenReport report = hg.run(opts);
    Clock::time_point t1 = Clock::now();
    run.host_s = std::chrono::duration<double>(t1 - t0).count();
    if (traced) {
        for (int s = 0; s < kNumStages; ++s) {
            Clock::time_point end = t1;
            for (int n = s + 1; n < kNumStages; ++n) {
                if (marks[n] != Clock::time_point{}) {
                    end = marks[n];
                    break;
                }
            }
            if (marks[s] != Clock::time_point{})
                run.stage_s[s] =
                    std::chrono::duration<double>(end - marks[s]).count();
        }
    }
    run.completed = true;
    run.out = summarize(report);
    run.trace_json = report.trace_json;
    return run;
}

/** A closed loop with one client: each job starts when the previous
 * one has finished, and finds the cache the jobs before it wrote. */
Pass
closedLoopPass(const std::vector<Job> &jobs, WorkerPool &pool,
               const ScratchDir &cache, bool traced)
{
    Pass pass;
    pass.traced = traced;
    for (const Job &job : jobs) {
        pass.jobs.push_back(runJob(job, pool, cache.path(), traced));
        pass.host_s += pass.jobs.back().host_s;
    }
    pass.cache_bytes = cache.bytes();
    return pass;
}

/** Tenant fairness as bench/service_throughput measures it: slot
 * minutes per unit weight in the first half of the makespan, max over
 * min across tenants. */
double
fairness(const service::ConversionService &svc, const std::vector<int> &ids,
         const std::vector<service::TenantSpec> &tenants)
{
    double window = svc.stats().sim_minutes / 2;
    std::map<std::string, double> early;
    for (int id : ids) {
        service::JobStatus s = svc.poll(id);
        if (s.start_minutes < 0)
            continue;
        double overlap = std::min(s.finish_minutes, window) -
                         std::max(s.start_minutes, 0.0);
        if (overlap > 0)
            early[s.tenant] += overlap;
    }
    double lo = 0, hi = 0;
    for (size_t i = 0; i < tenants.size(); ++i) {
        double share = early[tenants[i].id] / tenants[i].weight;
        lo = i == 0 ? share : std::min(lo, share);
        hi = i == 0 ? share : std::max(hi, share);
    }
    return ratio(hi, lo);
}

service::ServiceOptions
forumServiceOptions()
{
    service::ServiceOptions so;
    so.slots = kServiceSlots;
    so.host_threads = kServiceSlots;
    so.eval_threads = 1;
    so.tenants = forumTenants();
    return so;
}

/** One forum pass: a fresh service and an empty cache directory shared
 * by every wave; each wave is drained before the next is submitted. */
Pass
servicePass(const std::vector<Job> &jobs, const ScratchDir &cache)
{
    Pass pass;
    pass.service = true;
    service::ConversionService svc(forumServiceOptions());
    std::vector<int> ids;
    for (int wave = 0; wave < kForumWaves; ++wave) {
        std::vector<int> wave_ids;
        double base = svc.simNow();
        for (size_t k = 0; k < jobs.size(); ++k) {
            if (jobs[k].wave != wave)
                continue;
            service::JobSpec spec;
            spec.tenant = jobs[k].tenant;
            spec.priority = jobs[k].priority;
            spec.arrival_minutes = base + 0.02 * double(wave_ids.size());
            spec.source = jobs[k].source;
            spec.options = jobs[k].options;
            spec.cache_dir = cache.path().string();
            wave_ids.push_back(svc.submit(spec));
        }
        Clock::time_point t0 = Clock::now();
        svc.drain();
        double drain_s = secondsSince(t0);
        pass.wave_s.push_back(drain_s);
        pass.host_s += drain_s;
        for (int id : wave_ids) {
            const service::JobOutcome &out = svc.collect(id);
            JobRun run;
            run.completed = out.status.state ==
                                service::JobState::Completed &&
                            out.has_report;
            run.out = summarize(out.report);
            run.trace_json = out.trace_json;
            run.sim_latency_min =
                out.status.finish_minutes - out.status.arrival_minutes;
            pass.jobs.push_back(std::move(run));
        }
        ids.insert(ids.end(), wave_ids.begin(), wave_ids.end());
    }
    pass.stats = svc.stats();
    pass.fairness = fairness(svc, ids, forumTenants());
    pass.cache_bytes = cache.bytes();
    return pass;
}

// ---------------------------------------------------------------------
// Output checks (outside every timed region)

/**
 * The job's output is a correct conversion: a completed, ok() report
 * whose HLS source re-parses, passes sema, compiles without HLS errors
 * and behaves like the original on the job's whole test suite.
 * Returns the reason it is not, or "" when it is.
 */
std::string
checkOutput(const Job &job, const JobRun &run, WorkerPool &pool)
{
    const Outcome &r = run.out;
    if (!run.completed)
        return "job did not complete";
    if (!r.ok)
        return "report is not ok()";
    try {
        cir::TuPtr hls = cir::parse(r.hls_source);
        cir::SemaResult sema = cir::analyze(*hls);
        if (!sema.errors.empty())
            return "hls_source fails sema: " + sema.errors[0].message;
        hls::HlsToolchain toolchain(r.config);
        hls::CompileResult compiled = toolchain.compile(*hls);
        if (!compiled.ok || !compiled.errors.empty())
            return "hls_source does not compile";
        core::HeteroGen original(job.source);
        repair::DiffTestOptions dt;
        dt.pool = &pool;
        repair::DiffTestResult diff = repair::diffTest(
            original.program(), job.options.kernel, *hls, r.config, r.suite,
            dt);
        if (diff.tool_failure || !diff.allIdentical())
            return "difftest over the whole suite: " +
                   std::to_string(diff.identical) + "/" +
                   std::to_string(diff.total) + " identical";
    } catch (const std::exception &e) {
        return std::string("check threw: ") + e.what();
    }
    return "";
}

// ---------------------------------------------------------------------
// Metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-job fastest host seconds across the closed-loop passes. */
std::vector<double>
fastestPerJob(const std::vector<Pass> &passes, bool traced)
{
    std::vector<double> best;
    for (const Pass &p : passes) {
        if (p.service || p.traced != traced)
            continue;
        if (best.empty())
            best.assign(p.jobs.size(), INFINITY);
        for (size_t k = 0; k < p.jobs.size(); ++k)
            best[k] = std::min(best[k], p.jobs[k].host_s);
    }
    return best;
}

/** Each wave's fastest drain across the service passes. */
std::vector<double>
fastestWaves(const std::vector<Pass> &passes)
{
    std::vector<double> best(kForumWaves, INFINITY);
    for (const Pass &p : passes)
        for (size_t w = 0; p.service && w < best.size(); ++w)
            best[w] = std::min(best[w], p.wave_s[w]);
    return best;
}

/**
 * Each job's host seconds as its client sees them: the fastest untraced
 * closed-loop run, or on forum-service the fastest drain of its wave,
 * since drain() is what hands back a job's result. With two waves of
 * seven jobs their median on forum-service is 7 / jobs_per_s.
 */
std::vector<double>
jobSeconds(const std::vector<Job> &jobs, const std::vector<Pass> &passes,
           bool forum)
{
    if (!forum)
        return fastestPerJob(passes, false);
    std::vector<double> waves = fastestWaves(passes);
    std::vector<double> best;
    for (const Job &job : jobs)
        best.push_back(waves[size_t(job.wave)]);
    return best;
}

double
sum(const std::vector<double> &v)
{
    double total = 0;
    for (double x : v)
        total += x;
    return total;
}

/** Every job's parsed trace, with counters summed over the jobs, over
 * whole trees or over one pipeline stage's span. */
struct Counters
{
    std::vector<std::unique_ptr<TraceSpan>> roots;
    /** Each root's pipeline stage spans (null where a stage is absent). */
    std::vector<std::vector<const TraceSpan *>> stages;

    void
    add(const std::string &trace_json)
    {
        roots.push_back(parseTraceJson(trace_json));
        const TraceSpan *pipeline = roots.back()->find("pipeline");
        std::vector<const TraceSpan *> spans(kNumStages, nullptr);
        for (int s = 0; pipeline && s < kNumStages; ++s)
            spans[size_t(s)] = pipeline->child(kStages[s]);
        stages.push_back(spans);
    }

    double
    get(const std::string &key) const
    {
        double n = 0;
        for (const auto &root : roots)
            n += double(root->counterTotal(key));
        return n;
    }

    double
    inStage(int s, const std::string &key) const
    {
        double n = 0;
        for (const auto &spans : stages)
            if (spans[size_t(s)])
                n += double(spans[size_t(s)]->counterTotal(key));
        return n;
    }

    double
    stageMinutes(int s) const
    {
        double minutes = 0;
        for (const auto &spans : stages)
            if (spans[size_t(s)])
                minutes += spans[size_t(s)]->minutes;
        return minutes;
    }
};

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** End-to-end metrics; the timings come from the untraced passes. */
std::vector<Metric>
endToEnd(const Args &args, const std::vector<Job> &jobs,
         const std::vector<Pass> &passes, double setup_s, double ok_frac)
{
    const Pass &first = passes.front();
    size_t n = first.jobs.size();
    bool forum = args.workload == "forum-service";
    std::vector<double> best = jobSeconds(jobs, passes, forum);
    double jobs_per_s = forum ? ratio(double(n), sum(fastestWaves(passes)))
                              : ratio(double(n), sum(best));
    double sim_total = 0;
    std::vector<double> to_fix, speedup, loc, latency;
    for (const JobRun &run : first.jobs) {
        const Outcome &r = run.out;
        sim_total += r.total_minutes;
        to_fix.push_back(r.minutes_to_fix);
        speedup.push_back(r.speedup);
        loc.push_back(r.loc_ratio);
        // A lone client never queues: arrival to finish is the run.
        latency.push_back(forum ? run.sim_latency_min : r.total_minutes);
    }
    return {
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"job_s_p50", median(best), "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", ok_frac, "ratio"},
        {"sim_min_total", sim_total, "sim_min"},
        {"sim_min_to_fix_geomean", geomean(to_fix), "sim_min"},
        {"fpga_speedup_geomean", geomean(speedup), "x"},
        {"loc_ratio_geomean", geomean(loc), "ratio"},
        {"sim_latency_p50_min", percentile(latency, 0.5), "sim_min"},
        {"sim_latency_p90_min", percentile(latency, 0.9), "sim_min"},
    };
}

/** Per-layer metrics; host times come from the traced passes. */
std::vector<Metric>
perLayer(const Args &args, const std::vector<Job> &jobs,
         const std::vector<Pass> &passes, double parse_s,
         double repeat_frac)
{
    bool forum = args.workload == "forum-service";
    const Pass &first = passes.front();
    Counters c;
    for (const JobRun &run : first.jobs)
        c.add(run.trace_json);

    // Per-job fastest traced time of each stage, summed over jobs.
    double stage_s[kNumStages] = {};
    for (size_t k = 0; k < jobs.size(); ++k) {
        for (int s = 0; s < kNumStages; ++s) {
            double best = INFINITY;
            for (const Pass &p : passes)
                if (p.traced)
                    best = std::min(best, p.jobs[k].stage_s[s]);
            stage_s[s] += best;
        }
    }
    double job_host_s = 0;
    for (double s : stage_s)
        job_host_s += s;

    double untraced_s = sum(fastestPerJob(passes, false));
    double traced_s = sum(fastestPerJob(passes, true));

    double steps = c.get("interp.steps");
    double full_hls = 0, style_rej = 0;
    for (const JobRun &run : first.jobs) {
        full_hls += run.out.full_hls_invocations;
        style_rej += run.out.style_rejections;
    }
    double hls_errors = 0;
    for (hls::ErrorCategory category : hls::allCategories())
        hls_errors += c.get("hls.errors." + hls::categorySlug(category));
    double memo_c_hits = c.get("repair.memo.compile_hits");
    double memo_c_miss = c.get("repair.memo.compile_misses");
    double memo_d_hits = c.get("repair.memo.difftest_hits");
    double memo_d_miss = c.get("repair.memo.difftest_misses");
    double dc_hits = c.get("repair.diskcache.hits");
    double dc_miss = c.get("repair.diskcache.misses");

    double drain_s = forum ? sum(fastestWaves(passes)) : 0;

    std::vector<Metric> m = {
        {"cir.parse_s", parse_s, "s"},
        {"fuzz.host_s", stage_s[0], "s"},
        {"fuzz.executions", c.get("fuzz.executions"), "count"},
        {"fuzz.execs_per_s", ratio(c.get("fuzz.executions"), stage_s[0]),
         "1/s"},
        {"fuzz.sim_min", c.stageMinutes(0), "sim_min"},
        {"profile.host_s", stage_s[1], "s"},
        {"init_hls.host_s", stage_s[2], "s"},
        {"repair.host_s", stage_s[3], "s"},
        {"repair.sim_min", c.stageMinutes(3), "sim_min"},
    };
    const char *step_stages[] = {"fuzz", "profile", "repair"};
    const int step_index[] = {0, 1, 3};
    for (int i = 0; i < 3; ++i) {
        m.push_back({std::string("interp.steps.") + step_stages[i],
                     c.inStage(step_index[i], "interp.steps"), "count"});
        m.push_back({std::string("interp.traps.") + step_stages[i],
                     c.inStage(step_index[i], "interp.traps"), "count"});
    }
    std::vector<Metric> rest = {
        {"interp.steps_per_s", ratio(steps, job_host_s), "1/s"},
        {"interp.bytecode.compiles", c.get("interp.bytecode.compiles"),
         "count"},
        {"search.candidates", c.get("search.candidates"), "count"},
        {"search.edits_applied", c.get("search.edits_applied"), "count"},
        {"search.reverts", c.get("search.reverts"), "count"},
        {"search.style_checks", c.get("search.style_checks"), "count"},
        {"search.style_rejections", c.get("search.style_rejections"),
         "count"},
        {"difftest.campaigns", c.get("difftest.campaigns"), "count"},
        {"difftest.tests", c.get("difftest.tests"), "count"},
        {"difftest.mismatches", c.get("difftest.mismatches"), "count"},
        {"memo.compile_hit_ratio",
         ratio(memo_c_hits, memo_c_hits + memo_c_miss), "ratio"},
        {"memo.difftest_hit_ratio",
         ratio(memo_d_hits, memo_d_hits + memo_d_miss), "ratio"},
        {"hls.compiles", c.get("hls.compiles"), "count"},
        {"hls.synth_checks", c.get("hls.synth_checks"), "count"},
        {"hls.errors", hls_errors, "count"},
        {"hls.invocation_ratio", ratio(full_hls, full_hls + style_rej),
         "ratio"},
        {"diskcache.hits", dc_hits, "count"},
        {"diskcache.misses", dc_miss, "count"},
        {"diskcache.writes", c.get("repair.diskcache.writes"), "count"},
        {"diskcache.invalid", c.get("repair.diskcache.invalid"), "count"},
        {"diskcache.hit_ratio", ratio(dc_hits, dc_hits + dc_miss), "ratio"},
        {"diskcache.bytes", double(first.cache_bytes), "bytes"},
        {"service.drain_s", drain_s, "s"},
        {"service.host_parallelism", forum ? ratio(untraced_s, drain_s) : 0,
         "ratio"},
        {"service.sim_makespan_min", first.stats.sim_minutes, "sim_min"},
        {"service.preemptions", double(first.stats.preemptions), "count"},
        {"service.max_in_flight", double(first.stats.max_in_flight),
         "count"},
        {"service.fairness_max_min", first.fairness, "ratio"},
        {"repeat_frac", repeat_frac, "ratio"},
        {"trace.overhead_ratio", ratio(untraced_s, traced_s), "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

// ---------------------------------------------------------------------
// Running a workload

/** Workload set-up: parse every job's source once (the inputs must be
 * valid C before anything is timed). Returns the parse seconds. */
double
parseAll(const std::vector<Job> &jobs)
{
    Clock::time_point t0 = Clock::now();
    for (const Job &job : jobs)
        core::HeteroGen hg(job.source);
    return secondsSince(t0);
}

int
run(const Args &args, const std::string &build_type)
{
    const bool forum = args.workload == "forum-service";
    fs::path cache_path = fs::path(args.scratch) /
                          ("cache-" + std::to_string(::getpid()));

    // Set-up: generate the inputs, parse them, and make the cache
    // directory and thread pool. Repeated before the first pass and after
    // every pass (outside the measured time); setup_s is the fastest.
    std::vector<double> setup_samples, parse_samples;
    std::vector<Job> jobs;
    std::unique_ptr<ScratchDir> cache;
    std::unique_ptr<WorkerPool> pool;
    auto setUp = [&](int reps) {
        for (int rep = 0; rep < reps; ++rep) {
            cache.reset();
            pool.reset();
            Clock::time_point t0 = Clock::now();
            jobs = forum ? forumJobs(args.seed) : subjectJobs(args.seed);
            parse_samples.push_back(parseAll(jobs));
            cache = std::make_unique<ScratchDir>(cache_path);
            pool = std::make_unique<WorkerPool>(kEvalThreads);
            setup_samples.push_back(secondsSince(t0));
        }
    };
    setUp(kSetupRepsFirst);

    // Timed passes, in cycles; a new pass starts only while it is
    // expected to end inside --seconds. subjects-cold passes are closed
    // loops (with --trace 1, alternately untraced and traced).
    // forum-service passes drain the service; with --trace 1 each is
    // followed by an untraced and a traced closed loop over the same
    // jobs, which give the per-stage host times (poll() cannot see when
    // a job's host run ends), the tracing overhead and the service's
    // host parallelism.
    enum class Kind { Service, Closed, Traced };
    std::vector<Kind> cycle;
    if (forum)
        cycle.push_back(Kind::Service);
    if (!forum || args.trace)
        cycle.push_back(Kind::Closed);
    if (args.trace)
        cycle.push_back(Kind::Traced);
    const size_t min_passes = size_t(kMinCycles) * cycle.size();
    std::vector<Pass> passes;
    double measured = 0;
    while (passes.size() < min_passes ||
           measured + measured / double(passes.size()) <= args.seconds) {
        Kind kind = cycle[passes.size() % cycle.size()];
        cache->reset(); // every pass starts from an empty cache
        Clock::time_point t0 = Clock::now();
        passes.push_back(kind == Kind::Service
                             ? servicePass(jobs, *cache)
                             : closedLoopPass(jobs, *pool, *cache,
                                              kind == Kind::Traced));
        measured += secondsSince(t0);
        setUp(kSetupRepsPerPass);
    }
    double setup_s =
        *std::min_element(setup_samples.begin(), setup_samples.end());
    double parse_s =
        *std::min_element(parse_samples.begin(), parse_samples.end());

    // Output checks, untimed.
    std::vector<std::string> first_digest;
    for (const JobRun &r : passes.front().jobs)
        first_digest.push_back(r.out.digest);
    int failed = 0;
    std::vector<bool> job_ok(jobs.size(), true);
    for (size_t k = 0; k < jobs.size(); ++k) {
        std::string why = checkOutput(jobs[k], passes.front().jobs[k], *pool);
        for (size_t p = 1; why.empty() && p < passes.size(); ++p)
            if (passes[p].jobs[k].out.digest != first_digest[k])
                why = "pass " + std::to_string(p) +
                      " digest differs from pass 0";
        if (!why.empty()) {
            job_ok[k] = false;
            ++failed;
            std::fprintf(stderr, "perfbench: %s: %s\n", jobs[k].id.c_str(),
                         why.c_str());
        }
    }
    // Share of jobs whose source an earlier wave already submitted.
    int repeats = 0;
    for (size_t k = 0; k < jobs.size(); ++k)
        for (size_t j = 0; j < k; ++j)
            if (jobs[j].wave < jobs[k].wave &&
                jobs[j].source == jobs[k].source) {
                ++repeats;
                break;
            }
    double repeat_frac = ratio(repeats, double(jobs.size()));
    double ok_frac = ratio(double(jobs.size() - size_t(failed)),
                           double(jobs.size()));

    // Per-job rows and provenance.
    std::vector<double> best = jobSeconds(jobs, passes, forum);
    for (size_t k = 0; k < jobs.size(); ++k) {
        const Outcome &r = passes.front().jobs[k].out;
        std::printf("{\"row\": \"job\", \"workload\": %s, \"job\": %s, "
                    "\"host_s\": %.6f, \"sim_min\": %s, \"ok\": %s, "
                    "\"digest\": \"%s\"}\n",
                    jsonString(args.workload).c_str(), jsonString(jobs[k].id).c_str(),
                    best[k], fmt17(r.total_minutes).c_str(),
                    job_ok[k] ? "true" : "false", first_digest[k].c_str());
    }
    std::string pass_s;
    for (const Pass &p : passes) {
        pass_s += pass_s.empty() ? "[" : ", ";
        pass_s += jsonString(std::string(p.service  ? "service"
                                         : p.traced ? "traced"
                                                    : "closed") +
                             ":" + fmt17(p.host_s));
    }
    std::printf("{\"row\": \"run\", \"workload\": %s, \"seed\": %llu, "
                "\"jobs\": %zu, \"measured_s\": %.3f, \"passes\": %s], "
                "\"build_type\": %s, \"eval_threads\": %d, "
                "\"hardware_threads\": %u}\n",
                jsonString(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed), jobs.size(),
                measured, pass_s.c_str(), jsonString(build_type).c_str(),
                kEvalThreads,
                std::thread::hardware_concurrency());

    std::vector<Metric> metrics =
        args.trace ? perLayer(args, jobs, passes, parse_s, repeat_frac)
                   : endToEnd(args, jobs, passes, setup_s, ok_frac);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                jobs.size() * passes.size(), failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                    jsonString(metrics[i].name).c_str(),
                    fmt17(metrics[i].value).c_str(),
                    jsonString(metrics[i].unit).c_str());
    std::printf("}}\n");
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace heterogen::perfbench

int
main(int argc, char **argv)
{
    using namespace heterogen::perfbench;
    Args args = parseArgs(argc, argv);
    checkEnvironment();
    std::string build_type = checkBuild();
    unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && hw < unsigned(kServiceSlots))
        refuse("needs a hardware thread per service slot (" +
               std::to_string(kServiceSlots) + "), found " +
               std::to_string(hw));
    try {
        return run(args, build_type);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

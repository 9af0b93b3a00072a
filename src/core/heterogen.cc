#include "core/heterogen.h"

#include <algorithm>
#include <optional>

#include "cir/parser.h"
#include "cir/printer.h"
#include "repair/transforms.h"
#include "support/strings.h"
#include "support/worker_pool.h"

namespace heterogen::core {

using cir::TranslationUnit;

HeteroGen::HeteroGen(const std::string &source)
{
    tu_ = cir::parse(source);
    sema_ = cir::analyzeOrDie(*tu_);
}

void
validateOptions(const HeteroGenOptions &options)
{
    if (options.kernel.empty())
        fatal("HeteroGen: no kernel function specified");
    if (options.pipeline_budget_minutes < 0)
        fatal("HeteroGen: pipeline_budget_minutes must be >= 0, got ",
              options.pipeline_budget_minutes);
    if (options.fuzz.budget_minutes < 0)
        fatal("HeteroGen: fuzz.budget_minutes must be >= 0, got ",
              options.fuzz.budget_minutes);
    if (options.fuzz.plateau_minutes < 0)
        fatal("HeteroGen: fuzz.plateau_minutes must be >= 0, got ",
              options.fuzz.plateau_minutes);
    if (options.fuzz.mutations_per_input < 1 ||
        options.fuzz.mutations_per_input > fuzz::kMaxMutationsPerInput)
        fatal("HeteroGen: fuzz.mutations_per_input must be in [1, ",
              fuzz::kMaxMutationsPerInput, "], got ",
              options.fuzz.mutations_per_input);
    if (options.search.budget_minutes < 0)
        fatal("HeteroGen: search.budget_minutes must be >= 0, got ",
              options.search.budget_minutes);
    if (options.retry.max_attempts < 1)
        fatal("HeteroGen: retry.max_attempts must be >= 1, got ",
              options.retry.max_attempts);
    if (options.retry.backoff_minutes < 0)
        fatal("HeteroGen: retry.backoff_minutes must be >= 0, got ",
              options.retry.backoff_minutes);
    if (options.retry.backoff_factor < 0)
        fatal("HeteroGen: retry.backoff_factor must be >= 0, got ",
              options.retry.backoff_factor);
    if (options.config.stream_depth < hls::kMinStreamDepth ||
        options.config.stream_depth > hls::kMaxStreamDepth)
        fatal("HeteroGen: config.stream_depth must be in [",
              hls::kMinStreamDepth, ", ", hls::kMaxStreamDepth,
              "], got ", options.config.stream_depth);
    std::string err = repair::proposerError(options.search.proposer);
    if (err.empty() && !options.cache_dir.empty())
        err = repair::cacheDirError(options.cache_dir);
    if (!err.empty())
        fatal("HeteroGen: ", err);
    for (const FaultRule &rule : options.faults.rules) {
        const std::vector<std::string> &sites = knownFaultSites();
        if (std::find(sites.begin(), sites.end(), rule.site) == sites.end())
            fatal("HeteroGen: unknown fault site '", rule.site,
                  "' (known: ", join(sites, ", "), ")");
        if (rule.probability < 0 || rule.probability > 1)
            fatal("HeteroGen: fault probability for '", rule.site,
                  "' must be in [0, 1], got ", rule.probability);
        if (rule.latency_minutes >= 0 && rule.latencyMinutes() < 0)
            fatal("HeteroGen: fault latency for '", rule.site,
                  "' must be >= 0, got ", rule.latency_minutes);
    }
}

interp::ValueProfile
profileUnderSuite(RunContext &ctx, repair::CpuOracle &oracle)
{
    interp::ValueProfile profile;
    for (size_t i = 0; i < oracle.suite().size(); ++i)
        oracle.result(ctx, i, &profile);
    return profile;
}

HeteroGenReport
HeteroGen::run(const HeteroGenOptions &options) const
{
    RunContext ctx;
    return run(ctx, options);
}

HeteroGenReport
HeteroGen::run(RunContext &ctx, const HeteroGenOptions &options) const
{
    validateOptions(options);
    if (!tu_->findFunction(options.kernel))
        fatal("HeteroGen: kernel '", options.kernel,
              "' not found in program");

    // The options' plan is the run's plan; an empty one disarms.
    ctx.installFaults(options.faults, options.retry);

    Budget pipeline_budget =
        options.pipeline_budget_minutes > 0
            ? Budget::minutes(options.pipeline_budget_minutes)
            : Budget::unlimited();
    SpanScope pipeline(ctx, "pipeline", pipeline_budget);

    HeteroGenReport report;
    std::string printed = cir::print(*tu_);
    report.orig_loc = countLines(printed);

    auto stage = [&](const char *name) {
        if (options.stage_hook)
            options.stage_hook(name);
    };

    // The run's one host pool: the caller's, else one sized by the
    // HETEROGEN_JOBS default. Fuzz batches and difftest campaigns fan
    // out over it; no result depends on its size.
    std::unique_ptr<WorkerPool> owned_pool;
    WorkerPool *pool = options.eval_pool;
    if (!pool) {
        owned_pool = std::make_unique<WorkerPool>();
        pool = owned_pool.get();
    }

    // The verdict store in play, decided here once: the one the caller
    // lent (the service shares a store per directory), else the one
    // cache_dir names. It holds this run's stage record as well as the
    // search's verdicts, and stays out of the run while a fault plan
    // is armed: fault draws are keyed by invocation index, so serving
    // verdicts from disk would shift every later draw.
    repair::SearchOptions search_opts = options.search;
    std::unique_ptr<repair::VerdictStore> owned_store;
    repair::VerdictStore *store = nullptr;
    if (!ctx.faultsEnabled()) {
        store = search_opts.verdict_store;
        if (!store && !options.cache_dir.empty()) {
            repair::VerdictStoreOptions vopts;
            vopts.dir = options.cache_dir;
            owned_store = std::make_unique<repair::VerdictStore>(vopts);
            store = owned_store.get();
            if (int64_t invalid = owned_store->diskStats().invalid;
                invalid > 0)
                ctx.count("repair.diskcache.invalid", invalid);
        }
        if (store && !store->enabled())
            store = nullptr;
    }
    search_opts.verdict_store = store;

    // A job seen before replays its stage 1-2 output: the fuzz span is
    // charged the stored minutes and counters in one go, and the
    // original does not run. Only a record that the run's remaining
    // budget would not have cut is replayed.
    std::string stage_key;
    std::optional<repair::StageRecord> replay;
    if (store) {
        stage_key = repair::stageRecordKey(printed, options.kernel,
                                           options.fuzz);
        if (!ctx.shouldStop())
            replay = store->findStage(ctx, stage_key, ctx.headroom());
    }

    // (1) Test input generation (opens the "fuzz" span).
    stage("fuzz");
    if (replay) {
        SpanScope fuzzing(ctx, "fuzz",
                          Budget::minutes(options.fuzz.budget_minutes));
        ctx.charge(replay->testgen.sim_minutes);
        for (const auto &[key, value] : replay->fuzz_counters)
            ctx.count(key, value);
        report.testgen = std::move(replay->testgen);
    } else {
        report.testgen = fuzz::fuzzKernel(ctx, *tu_, options.kernel,
                                          options.fuzz, pool);
    }
    // A campaign a budget or a cancellation cut short is not the one
    // the key names, so it is never recorded.
    bool record_stage = store && !replay && !ctx.shouldStop();

    // (2) Initial HLS version: profile value ranges, estimate types.
    // Profiling runs the original over the whole suite, so it fills
    // the CPU oracle every difftest campaign reads.
    repair::CpuOracle oracle(*tu_, options.kernel, report.testgen.suite);
    {
        stage("profile");
        SpanScope profiling(ctx, "profile");
        report.profile = replay ? std::move(replay->profile)
                                : profileUnderSuite(ctx, oracle);
    }
    if (record_stage) {
        repair::StageRecord record{report.testgen, report.profile, {}};
        for (const auto &[key, value] :
             pipeline.span().child("fuzz")->counters) {
            if (startsWith(key, "fuzz."))
                record.fuzz_counters[key] = value;
        }
        store->storeStage(ctx, stage_key, record);
    }

    cir::TuPtr broken = tu_->clone();
    hls::HlsConfig config = options.config;
    if (config.top_function.empty())
        config.top_function = options.kernel;
    if (options.narrow_bitwidths) {
        stage("init_hls");
        SpanScope init(ctx, "init_hls");
        repair::RepairContext rctx{*broken, config, "", &report.profile,
                                   nullptr, false};
        repair::xform::bitwidthNarrow(rctx);
    }

    // (3)-(5) Iterative repair with fitness evaluation (opens the
    // "repair" span).
    stage("repair");
    report.search = repair::repairSearch(ctx, oracle, *broken, config,
                                         report.profile, search_opts, pool);
    if (owned_store) {
        owned_store->flush();
        if (int64_t evicted = owned_store->diskStats().evictions;
            evicted > 0)
            ctx.count("repair.diskcache.evictions", evicted);
    }

    report.hls_source = cir::print(*report.search.program);
    report.final_loc = countLines(report.hls_source);
    report.total_minutes = pipeline.minutes();
    report.trace_json = ctx.traceJson();
    return report;
}

} // namespace heterogen::core

#include "core/heterogen.h"

#include "cir/parser.h"
#include "cir/printer.h"
#include "repair/transforms.h"
#include "support/strings.h"

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
    if (options.search.budget_minutes < 0)
        fatal("HeteroGen: search.budget_minutes must be >= 0, got ",
              options.search.budget_minutes);
    if (options.search.difftest_sim_workers < 1)
        fatal("HeteroGen: search.difftest_sim_workers must be >= 1, "
              "got ", options.search.difftest_sim_workers);
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
        if (rule.probability < 0 || rule.probability > 1)
            fatal("HeteroGen: fault probability for '", rule.site,
                  "' must be in [0, 1], got ", rule.probability);
        if (rule.latency_minutes >= 0 && rule.latencyMinutes() < 0)
            fatal("HeteroGen: fault latency for '", rule.site,
                  "' must be >= 0, got ", rule.latency_minutes);
    }
}

interp::ValueProfile
profileUnderSuite(RunContext &ctx, const TranslationUnit &tu,
                  const std::string &kernel, const fuzz::TestSuite &suite)
{
    interp::ValueProfile profile;
    interp::Interpreter interp(tu);
    for (const fuzz::TestCase &test : suite.cases()) {
        interp::RunOptions opts;
        opts.profile = &profile;
        opts.trace = &ctx;
        interp.run(kernel, test.args, opts);
    }
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

    // Arm fault injection: explicit options win, then the
    // HETEROGEN_FAULTS environment spec, then whatever the caller
    // already armed on the context (possibly nothing).
    if (!options.faults.empty()) {
        ctx.installFaults(options.faults, options.retry);
    } else if (!ctx.faultsEnabled()) {
        FaultPlan env_plan = FaultPlan::fromEnv();
        if (!env_plan.empty())
            ctx.installFaults(std::move(env_plan), options.retry);
    }

    Budget pipeline_budget =
        options.pipeline_budget_minutes > 0
            ? Budget::minutes(options.pipeline_budget_minutes)
            : Budget::unlimited();
    SpanScope pipeline(ctx, "pipeline", pipeline_budget);

    HeteroGenReport report;
    report.orig_loc = countLines(cir::print(*tu_));

    fuzz::FuzzOptions fuzz_opts = options.fuzz;
    repair::SearchOptions search_opts = options.search;
    if (options.eval_pool) {
        fuzz_opts.pool = options.eval_pool;
        search_opts.pool = options.eval_pool;
    }
    auto stage = [&](const char *name) {
        if (options.stage_hook)
            options.stage_hook(name);
    };

    // (1) Test input generation (opens the "fuzz" span).
    stage("fuzz");
    report.testgen = fuzz::fuzzKernel(ctx, *tu_, options.kernel, fuzz_opts);

    // (2) Initial HLS version: profile value ranges, estimate types.
    {
        stage("profile");
        SpanScope profiling(ctx, "profile");
        report.profile = profileUnderSuite(ctx, *tu_, options.kernel,
                                           report.testgen.suite);
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

    // The persistent verdict store named by cache_dir, unless the
    // caller lent one (the service shares a store per directory). It
    // stays closed while a fault plan is armed: the search would
    // bypass it anyway.
    std::unique_ptr<repair::VerdictStore> store;
    if (search_opts.use_memo && !search_opts.verdict_store &&
        !options.cache_dir.empty() && !ctx.faultsEnabled()) {
        repair::VerdictStoreOptions vopts;
        vopts.dir = options.cache_dir;
        store = std::make_unique<repair::VerdictStore>(vopts);
        search_opts.verdict_store = store.get();
        if (int64_t invalid = store->diskStats().invalid; invalid > 0)
            ctx.count("repair.diskcache.invalid", invalid);
    }

    // (3)-(5) Iterative repair with fitness evaluation (opens the
    // "repair" span).
    stage("repair");
    report.search = repair::repairSearch(ctx, *tu_, options.kernel,
                                         *broken, config,
                                         report.testgen.suite,
                                         report.profile, search_opts);
    if (store) {
        store->flush();
        if (int64_t evicted = store->diskStats().evictions; evicted > 0)
            ctx.count("repair.diskcache.evictions", evicted);
    }

    report.hls_source = cir::print(*report.search.program);
    report.final_loc = countLines(report.hls_source);
    report.degradations = report.search.degradations;
    report.total_minutes = pipeline.minutes();
    report.trace_json = ctx.traceJson();
    return report;
}

} // namespace heterogen::core

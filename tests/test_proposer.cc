/** @file CandidateProposer seam tests: name parsing and the factory,
 * corpus mining invariants (evidence-driven support, dependence-ordered
 * chains, deterministic ranking), the corpus proposer's retrieval and
 * retire behaviour, and the end-to-end contracts — searches driven
 * by every proposer are deterministic across eval-thread counts and
 * seeds, report proposer counters on the trace, and never memoize
 * tool failures under fault injection.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/heterogen.h"
#include "repair/corpus.h"
#include "repair/proposer.h"
#include "support/diagnostics.h"
#include "support/faults.h"
#include "support/run_context.h"
#include "support/strings.h"
#include "support/worker_pool.h"

namespace heterogen::repair {
namespace {

using hls::ErrorCategory;

// --- names, parsing, factory ---------------------------------------------

TEST(ProposerNames, AcceptsExactlyTheKnownNames)
{
    EXPECT_EQ(proposerNames(),
              (std::vector<std::string>{"template", "corpus"}));
    for (const std::string &name : proposerNames())
        EXPECT_EQ(proposerError(name), "") << name;
    EXPECT_NE(proposerError(""), ""); // no "default" alias
    EXPECT_NE(proposerError("gpt4"), "");
    EXPECT_NE(proposerError("mixed"), ""); // measured dominated, removed
    EXPECT_NE(proposerError("Template"), ""); // names are exact
    EXPECT_NE(proposerError("corpus "), ""); // no trimming
}

TEST(ProposerNames, FactoryBuildsEveryKnownNameAndRejectsUnknown)
{
    ProposerConfig config;
    for (const std::string &name : proposerNames()) {
        auto proposer = makeProposer(name, config);
        ASSERT_NE(proposer, nullptr);
        EXPECT_EQ(proposer->name(), name);
    }
    try {
        makeProposer("gpt4", config);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        // The diagnostic must name the bad value and the legal ones.
        EXPECT_TRUE(contains(e.what(), "gpt4"));
        EXPECT_TRUE(contains(e.what(), "template"));
        EXPECT_TRUE(contains(e.what(), "corpus"));
    }
}

TEST(ConfigDefaults, IgnoreRetiredEnvironmentVariables)
{
    // The proposer and the FIFO depth have one home each, a field with
    // a constant default; the environment variables that used to
    // override those defaults no longer exist.
    const char *names[] = {"HETEROGEN_PROPOSER", "HETEROGEN_STREAM_DEPTH"};
    const char *values[] = {"corpus", "64"};
    std::string saved[2];
    bool had[2];
    for (int i = 0; i < 2; ++i) {
        const char *old = std::getenv(names[i]);
        had[i] = old != nullptr;
        saved[i] = old ? old : "";
        ::setenv(names[i], values[i], 1);
    }
    EXPECT_EQ(SearchOptions{}.proposer, "template");
    EXPECT_EQ(hls::HlsConfig{}.stream_depth, 2);
    EXPECT_EQ(core::HeteroGenOptions{}.search.proposer, "template");
    for (int i = 0; i < 2; ++i) {
        if (had[i])
            ::setenv(names[i], saved[i].c_str(), 1);
        else
            ::unsetenv(names[i]);
    }
}

// --- corpus mining --------------------------------------------------------

TEST(RewriteCorpus, InstanceCoversEveryErrorCategory)
{
    const RewriteCorpus &corpus = RewriteCorpus::instance();
    for (ErrorCategory category : hls::allCategories()) {
        EXPECT_FALSE(corpus.recipesFor(category).empty())
            << "no recipes mined for " << hls::categorySlug(category);
    }
    EXPECT_FALSE(corpus.performanceRecipes().empty());
    // Ten manual ports, four streaming-subject ports, and the
    // 1000-post Figure-3 forum corpus.
    EXPECT_EQ(corpus.documents(), 1014);
}

TEST(RewriteCorpus, RecipesAreDependenceOrderedWithPositiveSupport)
{
    const EditRegistry &registry = EditRegistry::instance();
    for (const RewriteRecipe *recipe : RewriteCorpus::instance().all()) {
        ASSERT_FALSE(recipe->edits.empty()) << recipe->id;
        EXPECT_GT(recipe->support, 0) << recipe->id;
        EXPECT_FALSE(recipe->examples.empty()) << recipe->id;
        std::set<std::string> earlier;
        for (const std::string &name : recipe->edits) {
            const EditTemplate *t = registry.find(name);
            ASSERT_NE(t, nullptr)
                << recipe->id << " names unknown edit " << name;
            for (const std::string &dep : t->requires_edits) {
                EXPECT_TRUE(earlier.count(dep))
                    << recipe->id << " applies " << name
                    << " before its dependence " << dep;
            }
            earlier.insert(name);
        }
    }
}

TEST(RewriteCorpus, BucketsAreRankedBySupportThenId)
{
    const RewriteCorpus &corpus = RewriteCorpus::instance();
    auto checkRanked = [](const std::vector<RewriteRecipe> &bucket) {
        for (size_t i = 1; i < bucket.size(); ++i) {
            const RewriteRecipe &a = bucket[i - 1];
            const RewriteRecipe &b = bucket[i];
            EXPECT_TRUE(a.support > b.support ||
                        (a.support == b.support && a.id < b.id))
                << a.id << " should not rank before " << b.id;
        }
    };
    for (ErrorCategory category : hls::allCategories())
        checkRanked(corpus.recipesFor(category));
    checkRanked(corpus.performanceRecipes());
}

TEST(RewriteCorpus, MiningIsEvidenceDriven)
{
    // No documents, no recipes: every catalogue entry needs support.
    EXPECT_TRUE(RewriteCorpus::mine({}, {}).all().empty());

    // One port pair where the expert removed malloc: only the
    // dynamic-memory recipes gain support, and the example records the
    // document id we supplied.
    RewriteCorpus corpus = RewriteCorpus::mine(
        {{"int f() { int *p = (int *)malloc(4); return p[0]; }",
          "int f() { int arena[4]; return arena[0]; }"}},
        {}, {"P42:manual"});
    const auto &dyn =
        corpus.recipesFor(ErrorCategory::DynamicDataStructures);
    ASSERT_FALSE(dyn.empty());
    for (const RewriteRecipe &recipe : dyn) {
        EXPECT_EQ(recipe.support, 1);
        ASSERT_EQ(recipe.examples.size(), 1u);
        EXPECT_EQ(recipe.examples[0], "P42:manual");
    }
    // Removing malloc also evidences the pointer rewrite filed under
    // unsupported types — but nothing about loops, structs or tops.
    for (const RewriteRecipe &recipe :
         corpus.recipesFor(ErrorCategory::UnsupportedDataTypes))
        EXPECT_EQ(recipe.id, "pointer_rewrite");
    EXPECT_TRUE(
        corpus.recipesFor(ErrorCategory::LoopParallelization).empty());
    EXPECT_TRUE(
        corpus.recipesFor(ErrorCategory::StructAndUnion).empty());
    EXPECT_TRUE(corpus.recipesFor(ErrorCategory::TopFunction).empty());

    // Mining is deterministic: same documents, same corpus.
    RewriteCorpus again = RewriteCorpus::mine(
        {{"int f() { int *p = (int *)malloc(4); return p[0]; }",
          "int f() { int arena[4]; return arena[0]; }"}},
        {}, {"P42:manual"});
    ASSERT_EQ(again.all().size(), corpus.all().size());
    for (size_t i = 0; i < again.all().size(); ++i) {
        EXPECT_EQ(again.all()[i]->id, corpus.all()[i]->id);
        EXPECT_EQ(again.all()[i]->support, corpus.all()[i]->support);
    }
}

// --- corpus proposer ------------------------------------------------------

ProposalRequest
repairRequest(ErrorCategory category, const std::set<std::string> *applied,
              Rng *rng)
{
    ProposalRequest request;
    request.phase = ProposalPhase::Repair;
    request.category = category;
    request.applied = applied;
    request.rng = rng;
    return request;
}

TEST(CorpusProposer, ProposesTheBestSurvivingRecipe)
{
    auto proposer = makeCorpusProposer(ProposerConfig{});
    std::set<std::string> applied;
    Rng rng(7);
    auto request =
        repairRequest(ErrorCategory::UnsupportedDataTypes, &applied, &rng);

    Proposal first = proposer->propose(request);
    ASSERT_EQ(first.candidates.size(), 1u);
    EXPECT_TRUE(startsWith(first.candidates[0].label, "corpus:"));
    EXPECT_FALSE(first.candidates[0].edits.empty());
    const std::string best = first.candidates[0].label;
    EXPECT_EQ(best,
              "corpus:" +
                  RewriteCorpus::instance()
                      .recipesFor(ErrorCategory::UnsupportedDataTypes)
                      .front()
                      .id);

    // Retrieval is stateless until feedback arrives.
    EXPECT_EQ(proposer->propose(request).candidates[0].label, best);
}

TEST(CorpusProposer, RetiresARecipeAfterThreeNoops)
{
    auto proposer = makeCorpusProposer(ProposerConfig{});
    std::set<std::string> applied;
    Rng rng(7);
    auto request =
        repairRequest(ErrorCategory::UnsupportedDataTypes, &applied, &rng);

    const std::string best = proposer->propose(request).candidates[0].label;
    proposer->observe({best, AttemptOutcome::Noop});
    proposer->observe({best, AttemptOutcome::Noop});
    EXPECT_EQ(proposer->propose(request).candidates[0].label, best)
        << "two noops are not yet disqualifying";
    proposer->observe({best, AttemptOutcome::Noop});
    Proposal after = proposer->propose(request);
    if (!after.candidates.empty()) {
        EXPECT_NE(after.candidates[0].label, best);
    }
}

TEST(CorpusProposer, RetiresARecipeOnInvalidOrRevert)
{
    for (AttemptOutcome outcome :
         {AttemptOutcome::Invalid, AttemptOutcome::Reverted}) {
        auto proposer = makeCorpusProposer(ProposerConfig{});
        std::set<std::string> applied;
        Rng rng(7);
        auto request = repairRequest(ErrorCategory::DynamicDataStructures,
                                     &applied, &rng);
        const std::string best =
            proposer->propose(request).candidates[0].label;
        proposer->observe({best, outcome});
        Proposal after = proposer->propose(request);
        if (!after.candidates.empty()) {
            EXPECT_NE(after.candidates[0].label, best);
        }
    }
}

TEST(CorpusProposer, HonoursAllowedEditsAndTheAppliedSet)
{
    ProposerConfig config;
    config.allowed_edits = {"segment($a1:arr)"};
    auto restricted = makeCorpusProposer(config);
    std::set<std::string> applied;
    Rng rng(7);
    // No struct recipe uses segment, so the restriction empties the
    // struct bucket entirely.
    EXPECT_TRUE(restricted
                    ->propose(repairRequest(ErrorCategory::StructAndUnion,
                                            &applied, &rng))
                    .candidates.empty());

    // A recipe whose every edit is already applied teaches nothing new.
    auto proposer = makeCorpusProposer(ProposerConfig{});
    auto request =
        repairRequest(ErrorCategory::UnsupportedDataTypes, &applied, &rng);
    while (true) {
        Proposal proposal = proposer->propose(request);
        if (proposal.candidates.empty())
            break;
        for (const EditTemplate *t : proposal.candidates[0].edits)
            applied.insert(t->name);
        // With its whole chain applied the recipe must stop coming
        // back even though no feedback retired it.
        Proposal again = proposer->propose(request);
        if (!again.candidates.empty()) {
            ASSERT_NE(again.candidates[0].label,
                      proposal.candidates[0].label);
        }
    }
}

// --- end-to-end: the search under each proposer ---------------------------

const char *kSubject =
    "int kernel(int x) { long double v = x; v = v + 1; return v; }";

core::HeteroGenOptions
pipelineOptions(const std::string &proposer, uint64_t seed = 3)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.rng_seed = seed;
    opts.fuzz.max_executions = 120;
    opts.fuzz.min_suite_size = 8;
    opts.search.rng_seed = seed;
    opts.search.difftest_sample = 8;
    opts.search.budget_minutes = 400.0;
    opts.search.proposer = proposer;
    return opts;
}

TEST(ProposerSearch, EveryProposerRepairsTheSubject)
{
    core::HeteroGen engine(kSubject);
    for (const std::string &proposer : proposerNames()) {
        SCOPED_TRACE(proposer);
        auto report = engine.run(pipelineOptions(proposer));
        EXPECT_TRUE(report.ok())
            << join(report.search.applied_order, ", ");
        EXPECT_EQ(report.search.proposer, proposer);
    }
}

TEST(ProposerSearch, TraceCarriesProposerCounters)
{
    core::HeteroGen engine(kSubject);
    RunContext ctx;
    auto report = engine.run(ctx, pipelineOptions("corpus"));
    ASSERT_TRUE(report.ok());
    const auto &root = ctx.trace().root();
    EXPECT_GT(root.counterTotal("search.proposer.calls"), 0);
    EXPECT_GT(root.counterTotal("search.proposer.candidates"), 0);
    // The corpus proposer landed at least one multi-edit rewrite on
    // this subject (the type chain is a two-template recipe).
    EXPECT_GT(root.counterTotal("search.proposer.rewrites"), 0);
    EXPECT_GE(root.counterTotal("search.proposer.calls"),
              root.counterTotal("search.proposer.empty"));
}

TEST(ProposerSearch, DeterministicAcrossEvalThreadsAndSeeds)
{
    core::HeteroGen engine(kSubject);
    WorkerPool serial(1);
    for (const std::string &proposer : proposerNames()) {
        for (uint64_t seed : {1, 2, 9}) {
            SCOPED_TRACE(proposer + " seed " + std::to_string(seed));
            auto base = pipelineOptions(proposer, seed);
            base.eval_pool = &serial;
            auto baseline = engine.run(base);
            for (int threads : {2, 8}) {
                WorkerPool pool(threads);
                auto opts = pipelineOptions(proposer, seed);
                opts.eval_pool = &pool;
                auto report = engine.run(opts);
                EXPECT_EQ(report.trace_json, baseline.trace_json)
                    << threads << " threads";
                EXPECT_EQ(report.hls_source, baseline.hls_source);
                EXPECT_EQ(report.search.sim_minutes,
                          baseline.search.sim_minutes);
                EXPECT_EQ(report.search.pass_ratio,
                          baseline.search.pass_ratio);
            }
        }
    }
}

TEST(ProposerSearch, NeverMemoizesToolFailuresUnderFaults)
{
    // The never-memoize-tool-failures rule, exercised with the corpus
    // proposer: transient compile/cosim faults absorbed by retries must
    // leave the artifact bit-identical to the fault-free run. A
    // memoized failure would replay as a permanent verdict on revisit
    // and change the search's decisions.
    core::HeteroGen engine(kSubject);
    auto clean = engine.run(pipelineOptions("corpus"));
    ASSERT_TRUE(clean.ok());

    int faulted_runs = 0;
    for (uint64_t plan_seed = 1; plan_seed <= 20; ++plan_seed) {
        auto opts = pipelineOptions("corpus");
        opts.faults = FaultPlan{plan_seed,
                                {{"hls.compile", 0.3},
                                 {"difftest.cosim", 0.2}}};
        opts.retry.max_attempts = 8;
        opts.retry.backoff_minutes = 0.25;
        RunContext ctx;
        auto faulty = engine.run(ctx, opts);

        SCOPED_TRACE("plan seed " + std::to_string(plan_seed));
        int64_t injected =
            ctx.trace().root().counterTotal("fault.injected");
        faulted_runs += injected > 0;
        if (!faulty.ok())
            continue; // a site gave up; degradation is covered elsewhere
        EXPECT_EQ(faulty.hls_source, clean.hls_source);
        EXPECT_EQ(faulty.search.iterations, clean.search.iterations);
        EXPECT_EQ(faulty.search.applied_order,
                  clean.search.applied_order);
        if (injected > 0) {
            EXPECT_GT(faulty.total_minutes, clean.total_minutes);
        }
    }
    // Deterministic in the plan seeds — a floor, not a flaky statistic.
    // (The corpus proposer repairs this subject in few toolchain calls,
    // so many plans never get a chance to fire.)
    EXPECT_GE(faulted_runs, 5);
}

} // namespace
} // namespace heterogen::repair

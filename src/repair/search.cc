#include "repair/search.h"

#include "cir/printer.h"
#include "cir/sema.h"
#include "hls/compiler.h"
#include "repair/difftest.h"
#include "repair/localizer.h"
#include "repair/memo.h"
#include "repair/proposer.h"
#include "repair/store.h"
#include "repair/transforms.h"
#include "stylecheck/stylecheck.h"
#include "support/diagnostics.h"
#include "support/run_context.h"

namespace heterogen::repair {

using cir::TranslationUnit;
using cir::TuPtr;
using hls::ErrorCategory;

namespace {

/** Simulated cost of concretizing and applying one AST edit. */
constexpr double kEditMinutes = 0.02;
/** Bound on consecutive resize attempts per divergence episode. */
constexpr int kMaxResizeAttempts = 6;
/** Bound on kept backtracking snapshots. */
constexpr size_t kMaxSnapshots = 32;

/** Full candidate state for backtracking. */
struct Snapshot
{
    TuPtr tu;
    hls::HlsConfig config;
    std::set<std::string> applied;
    std::string edit_about_to_apply;
};

class Search
{
  public:
    Search(RunContext &ctx, CpuOracle &oracle, const TranslationUnit &broken,
           const hls::HlsConfig &config,
           const interp::ValueProfile &profile,
           const SearchOptions &options, WorkerPool *pool)
        : ctx_(ctx), oracle_(oracle), profile_(profile), options_(options),
          rng_(options.rng_seed), pool_(pool), memo_(ctx)
    {
        ProposerConfig pconfig;
        pconfig.use_dependence = options.use_dependence;
        pconfig.allowed_edits = options.allowed_edits;
        proposer_ = makeProposer(options.proposer, pconfig);
        result_.proposer = proposer_->name();
        cand_ = broken.clone();
        config_ = config;
        // The borrowed verdict store, when given, is the L2 under the
        // memo.
        if (options.verdict_store) {
            memo_.setStore(options.verdict_store);
            difftest_campaign_ =
                difftestCampaignKey(oracle_, options.difftest_sample);
        }
    }

    SearchResult
    run()
    {
        SpanScope span(ctx_, "repair",
                       Budget::minutes(options_.budget_minutes));
        span_ = &span;
        while (!dead_end_ && !ctx_.shouldStop() &&
               result_.iterations < options_.max_iterations) {
            result_.iterations += 1;
            ctx_.count("search.candidates");

            if (options_.use_style_checker && !styleGate())
                continue;

            hls::CompileResult compiled = compileCandidate();
            if (compiled.tool_failure) {
                // Synthesis is permanently down: without compiles no
                // candidate can ever be validated, so abort gracefully
                // with whatever the search already proved.
                degrade("hls.compile",
                        "toolchain permanently failing; search aborted "
                        "with best-so-far candidate");
                break;
            }
            if (!compiled.ok) {
                if (!repairStep(compiled.errors)) {
                    if (!backtrack())
                        break; // dead end
                }
                continue;
            }

            DiffTestResult fitness = difftestCandidate();
            if (fitness.tool_failure) {
                acceptDegradedCosim();
                break;
            }
            note("difftest:" + std::to_string(fitness.identical) + "/" +
                 std::to_string(fitness.total));
            if (fitness.allIdentical()) {
                acceptSuccess(fitness);
                if (!performanceStep())
                    break; // no further performance edits to try
                continue;
            }
            if (!handleDivergence())
                break;
        }
        finalize();
        span_ = nullptr;
        return std::move(result_);
    }

  private:
    // --- accounting helpers ------------------------------------------------

    /** Minutes charged to the repair span so far (== the old local
     * sim_minutes accumulator bit for bit: same additions, same order,
     * starting from zero). */
    double
    minutes() const
    {
        return span_->minutes();
    }

    void
    note(std::string action)
    {
        result_.trace.push_back({result_.iterations, std::move(action),
                                 minutes()});
    }

    // --- memoized candidate evaluation ------------------------------------

    /**
     * Compile the candidate, answering identical revisits from the memo
     * (no toolchain invocation, no synthesis minutes) and cross-run
     * repeats from the verdict store. A disk hit is *replayed* as if
     * the toolchain ran — stored synthesis minutes charged,
     * full_hls_invocations advanced, the same trace action recorded —
     * so a warm run's SearchResult is bit-identical to a cold one;
     * only the actual-work counters (hls.compiles, hls.errors.*) stay
     * still. Remembers the fingerprint so difftestCandidate() reuses
     * it.
     */
    hls::CompileResult
    compileCandidate()
    {
        fingerprint_ = candidateFingerprint(cir::print(*cand_), config_);
        MemoLayer layer = MemoLayer::None;
        if (auto hit = memo_.findCompile(fingerprint_, &layer)) {
            if (layer == MemoLayer::Disk) {
                ctx_.charge(hit->synth_minutes);
                result_.full_hls_invocations += 1;
                note("compile:" + std::string(hit->ok ? "ok" : "errors"));
            } else {
                note("compile:memo-" +
                     std::string(hit->ok ? "ok" : "errors"));
            }
            return *hit;
        }
        hls::HlsToolchain tool(config_);
        hls::CompileResult compiled = tool.compile(ctx_, *cand_);
        if (compiled.tool_failure) {
            // The toolchain, not the candidate, failed: never memoize
            // (a revisit of this candidate deserves a fresh attempt).
            note("compile:tool-failure");
            return compiled;
        }
        result_.full_hls_invocations += 1;
        note("compile:" + std::string(compiled.ok ? "ok" : "errors"));
        memo_.storeCompile(fingerprint_, compiled);
        return compiled;
    }

    /**
     * Difftest the candidate, answering identical revisits from memo
     * and cross-run repeats from the verdict store. A within-run L1 hit
     * stays free (the campaign was already paid for this run, exactly
     * as before); a disk hit replays the stored simulated minutes.
     */
    DiffTestResult
    difftestCandidate()
    {
        MemoLayer layer = MemoLayer::None;
        if (auto hit = memo_.findDiffTest(fingerprint_, difftest_campaign_,
                                          &layer)) {
            if (layer == MemoLayer::Disk)
                ctx_.charge(hit->sim_minutes);
            return *hit;
        }
        DiffTestOptions dt;
        dt.max_tests = options_.difftest_sample;
        dt.pool = pool_;
        DiffTestResult fitness =
            diffTest(ctx_, oracle_, *cand_, config_, dt);
        if (!fitness.tool_failure)
            memo_.storeDiffTest(fingerprint_, fitness, difftest_campaign_);
        return fitness;
    }

    // --- style gate -----------------------------------------------------------

    /** Returns true when the candidate passed style checking. */
    bool
    styleGate()
    {
        style::StyleReport report = style::checkStyle(*cand_);
        result_.style_checks += 1;
        ctx_.count("search.style_checks");
        ctx_.charge(style::kCheckMinutes);
        if (report.clean())
            return true;
        result_.style_rejections += 1;
        ctx_.count("search.style_rejections");
        note("style-reject: " + report.issues.front().message);
        auto loc = localizeMessage(report.issues.front().message);
        ErrorCategory category =
            loc ? loc->category : ErrorCategory::DynamicDataStructures;
        std::string symbol = loc ? loc->symbol : "";
        if (!proposeRepair(category, symbol)) {
            if (!backtrack())
                dead_end_ = true;
        }
        return false;
    }

    // --- candidate proposal & application ----------------------------------

    /**
     * Ask the proposer for repair candidates and attempt every one of
     * them; true if an attempt was made. Feedback (applied / noop /
     * invalid) goes straight back through observe() so the proposer can
     * steer away from rewrites the judge keeps rejecting.
     */
    bool
    proposeRepair(ErrorCategory category, const std::string &symbol)
    {
        ProposalRequest request;
        request.phase = ProposalPhase::Repair;
        request.category = category;
        request.symbol = symbol;
        request.applied = &applied_;
        request.rng = &rng_;
        ctx_.count("search.proposer.calls");
        Proposal proposal = proposer_->propose(request);
        if (proposal.candidates.empty()) {
            ctx_.count("search.proposer.empty");
            return false;
        }
        bool attempted = false;
        for (const ProposedCandidate &candidate : proposal.candidates) {
            ctx_.count("search.proposer.candidates");
            AttemptOutcome outcome = applyCandidate(candidate, symbol);
            proposer_->observe({candidate.label, outcome});
            attempted = true;
        }
        return attempted;
    }

    /**
     * Apply one proposed candidate — a single template or a
     * whole-construct bundle — as an atomic unit under one backtracking
     * snapshot. The simulated clock is charged kEditMinutes per edit
     * concretized, exactly as the pre-seam search did.
     */
    AttemptOutcome
    applyCandidate(const ProposedCandidate &candidate,
                   const std::string &symbol)
    {
        Snapshot snap;
        snap.tu = cand_->clone();
        snap.config = config_;
        snap.applied = applied_;
        snap.edit_about_to_apply = candidate.label;

        int changed = 0;
        for (const EditTemplate *t : candidate.edits) {
            if (applied_.count(t->name))
                continue;
            RepairContext rctx{*cand_, config_, symbol, &profile_, &rng_,
                               !options_.use_dependence};
            bool did = t->apply(rctx);
            ctx_.charge(kEditMinutes);
            if (!did)
                continue;
            // Re-analyze: transforms introduce fresh nodes that need
            // unique ids (loop profiling keys on them) and this
            // validates the edit produced a well-formed program.
            cir::SemaResult sema = cir::analyze(*cand_);
            if (!sema.ok()) {
                cand_ = std::move(snap.tu);
                config_ = snap.config;
                applied_ = std::move(snap.applied);
                ctx_.count("search.invalid_edits");
                note("invalid-edit:" + candidate.label);
                return AttemptOutcome::Invalid;
            }
            changed += 1;
            applied_.insert(t->name);
            ctx_.count("search.edits_applied");
        }
        if (changed == 0) {
            ctx_.count("search.noop_edits");
            note("noop:" + candidate.label);
            return AttemptOutcome::Noop;
        }
        if (candidate.edits.size() > 1)
            ctx_.count("search.proposer.rewrites");
        note("edit:" + candidate.label);
        result_.applied_order.push_back(candidate.label);
        snapshots_.push_back(std::move(snap));
        if (snapshots_.size() > kMaxSnapshots)
            snapshots_.erase(snapshots_.begin());
        return AttemptOutcome::Applied;
    }

    // --- repair / fitness phases ------------------------------------------------------

    bool
    repairStep(const std::vector<hls::HlsError> &errors)
    {
        for (const hls::HlsError &error : errors) {
            RepairLocation loc = localize(error);
            if (proposeRepair(loc.category, loc.symbol))
                return true;
        }
        return false;
    }

    void
    acceptSuccess(const DiffTestResult &fitness)
    {
        if (!result_.hls_compatible)
            result_.minutes_to_success = minutes();
        result_.hls_compatible = true;
        result_.behavior_preserved = true;
        result_.pass_ratio = fitness.passRatio();
        bool better = !best_ || fitness.fpga_millis < best_fpga_;
        if (better) {
            best_ = cand_->clone();
            best_config_ = config_;
            best_fpga_ = fitness.fpga_millis;
            best_cpu_ = fitness.cpu_millis;
        }
        last_good_ = cand_->clone();
        last_good_config_ = config_;
        last_good_applied_ = applied_;
        resize_attempts_ = 0;
    }

    /** Record one permanent toolchain failure the search survives. */
    void
    degrade(const std::string &site, const std::string &consequence)
    {
        result_.degradations.push_back(site + ": " + consequence);
        ctx_.count("search.tool_failures");
        note("tool-failure:" + site);
    }

    /**
     * Co-simulation is permanently down: fitness can no longer be
     * measured, so downgrade to style-check + compile fitness. The
     * current candidate compiled cleanly (and, when the gate is on,
     * passed the style checker), so keep it as the best available
     * artifact — flagged, never claimed behaviour-preserving.
     */
    void
    acceptDegradedCosim()
    {
        degrade("difftest.cosim",
                "co-simulation permanently failing; candidate fitness "
                "downgraded to style-check + compile only");
        result_.cosim_degraded = true;
        ctx_.count("search.degraded_candidates");
        if (!best_) {
            result_.hls_compatible = true;
            best_ = cand_->clone();
            best_config_ = config_;
        }
    }

    /** Apply performance-improving edits; false when none applied.
     *
     * The proposer chooses the rewrites; dependences carried on the
     * candidates are re-checked here at apply time, so a batch proposal
     * computed up front still sequences correctly as earlier entries of
     * the same pass land (pipeline -> unroll -> partition -> dataflow).
     * A proposer may flag progress_on_attempt, making mere attempts
     * count as progress — the unguided baseline pays a compile for each
     * random guess this way. */
    bool
    performanceStep()
    {
        if (ctx_.shouldStop())
            return false;
        ProposalRequest request;
        request.phase = ProposalPhase::Performance;
        request.applied = &applied_;
        request.rng = &rng_;
        ctx_.count("search.proposer.calls");
        Proposal proposal = proposer_->propose(request);
        if (proposal.candidates.empty()) {
            ctx_.count("search.proposer.empty");
            return false;
        }
        bool any = false;
        for (const ProposedCandidate &candidate : proposal.candidates) {
            bool deps = true;
            for (const std::string &dep : candidate.requires_edits)
                deps &= applied_.count(dep) > 0;
            if (!deps)
                continue;
            ctx_.count("search.proposer.candidates");
            AttemptOutcome outcome = applyCandidate(candidate, "");
            proposer_->observe({candidate.label, outcome});
            any |= outcome == AttemptOutcome::Applied ||
                   proposal.progress_on_attempt;
        }
        return any;
    }

    /** Divergence after an error-free compile: resize, then backtrack. */
    bool
    handleDivergence()
    {
        if (resize_attempts_ < kMaxResizeAttempts) {
            RepairContext ctx{*cand_, config_, "", &profile_, &rng_,
                              !options_.use_dependence};
            if (xform::resizeGeneratedArrays(ctx)) {
                cir::analyze(*cand_);
                resize_attempts_ += 1;
                ctx_.charge(kEditMinutes);
                note("edit:resize($a1:arr)");
                if (!applied_.count("resize($a1:arr)")) {
                    applied_.insert("resize($a1:arr)");
                    result_.applied_order.push_back("resize($a1:arr)");
                }
                return true;
            }
        }
        return backtrack();
    }

    /** Undo the most recent edit and ban it; false when out of history. */
    bool
    backtrack()
    {
        if (last_good_ && resize_attempts_ >= kMaxResizeAttempts) {
            // Return to the last fully-working candidate.
            cand_ = last_good_->clone();
            config_ = last_good_config_;
            applied_ = last_good_applied_;
            resize_attempts_ = 0;
            if (!snapshots_.empty()) {
                proposer_->observe({snapshots_.back().edit_about_to_apply,
                                    AttemptOutcome::Reverted});
                snapshots_.pop_back();
            }
            ctx_.count("search.reverts");
            note("revert:last-good");
            return true;
        }
        if (snapshots_.empty())
            return false;
        Snapshot snap = std::move(snapshots_.back());
        snapshots_.pop_back();
        cand_ = std::move(snap.tu);
        config_ = snap.config;
        applied_ = std::move(snap.applied);
        proposer_->observe(
            {snap.edit_about_to_apply, AttemptOutcome::Reverted});
        ctx_.count("search.reverts");
        note("revert:" + snap.edit_about_to_apply);
        return true;
    }

    void
    finalize()
    {
        if (best_) {
            result_.program = std::move(best_);
            result_.config = best_config_;
            result_.fpga_ms = best_fpga_;
            result_.orig_cpu_ms = best_cpu_;
            result_.improved = best_fpga_ < best_cpu_;
        } else {
            result_.program = std::move(cand_);
            result_.config = config_;
        }
        result_.diff = diffLines(cir::print(oracle_.original()),
                                 cir::print(*result_.program));
        result_.sim_minutes = minutes();
        if (!result_.hls_compatible)
            result_.minutes_to_success = result_.sim_minutes;
    }

    RunContext &ctx_;
    /** Open for the duration of run(); null outside it. */
    SpanScope *span_ = nullptr;
    /** The original, its kernel and suite, and its CPU behaviour. */
    CpuOracle &oracle_;
    const interp::ValueProfile &profile_;
    SearchOptions options_;
    Rng rng_;
    /** Difftest fan-out (borrowed); null = inline. */
    WorkerPool *pool_;
    CandidateMemo memo_;
    /** Fingerprint of cand_ as of the last compileCandidate(). */
    std::string fingerprint_;
    /** difftestCampaignKey of this run's campaigns; "" = no store. */
    std::string difftest_campaign_;
    /** Where candidate rewrites come from (repair/proposer.h). */
    std::unique_ptr<CandidateProposer> proposer_;

    TuPtr cand_;
    hls::HlsConfig config_;
    std::set<std::string> applied_;
    std::vector<Snapshot> snapshots_;

    TuPtr best_;
    hls::HlsConfig best_config_;
    double best_fpga_ = 0;
    double best_cpu_ = 0;

    TuPtr last_good_;
    hls::HlsConfig last_good_config_;
    std::set<std::string> last_good_applied_;
    int resize_attempts_ = 0;
    bool dead_end_ = false;

    SearchResult result_;
};

} // namespace

SearchResult
repairSearch(RunContext &ctx, CpuOracle &oracle,
             const TranslationUnit &broken, const hls::HlsConfig &config,
             const interp::ValueProfile &profile,
             const SearchOptions &options, WorkerPool *pool)
{
    return Search(ctx, oracle, broken, config, profile, options, pool)
        .run();
}

} // namespace heterogen::repair

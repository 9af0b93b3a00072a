/**
 * @file
 * The candidate-proposer seam of the repair search.
 *
 * The search loop (search.cc) owns the judge side of repair: the style
 * gate, the simulated toolchain, the fitness oracle, the memo cache,
 * backtracking and the simulated-minute budget. What it does NOT own is
 * where candidate rewrites come from — that is a `CandidateProposer`.
 * The post-2022 C-to-HLS literature (C2HLSC, the Evidence-Driven LLM
 * Agent, LAAFD) frames repair as exactly this agent loop: any proposer
 * emits candidate rewrites, the toolchain judges them. Behind this seam
 * Table-2 template enumeration, corpus-mined whole-construct rewrites,
 * and future LLM-style proposers compete under identical budgets,
 * memoization and fault-injection rules (see docs/REPAIR.md).
 *
 * Contract highlights (docs/REPAIR.md has the full statement):
 *  - propose() must be deterministic given (request, observe history,
 *    draws taken from request.rng). Proposers never consult wall-clock
 *    time, host thread counts or any other ambient state.
 *  - Candidates are returned best-first; the search attempts all of
 *    them, in order, before re-judging the program.
 *  - The search reports every attempt back through observe(), so a
 *    proposer can retire rewrites that keep failing (the feedback loop
 *    the agent papers build around toolchain error messages).
 *  - Proposers only *choose* rewrites. Evaluation — and therefore the
 *    memo cache and the never-memoize-tool-failures rule — stays in
 *    the search, so no proposer can leak a toolchain failure into a
 *    cached verdict.
 */

#ifndef HETEROGEN_REPAIR_PROPOSER_H
#define HETEROGEN_REPAIR_PROPOSER_H

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hls/errors.h"
#include "repair/edit.h"

namespace heterogen::repair {

/** Which phase of the search is asking for candidates. */
enum class ProposalPhase
{
    /** The candidate still has HLS errors (or a style rejection): the
     * request carries the localized category and symbol. */
    Repair,
    /** The candidate passed every test: propose performance rewrites. */
    Performance,
};

/** Everything a proposer may consult when choosing candidates. */
struct ProposalRequest
{
    ProposalPhase phase = ProposalPhase::Repair;
    /** Localized error category (Repair phase). */
    hls::ErrorCategory category =
        hls::ErrorCategory::DynamicDataStructures;
    /** Offending symbol from localization (may be empty). */
    std::string symbol;
    /** Edit names already applied to the candidate (never null). */
    const std::set<std::string> *applied = nullptr;
    /** The search's seeded generator: the only legal randomness. */
    Rng *rng = nullptr;
};

/**
 * One proposed rewrite: an ordered bundle of edit templates applied as
 * a unit. Template enumeration proposes single-edit bundles; the corpus
 * proposer emits whole-construct rewrites of several dependence-ordered
 * edits that the search applies, validates and — on divergence —
 * reverts atomically.
 */
struct ProposedCandidate
{
    /** Trace/applied-order label; equals the template name for
     * single-edit bundles, "corpus:<recipe>" for mined rewrites. */
    std::string label;
    /** Templates to apply in order (already-applied names are skipped). */
    std::vector<const EditTemplate *> edits;
    /**
     * Edit names that must be in the applied set at apply time; the
     * search re-checks them so a batch proposal computed before its
     * predecessors ran still sequences correctly (the dependence-guided
     * performance pass relies on this).
     */
    std::vector<std::string> requires_edits;
};

/** propose() result: candidates plus loop-progress semantics. */
struct Proposal
{
    /** Best-first; the search attempts every entry in order. */
    std::vector<ProposedCandidate> candidates;
    /**
     * Performance phase only: when true, a mere attempt counts as
     * progress and the search keeps iterating even if nothing changed
     * (the WithoutDependence baseline pays for its unguided guesses
     * this way). When false the phase ends once no candidate applies.
     */
    bool progress_on_attempt = false;
};

/** What happened to one proposed candidate. */
enum class AttemptOutcome
{
    /** Changed the program/config and passed re-analysis. */
    Applied,
    /** No template in the bundle matched the candidate. */
    Noop,
    /** The rewrite produced an ill-formed program; it was undone. */
    Invalid,
    /** Backtracking undid the rewrite after downstream failure. */
    Reverted,
};

/** Feedback the search reports after acting on a candidate. */
struct AttemptFeedback
{
    /** ProposedCandidate::label of the attempt. */
    std::string label;
    AttemptOutcome outcome = AttemptOutcome::Applied;
};

/** Configuration every built-in proposer honours. */
struct ProposerConfig
{
    /** Dependence-ordered enumeration vs random order (§5.3). */
    bool use_dependence = true;
    /** When non-empty, only these edit names may be proposed. */
    std::set<std::string> allowed_edits;
};

/**
 * A source of candidate rewrites for the repair search.
 *
 * Implementations must be deterministic (see the file comment) and may
 * keep internal strategy state (noop counts, retired recipes) fed by
 * observe(). They must NOT touch the toolchain, the memo cache or the
 * simulated clock — proposing is free by definition; the search
 * charges for applying and judging.
 */
class CandidateProposer
{
  public:
    virtual ~CandidateProposer() = default;

    /** Stable name ("template", "corpus", ...). */
    virtual std::string name() const = 0;

    /** Emit candidate rewrites for the current search state. */
    virtual Proposal propose(const ProposalRequest &request) = 0;

    /** Outcome feedback for a previously proposed candidate. The
     * search also reports Reverted for rewrites undone by backtracking
     * — a proposer should stop re-proposing those. */
    virtual void observe(const AttemptFeedback & /*feedback*/) {}
};

/** Known proposer names, in factory order: template, corpus. */
const std::vector<std::string> &proposerNames();

/**
 * "" when `name` is one of proposerNames() (names are exact: no
 * trimming, no case folding); otherwise an "unknown proposer"
 * diagnostic listing the known names. core::validateOptions and
 * makeProposer reject names this check fails.
 */
std::string proposerError(const std::string &name);

/**
 * Construct a proposer by name. Fatal on unknown names — callers that
 * accept user input should have gone through validateOptions first.
 */
std::unique_ptr<CandidateProposer>
makeProposer(const std::string &name, const ProposerConfig &config);

} // namespace heterogen::repair

#endif // HETEROGEN_REPAIR_PROPOSER_H

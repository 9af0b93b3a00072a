/** @file The built-in template proposer — Table-2 template enumeration
 * (the paper's §5.3 search, re-expressed behind the seam) — and the
 * proposer factory. */

#include "repair/proposer.h"

#include <algorithm>
#include <map>

#include "repair/corpus.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace heterogen::repair {

namespace {

/** Guided mode sets a template aside after this many failed matches so
 * a deterministic front-of-pool no-op cannot stall the search (the
 * random baseline keeps drawing them — wasted attempts are exactly
 * what it pays for lacking guidance). */
constexpr int kMaxNoops = 3;

/**
 * The paper's search strategy as a proposer: dependence-ordered
 * enumeration of the Table-2 edit templates (or the WithoutDependence
 * random draw), one single-edit candidate per repair request, and the
 * one-pass batch of dependence-ready pragma templates per performance
 * request. Byte-identical to the pre-seam search — the golden-trace
 * tests pin this.
 */
class TemplateProposer : public CandidateProposer
{
  public:
    explicit TemplateProposer(ProposerConfig config)
        : config_(std::move(config))
    {
    }

    std::string name() const override { return "template"; }

    Proposal
    propose(const ProposalRequest &request) override
    {
        return request.phase == ProposalPhase::Performance
                   ? proposePerformance(request)
                   : proposeRepair(request);
    }

    void
    observe(const AttemptFeedback &feedback) override
    {
        switch (feedback.outcome) {
          case AttemptOutcome::Noop:
            noop_counts_[feedback.label] += 1;
            break;
          case AttemptOutcome::Invalid:
          case AttemptOutcome::Reverted:
            banned_.insert(feedback.label);
            break;
          case AttemptOutcome::Applied:
            break;
        }
    }

  private:
    bool
    allowed(const EditTemplate &t) const
    {
        if (!config_.allowed_edits.empty() &&
            !config_.allowed_edits.count(t.name)) {
            return false;
        }
        if (banned_.count(t.name))
            return false;
        if (config_.use_dependence) {
            auto it = noop_counts_.find(t.name);
            return it == noop_counts_.end() || it->second < kMaxNoops;
        }
        return true;
    }

    Proposal
    proposeRepair(const ProposalRequest &request)
    {
        Proposal out;
        const EditRegistry &registry = EditRegistry::instance();
        std::vector<const EditTemplate *> pool;
        if (config_.use_dependence) {
            for (const EditTemplate *t :
                 registry.applicable(request.category, *request.applied)) {
                if (allowed(*t))
                    pool.push_back(t);
            }
        } else {
            // Unguided baseline: any not-yet-applied template from any
            // category, in random order with random parameters — the
            // paper's WithoutDependence behaviour.
            for (const EditTemplate &t : registry.all()) {
                if (!request.applied->count(t.name) && allowed(t))
                    pool.push_back(&t);
            }
        }
        if (pool.empty())
            return out;
        const EditTemplate *chosen =
            config_.use_dependence ? pool.front()
                                   : pool[request.rng->pickIndex(pool)];
        out.candidates.push_back({chosen->name, {chosen}, {}});
        return out;
    }

    /**
     * Guided mode proposes every dependence-ready performance template
     * in one batch (one toolchain invocation validates them together);
     * dependences are carried on the candidates so templates enabled
     * by earlier entries of the same batch still sequence correctly.
     * The random baseline proposes one random pick per request, paying
     * a compile for each guess.
     */
    Proposal
    proposePerformance(const ProposalRequest &request)
    {
        Proposal out;
        const EditRegistry &registry = EditRegistry::instance();
        if (!config_.use_dependence) {
            std::vector<const EditTemplate *> pool;
            for (const EditTemplate &t : registry.all()) {
                if (t.performance_improving &&
                    !request.applied->count(t.name) && allowed(t)) {
                    pool.push_back(&t);
                }
            }
            if (pool.empty())
                return out;
            const EditTemplate *chosen =
                pool[request.rng->pickIndex(pool)];
            out.candidates.push_back({chosen->name, {chosen}, {}});
            out.progress_on_attempt = true;
            return out;
        }
        for (const EditTemplate &t : registry.all()) {
            if (!t.performance_improving ||
                request.applied->count(t.name) || !allowed(t)) {
                continue;
            }
            out.candidates.push_back(
                {t.name, {&t}, t.requires_edits});
        }
        return out;
    }

    ProposerConfig config_;
    std::set<std::string> banned_;
    std::map<std::string, int> noop_counts_;
};

} // namespace

const std::vector<std::string> &
proposerNames()
{
    static const std::vector<std::string> names = {"template", "corpus"};
    return names;
}

std::string
proposerError(const std::string &name)
{
    const std::vector<std::string> &names = proposerNames();
    if (std::find(names.begin(), names.end(), name) != names.end())
        return "";
    return "unknown proposer '" + name + "' (expected one of: " +
           join(names, ", ") + ")";
}

std::unique_ptr<CandidateProposer>
makeProposer(const std::string &name, const ProposerConfig &config)
{
    std::string err = proposerError(name);
    if (!err.empty())
        fatal("repair: ", err);
    if (name == "corpus")
        return makeCorpusProposer(config);
    return std::make_unique<TemplateProposer>(config);
}

} // namespace heterogen::repair

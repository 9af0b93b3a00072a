#include "repair/memo.h"

#include "repair/store.h"
#include "support/run_context.h"

namespace heterogen::repair {

template <typename T, typename Disk>
std::optional<T>
CandidateMemo::find(std::optional<T> Entry::*slot, const char *kind,
                    const std::string &fingerprint, MemoLayer *layer,
                    Disk disk)
{
    const std::string counter = std::string("repair.memo.") + kind;
    auto it = entries_.find(fingerprint);
    if (it != entries_.end() && it->second.*slot) {
        ctx_.count(counter + "_hits");
        if (layer)
            *layer = MemoLayer::Memory;
        return it->second.*slot;
    }
    ctx_.count(counter + "_misses");
    std::optional<T> found = store_ ? disk() : std::nullopt;
    if (found)
        entries_[fingerprint].*slot = found;
    if (layer)
        *layer = found ? MemoLayer::Disk : MemoLayer::None;
    return found;
}

std::optional<hls::CompileResult>
CandidateMemo::findCompile(const std::string &fingerprint,
                           MemoLayer *layer)
{
    return find(&Entry::compile, "compile", fingerprint, layer, [&] {
        return store_->findCompile(ctx_, fingerprint);
    });
}

void
CandidateMemo::storeCompile(const std::string &fingerprint,
                            const hls::CompileResult &result)
{
    entries_[fingerprint].compile = result;
    if (store_)
        store_->storeCompile(ctx_, fingerprint, result);
}

std::optional<DiffTestResult>
CandidateMemo::findDiffTest(const std::string &fingerprint,
                            const std::string &campaign,
                            MemoLayer *layer)
{
    return find(&Entry::difftest, "difftest", fingerprint, layer,
                [&]() -> std::optional<DiffTestResult> {
                    if (campaign.empty())
                        return std::nullopt;
                    return store_->findDiffTest(ctx_, fingerprint,
                                                campaign);
                });
}

void
CandidateMemo::storeDiffTest(const std::string &fingerprint,
                             const DiffTestResult &result,
                             const std::string &campaign)
{
    entries_[fingerprint].difftest = result;
    if (store_ && !campaign.empty())
        store_->storeDiffTest(ctx_, fingerprint, campaign, result);
}

} // namespace heterogen::repair

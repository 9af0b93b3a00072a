#include "repair/memo.h"

#include "repair/store.h"
#include "support/run_context.h"

namespace heterogen::repair {

void
CandidateMemo::count(int MemoStats::*field, const char *trace_key)
{
    stats_.*field += 1;
    if (ctx_)
        ctx_->count(trace_key);
}

std::optional<hls::CompileResult>
CandidateMemo::findCompile(const std::string &fingerprint,
                           MemoLayer *layer)
{
    auto it = entries_.find(fingerprint);
    if (it != entries_.end() && it->second.compile) {
        count(&MemoStats::compile_hits, "repair.memo.compile_hits");
        if (layer)
            *layer = MemoLayer::Memory;
        return it->second.compile;
    }
    count(&MemoStats::compile_misses, "repair.memo.compile_misses");
    if (store_) {
        std::optional<hls::CompileResult> disk =
            store_->findCompile(ctx_, fingerprint);
        if (disk) {
            entries_[fingerprint].compile = disk;
            if (layer)
                *layer = MemoLayer::Disk;
            return disk;
        }
    }
    if (layer)
        *layer = MemoLayer::None;
    return std::nullopt;
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
    auto it = entries_.find(fingerprint);
    if (it != entries_.end() && it->second.difftest) {
        count(&MemoStats::difftest_hits, "repair.memo.difftest_hits");
        if (layer)
            *layer = MemoLayer::Memory;
        return it->second.difftest;
    }
    count(&MemoStats::difftest_misses, "repair.memo.difftest_misses");
    if (store_ && !campaign.empty()) {
        std::optional<DiffTestResult> disk =
            store_->findDiffTest(ctx_, fingerprint, campaign);
        if (disk) {
            entries_[fingerprint].difftest = disk;
            if (layer)
                *layer = MemoLayer::Disk;
            return disk;
        }
    }
    if (layer)
        *layer = MemoLayer::None;
    return std::nullopt;
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

void
CandidateMemo::clear()
{
    entries_.clear();
    stats_ = MemoStats{};
}

} // namespace heterogen::repair

/**
 * @file
 * Branch-coverage accounting, the fuzzer's feedback signal.
 */

#ifndef HETEROGEN_INTERP_COVERAGE_H
#define HETEROGEN_INTERP_COVERAGE_H

#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace heterogen::interp {

/**
 * Tracks which (branch id, outcome) edges executed, plus AFL-style
 * hit-count buckets per edge. A program with B branch points has 2*B
 * edges; coverage() is distinct edges over that denominator, while
 * novelty (coversNew) also counts a previously-unseen hit-count bucket —
 * so inputs driving loops to new iteration magnitudes are retained even
 * when they add no new edge.
 *
 * Sema assigns dense branch ids, so the hot record() path indexes flat
 * vectors by edge (branch_id * 2 + taken); the set-flavoured views the
 * fuzzer's novelty/merge logic wants are derived on the cold paths.
 */
class CoverageMap
{
  public:
    CoverageMap() = default;
    explicit CoverageMap(int num_branches) : num_branches_(num_branches) {}

    void
    record(int branch_id, bool taken)
    {
        if (branch_id < 0)
            return;
        size_t edge = static_cast<size_t>(branch_id) * 2 + (taken ? 1 : 0);
        if (edge >= counts_.size())
            counts_.resize(edge + 1, 0);
        if (counts_[edge] == 0)
            ++distinct_counted_;
        counts_[edge] += 1;
    }

    /** Merge another map's edges and buckets; true if anything was new. */
    bool
    merge(const CoverageMap &other)
    {
        bool grew = false;
        for (size_t edge = 0; edge < other.counts_.size(); ++edge) {
            if (other.counts_[edge] != 0)
                grew |= markHit(edge);
        }
        for (size_t edge : other.merged_hits_)
            grew |= markHit(edge);
        for (const auto &b : other.bucketSet())
            grew |= buckets_.insert(b).second;
        return grew;
    }

    /**
     * Fold another map in preserving raw per-edge counts — equivalent
     * to having recorded the other map's edges directly here. The
     * differential runner uses this to forward a private run's
     * coverage into a caller sink bit-identically.
     */
    void
    absorb(const CoverageMap &other)
    {
        if (other.counts_.size() > counts_.size())
            counts_.resize(other.counts_.size(), 0);
        for (size_t edge = 0; edge < other.counts_.size(); ++edge) {
            if (other.counts_[edge] == 0)
                continue;
            if (counts_[edge] == 0)
                ++distinct_counted_;
            counts_[edge] += other.counts_[edge];
        }
        for (size_t edge : other.merged_hits_)
            markHit(edge);
        for (const auto &b : other.buckets_)
            buckets_.insert(b);
    }

    /** Exact state equality (edges, raw counts and merged buckets). */
    bool
    operator==(const CoverageMap &other) const
    {
        size_t n = counts_.size() > other.counts_.size()
                       ? counts_.size()
                       : other.counts_.size();
        for (size_t edge = 0; edge < n; ++edge) {
            if (countAt(edge) != other.countAt(edge))
                return false;
        }
        return merged_hits_ == other.merged_hits_ &&
               buckets_ == other.buckets_;
    }

    /** True if `other` covers a new edge or a new hit-count bucket. */
    bool
    coversNew(const CoverageMap &other) const
    {
        for (size_t edge = 0; edge < other.counts_.size(); ++edge) {
            if (other.counts_[edge] != 0 && !covers(edge))
                return true;
        }
        for (size_t edge : other.merged_hits_) {
            if (!covers(edge))
                return true;
        }
        for (const auto &b : other.bucketSet()) {
            if (!buckets_.count(b))
                return true;
        }
        return false;
    }

    size_t
    hitCount() const
    {
        size_t merged_only = 0;
        for (size_t edge : merged_hits_) {
            if (countAt(edge) == 0)
                ++merged_only;
        }
        return distinct_counted_ + merged_only;
    }

    int numBranches() const { return num_branches_; }
    void setNumBranches(int n) { num_branches_ = n; }

    /** Fraction of branch edges covered in [0,1]; 1 when no branches. */
    double
    coverage() const
    {
        if (num_branches_ <= 0)
            return 1.0;
        return static_cast<double>(hitCount()) / (2.0 * num_branches_);
    }

    /** The whole state of a map, for persistence (repair/store.cc). */
    struct State
    {
        int num_branches = 0;
        std::vector<uint64_t> counts;
        std::set<size_t> merged_hits;
        std::set<std::tuple<int, bool, int>> buckets;
    };

    State
    state() const
    {
        return {num_branches_, counts_, merged_hits_, buckets_};
    }

    /** The map whose state() is `state`. */
    static CoverageMap
    fromState(State state)
    {
        CoverageMap map(state.num_branches);
        map.counts_ = std::move(state.counts);
        for (uint64_t count : map.counts_)
            map.distinct_counted_ += count != 0;
        map.merged_hits_ = std::move(state.merged_hits);
        map.buckets_ = std::move(state.buckets);
        return map;
    }

    void
    clear()
    {
        counts_.clear();
        distinct_counted_ = 0;
        merged_hits_.clear();
        buckets_.clear();
    }

  private:
    uint64_t
    countAt(size_t edge) const
    {
        return edge < counts_.size() ? counts_[edge] : 0;
    }

    bool
    covers(size_t edge) const
    {
        return countAt(edge) != 0 || merged_hits_.count(edge) != 0;
    }

    /** Record a merged-in edge without a raw count; true if new. */
    bool
    markHit(size_t edge)
    {
        if (countAt(edge) != 0)
            return false;
        return merged_hits_.insert(edge).second;
    }

    /** AFL's power-of-two hit-count bucketing. */
    static int
    bucketOf(uint64_t count)
    {
        if (count <= 3)
            return static_cast<int>(count);
        int b = 4;
        uint64_t limit = 8;
        while (count >= limit && b < 12) {
            ++b;
            limit <<= 1;
        }
        return b;
    }

    /** Buckets derived from per-run counts, merged with stored ones. */
    std::set<std::tuple<int, bool, int>>
    bucketSet() const
    {
        std::set<std::tuple<int, bool, int>> out = buckets_;
        for (size_t edge = 0; edge < counts_.size(); ++edge) {
            if (counts_[edge] != 0) {
                out.insert({static_cast<int>(edge / 2), edge % 2 == 1,
                            bucketOf(counts_[edge])});
            }
        }
        return out;
    }

    /** Raw execution count per edge, indexed branch_id * 2 + taken. */
    std::vector<uint64_t> counts_;
    /** Number of non-zero entries in counts_. */
    size_t distinct_counted_ = 0;
    /** Edges merged in from other maps without a raw count. */
    std::set<size_t> merged_hits_;
    /** Hit-count buckets merged in from other maps. */
    std::set<std::tuple<int, bool, int>> buckets_;
    int num_branches_ = 0;
};

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_COVERAGE_H

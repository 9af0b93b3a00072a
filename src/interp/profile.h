/**
 * @file
 * Value-range profiling for HLS bitwidth estimation.
 *
 * HeteroGen runs the original program under generated tests and records,
 * per variable, the extreme values observed; the initial HLS version then
 * narrows declared C types to fpga_int/fpga_uint/fpga_float widths.
 */

#ifndef HETEROGEN_INTERP_PROFILE_H
#define HETEROGEN_INTERP_PROFILE_H

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace heterogen::interp {

/** Observed dynamic range of one variable. */
struct ValueRange
{
    long min_int = 0;
    long max_int = 0;
    double max_abs_float = 0;
    bool saw_int = false;
    bool saw_float = false;

    void
    noteInt(long v)
    {
        if (!saw_int) {
            min_int = max_int = v;
            saw_int = true;
        } else {
            min_int = std::min(min_int, v);
            max_int = std::max(max_int, v);
        }
    }

    void
    noteFloat(double v)
    {
        max_abs_float = std::max(max_abs_float, std::fabs(v));
        saw_float = true;
    }

    /** Smallest signed bit width covering [min_int, max_int]. */
    int
    requiredSignedBits() const
    {
        long lo = std::min(min_int, -1L);
        long hi = std::max(max_int, 0L);
        int bits = 1;
        while (bits < 64) {
            long top = (1L << (bits - 1)) - 1;
            long bottom = -(1L << (bits - 1));
            if (lo >= bottom && hi <= top)
                return bits;
            ++bits;
        }
        return 64;
    }

    /** Smallest unsigned bit width covering max_int (valid when min>=0). */
    int
    requiredUnsignedBits() const
    {
        long hi = std::max(max_int, 1L);
        int bits = 1;
        while (bits < 64 && (hi >> bits) != 0)
            ++bits;
        return bits;
    }

    bool nonNegative() const { return saw_int && min_int >= 0; }

    bool operator==(const ValueRange &other) const = default;
};

/**
 * Profile store keyed by "function::variable".
 */
class ValueProfile
{
  public:
    void
    note(const std::string &key, long v)
    {
        ranges_[key].noteInt(v);
    }

    void
    noteFloat(const std::string &key, double v)
    {
        ranges_[key].noteFloat(v);
    }

    const ValueRange *
    find(const std::string &key) const
    {
        auto it = ranges_.find(key);
        return it == ranges_.end() ? nullptr : &it->second;
    }

    const std::map<std::string, ValueRange> &ranges() const
    {
        return ranges_;
    }

    bool
    operator==(const ValueProfile &other) const
    {
        return ranges_ == other.ranges_;
    }

    void
    merge(const ValueProfile &other)
    {
        for (const auto &[key, r] : other.ranges_)
            mergeRange(key, r);
    }

    /**
     * Fold one variable's range in, as if its extreme values had been
     * noted here (min, max and max-abs do not depend on note order).
     */
    void
    mergeRange(const std::string &key, const ValueRange &r)
    {
        ValueRange &mine = ranges_[key];
        if (r.saw_int) {
            mine.noteInt(r.min_int);
            mine.noteInt(r.max_int);
        }
        if (r.saw_float)
            mine.noteFloat(r.max_abs_float);
    }

  private:
    std::map<std::string, ValueRange> ranges_;
};

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_PROFILE_H

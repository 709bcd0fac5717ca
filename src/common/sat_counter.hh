/**
 * @file
 * Saturating counter, the workhorse of predictors and of the paper's
 * Critical Count Tables (Section 3.2), which pair two counters of
 * different lengths per tracked load/branch.
 */

#ifndef CDFSIM_COMMON_SAT_COUNTER_HH
#define CDFSIM_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace cdfsim
{

/**
 * An n-bit up/down saturating counter.
 *
 * The counter saturates at [0, 2^bits - 1]. The paper's Critical
 * Count Tables use two of these with different widths to realise a
 * strict and a permissive criticality threshold.
 */
class SatCounter
{
  public:
    /**
     * @param bits Counter width in bits (1..16).
     * @param initial Initial value, clamped to the max.
     */
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : maxVal_((1u << bits) - 1),
          value_(initial > maxVal_ ? maxVal_ : initial)
    {
        SIM_ASSERT(bits >= 1 && bits <= 16, "bad SatCounter width");
    }

    /** Increment, saturating at the maximum. */
    void
    increment(unsigned by = 1)
    {
        value_ = (value_ + by > maxVal_) ? maxVal_ : value_ + by;
    }

    /** Decrement, saturating at zero. */
    void
    decrement(unsigned by = 1)
    {
        value_ = (by > value_) ? 0 : value_ - by;
    }

    /** Current counter value. */
    unsigned value() const { return value_; }

    /** Maximum representable value. */
    unsigned maxValue() const { return maxVal_; }

    /** True when the counter is in its upper half (weak/strong taken). */
    bool isSet() const { return value_ > maxVal_ / 2; }

    /** True when saturated at the maximum. */
    bool isSaturated() const { return value_ == maxVal_; }

    /** Reset to an explicit value (clamped). */
    void
    set(unsigned v)
    {
        value_ = v > maxVal_ ? maxVal_ : v;
    }

    /** Reset to zero. */
    void reset() { value_ = 0; }

    /** Field list: the value (the width is config-fixed). */
    template <class Self, class Ar>
    static void
    snapFields(Self &self, Ar &ar)
    {
        ar.io(self.value_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    unsigned maxVal_;
    unsigned value_;
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_SAT_COUNTER_HH

/**
 * @file
 * Sorted ring buffer over completion *cycles*: the one structure
 * behind the memory system's two every-cycle questions, "how many
 * misses are still in flight at now" and "when does the next one
 * complete".
 *
 *  - The MSHR file of each cache level: backpressure reads the
 *    earliest in-flight completion after pruning to "now".
 *  - The hierarchy's outstanding DRAM miss counters: the MLP sample
 *    reads size() after pruning to "now", and the idle-skip bound
 *    reads earliest().
 *
 * O(1) prune-from-head and O(1) earliest lookup. The ring grows on
 * demand (DRAM completion times drift arbitrarily far ahead under
 * bank queueing), so it imposes no semantic cap.
 */

#ifndef CDFSIM_COMMON_CYCLE_RING_HH
#define CDFSIM_COMMON_CYCLE_RING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim
{

/**
 * Sorted ring of cycle values with head-side removal.
 *
 * Invariant: the live entries, read from head to tail, are
 * non-decreasing. push() inserts from the tail with a backward
 * shift; completion times arrive nearly in order, so the shift is
 * almost always empty. Capacity doubles when full.
 */
class MonotonicCycleRing
{
  public:
    explicit MonotonicCycleRing(std::size_t capacityHint = 16)
    {
        buf_.resize(std::bit_ceil(capacityHint < 2 ? std::size_t{2}
                                                   : capacityHint));
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Smallest live cycle. Requires a non-empty ring. */
    Cycle
    earliest() const
    {
        SIM_ASSERT(count_ > 0, "earliest() on empty cycle ring");
        return buf_[head_ & (buf_.size() - 1)];
    }

    /** earliest(), or kNeverCycle when the ring is empty. */
    Cycle
    earliestOrNever() const
    {
        return count_ == 0 ? kNeverCycle : earliest();
    }

    /** Drop every entry with cycle <= @p now. */
    void
    pruneUpTo(Cycle now)
    {
        const std::size_t mask = buf_.size() - 1;
        while (count_ > 0 && buf_[head_ & mask] <= now) {
            ++head_;
            --count_;
        }
        // Prune boundary: whatever survives is strictly in the
        // future, or the ring is empty.
        SIM_AUDIT(count_ == 0 || buf_[head_ & mask] > now,
                  "cycle ring kept an expired entry past pruneUpTo(",
                  now, ")");
    }

    /** Insert @p c, keeping the ring sorted. */
    void
    push(Cycle c)
    {
        if (count_ == buf_.size())
            grow();
        const std::size_t mask = buf_.size() - 1;
        std::size_t i = count_;
        while (i > 0 && buf_[(head_ + i - 1) & mask] > c) {
            buf_[(head_ + i) & mask] = buf_[(head_ + i - 1) & mask];
            --i;
        }
        buf_[(head_ + i) & mask] = c;
        ++count_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    std::size_t capacity() const { return buf_.size(); }

    /**
     * Field list: the buffer verbatim — capacity included, because
     * capacity grows on demand and determines when future pushes
     * reshuffle the ring (head_ resets on grow), which a re-snapshot
     * of the restored ring must reproduce.
     */
    template <class Self, class Ar>
    static void
    snapFields(Self &self, Ar &ar)
    {
        ar.len64(self.buf_);
        ar.io(self.head_, self.count_);
        SIM_ASSERT(self.count_ <= self.buf_.size(),
                   "snapshot cycle ring count exceeds capacity");
        for (auto &c : self.buf_)
            ar.io(c);
    }

    /**
     * Monotonicity walk: the live entries read head to tail must be
     * non-decreasing (earliest() and the prune loop both depend on
     * it), and the live count must fit the buffer. O(size); sampled
     * from push() in Audit builds.
     */
    void auditInvariants() const
    {
        SIM_ASSERT(count_ <= buf_.size(),
                   "cycle ring holds more entries than its buffer");
        const std::size_t mask = buf_.size() - 1;
        for (std::size_t i = 1; i < count_; ++i) {
            SIM_ASSERT(buf_[(head_ + i - 1) & mask] <=
                           buf_[(head_ + i) & mask],
                       "cycle ring lost sort order at live index ", i);
        }
    }

  private:
    friend struct AuditPeer;

    void
    grow()
    {
        std::vector<Cycle> bigger(buf_.size() * 2);
        const std::size_t mask = buf_.size() - 1;
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = buf_[(head_ + i) & mask];
        buf_ = std::move(bigger);
        head_ = 0;
    }

    SIM_SNAPSHOT_FIELDS(4);

    std::vector<Cycle> buf_;
    std::size_t head_ = 0; //!< free-running; index is head_ & mask
    std::size_t count_ = 0;
    AuditSampler auditTick_{1024};
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_CYCLE_RING_HH

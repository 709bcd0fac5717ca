/**
 * @file
 * Partitioned load and store queues with timestamp-based memory
 * disambiguation (paper Section 3.5, "Memory Disambiguation").
 *
 * Each queue is a SectionedQueue; disambiguation searches both of
 * its sections and compares timestamps.
 */

#ifndef CDFSIM_OOO_LSQ_HH
#define CDFSIM_OOO_LSQ_HH

#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"
#include "ooo/sectioned_queue.hh"

namespace cdfsim::ooo
{

/** Load + store queues with the disambiguation searches. */
class Lsq
{
  public:
    Lsq(unsigned lqSize, unsigned sqSize) : lq_(lqSize), sq_(sqSize) {}

    SectionedQueue &lq() { return lq_; }
    SectionedQueue &sq() { return sq_; }
    const SectionedQueue &lq() const { return lq_; }
    const SectionedQueue &sq() const { return sq_; }

    /**
     * Store-to-load forwarding search for @p load (whose address is
     * known): the youngest older store to the same word.
     *
     * @return the store, or nullptr. @p blockedOnUnknownAddr is set
     * when an older store with an unresolved address exists — the
     * caller decides whether to speculate past it.
     */
    DynInst *
    forwardingStore(const DynInst *load, bool *olderUnknownAddr) const
    {
        DynInst *best = nullptr;
        bool unknown = false;
        sq_.forEach([&](DynInst *st) {
            if (st->ts >= load->ts)
                return;
            if (!st->addrKnown) {
                unknown = true;
                return;
            }
            if (st->memWord() != load->memWord())
                return;
            if (!best || st->ts > best->ts)
                best = st;
        });
        if (olderUnknownAddr)
            *olderUnknownAddr = unknown;
        return best;
    }

    /**
     * Ordering-violation search when @p store resolves its address:
     * the OLDEST younger load on the same word that already executed
     * and did not forward from this store or a younger one.
     */
    DynInst *
    violatingLoad(const DynInst *store) const
    {
        DynInst *worst = nullptr;
        lq_.forEach([&](DynInst *ld) {
            if (ld->ts <= store->ts || !ld->addrKnown)
                return;
            if (ld->state != InstState::Issued &&
                ld->state != InstState::Completed)
                return;
            if (ld->memWord() != store->memWord())
                return;
            if (ld->forwardSrcTs >= store->ts)
                return; // got its data from this store or younger
            if (!worst || ld->ts < worst->ts)
                worst = ld;
        });
        return worst;
    }

    /**
     * Age-order + kind walk: both queues pass their section walks,
     * every LQ entry is a load, and every SQ entry is a store.
     * Always compiled; sampled from the retire stage in Audit
     * builds (Core::auditLsqRobAge adds the cross-checks against
     * the ROB and the instruction pool).
     */
    void
    auditAgeOrder() const
    {
        lq_.auditAgeOrder("LQ");
        sq_.auditAgeOrder("SQ");
        lq_.forEach([](DynInst *inst) {
            SIM_ASSERT(inst->isLoad(), "non-load in the LQ");
        });
        sq_.forEach([](DynInst *inst) {
            SIM_ASSERT(inst->isStore(), "non-store in the SQ");
        });
    }

    /** Field list: both queues (passing the pointer codec on). */
    template <class Self, class Ar, class Each>
    static void
    snapFields(Self &self, Ar &ar, Each each)
    {
        ar.each(self.lq_, each);
        ar.each(self.sq_, each);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    SectionedQueue lq_;
    SectionedQueue sq_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_LSQ_HH

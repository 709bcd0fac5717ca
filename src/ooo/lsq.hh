/**
 * @file
 * Partitioned load and store queues with timestamp-based memory
 * disambiguation (paper Section 3.5, "Memory Disambiguation").
 *
 * Entries within each section are in program order; disambiguation
 * searches both sections and compares timestamps, exactly the
 * "two sets of (smaller) ordered queues" the paper describes.
 */

#ifndef CDFSIM_OOO_LSQ_HH
#define CDFSIM_OOO_LSQ_HH

#include <deque>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"

namespace cdfsim::ooo
{

/** One partitioned queue (used for both the LQ and the SQ). */
class MemQueue
{
  public:
    explicit MemQueue(unsigned size) : size_(size), critCap_(0) {}

    unsigned size() const { return size_; }
    unsigned criticalCap() const { return critCap_; }

    void
    setCriticalCap(unsigned cap)
    {
        SIM_ASSERT(cap <= size_, "critical cap exceeds queue");
        critCap_ = cap;
    }

    bool
    canInsert(bool critical) const
    {
        if (critical)
            return crit_.size() < critCap_;
        return nonCrit_.size() < size_ - critCap_;
    }

    void
    insert(DynInst *inst, bool critical)
    {
        SIM_ASSERT(canInsert(critical), "LSQ section overflow");
        auto &q = critical ? crit_ : nonCrit_;
        SIM_ASSERT(q.empty() || q.back()->ts < inst->ts,
                   "LSQ section out of program order");
        q.push_back(inst);
    }

    /** Remove a specific retiring instruction (it is a head). */
    void
    retire(DynInst *inst)
    {
        if (!crit_.empty() && crit_.front() == inst) {
            crit_.pop_front();
            return;
        }
        SIM_ASSERT(!nonCrit_.empty() && nonCrit_.front() == inst,
                   "retiring instruction is not an LSQ head");
        nonCrit_.pop_front();
    }

    unsigned
    flushYounger(SeqNum flushTs)
    {
        unsigned dropped = 0;
        for (auto *q : {&crit_, &nonCrit_}) {
            while (!q->empty() && q->back()->ts > flushTs) {
                q->pop_back();
                ++dropped;
            }
        }
        return dropped;
    }

    std::size_t occupancy() const { return crit_.size() + nonCrit_.size(); }
    std::size_t criticalOccupancy() const { return crit_.size(); }
    std::size_t nonCriticalOccupancy() const { return nonCrit_.size(); }

    /** Visit every entry (both sections), in no particular order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (DynInst *i : crit_)
            fn(i);
        for (DynInst *i : nonCrit_)
            fn(i);
    }

    void
    clear()
    {
        crit_.clear();
        nonCrit_.clear();
    }

    /**
     * Age-order walk (see Rob::auditAgeOrder): both sections must
     * hold non-null entries in strictly increasing timestamp order
     * under a cap that fits the capacity. @p name labels the queue
     * ("LQ"/"SQ") in the panic message. Always compiled; sampled
     * from the retire stage in Audit builds.
     */
    void
    auditAgeOrder(const char *name) const
    {
        SIM_ASSERT(critCap_ <= size_, name,
                   " critical cap exceeds capacity");
        for (const auto *q : {&crit_, &nonCrit_}) {
            const DynInst *prev = nullptr;
            for (const DynInst *inst : *q) {
                SIM_ASSERT(inst != nullptr, "null ", name, " entry");
                SIM_ASSERT(!prev || prev->ts < inst->ts, name,
                           " section out of age order");
                prev = inst;
            }
        }
    }

    /** Field list: both sections, each instruction coded by @p each
     *  (a pool handle); forEach() cannot reconstruct the section
     *  split, hence the member list. */
    template <class Self, class Ar, class Each>
    static void
    snapFields(Self &self, Ar &ar, Each each)
    {
        ar.io(self.critCap_);
        ar.seq32(self.crit_, each);
        ar.seq32(self.nonCrit_, each);
    }

  private:
    friend struct cdfsim::AuditPeer; //!< test-only corruption access

    SIM_SNAPSHOT_FIELDS(4);

    unsigned size_;
    unsigned critCap_;
    std::deque<DynInst *> crit_;
    std::deque<DynInst *> nonCrit_;
};

/** Load + store queues with the disambiguation searches. */
class Lsq
{
  public:
    Lsq(unsigned lqSize, unsigned sqSize) : lq_(lqSize), sq_(sqSize) {}

    MemQueue &lq() { return lq_; }
    MemQueue &sq() { return sq_; }
    const MemQueue &lq() const { return lq_; }
    const MemQueue &sq() const { return sq_; }

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

    MemQueue lq_;
    MemQueue sq_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_LSQ_HH

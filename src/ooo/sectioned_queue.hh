/**
 * @file
 * The partitioned window queue of paper Section 3.5: one type for
 * the ROB, the load queue and the store queue.
 *
 * Two program-ordered sections — critical and non-critical — share
 * one capacity budget; the critical section's share is set by the
 * partition controller (cdf::SectionPartition). Outside CDF mode the
 * critical cap is 0 and everything lives in the non-critical
 * section. The head is the older of the two section heads, which is
 * the paper's dual-retire-pointer scheme for the ROB and the
 * "two sets of (smaller) ordered queues" it describes for the LSQ.
 * Flushes truncate each section from the back (entries are
 * timestamp-ordered within a section).
 */

#ifndef CDFSIM_OOO_SECTIONED_QUEUE_HH
#define CDFSIM_OOO_SECTIONED_QUEUE_HH

#include <algorithm>
#include <deque>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"

namespace cdfsim::ooo
{

/** A two-section, timestamp-ordered queue (ROB, LQ or SQ). */
class SectionedQueue
{
  public:
    explicit SectionedQueue(unsigned size) : size_(size), critCap_(0) {}

    unsigned size() const { return size_; }

    /** Capacity currently granted to the critical section. */
    unsigned criticalCap() const { return critCap_; }

    /** Update the critical section's capacity (partition controller). */
    void
    setCriticalCap(unsigned cap)
    {
        SIM_ASSERT(cap <= size_, "critical cap exceeds capacity");
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
        SIM_ASSERT(canInsert(critical), "section overflow");
        auto &q = critical ? crit_ : nonCrit_;
        SIM_ASSERT(q.empty() || q.back()->ts < inst->ts,
                   "section out of program order");
        q.push_back(inst);
    }

    bool empty() const { return crit_.empty() && nonCrit_.empty(); }
    std::size_t occupancy() const { return crit_.size() + nonCrit_.size(); }
    std::size_t criticalOccupancy() const { return crit_.size(); }
    std::size_t nonCriticalOccupancy() const { return nonCrit_.size(); }

    /** The globally oldest entry (minimum timestamp head). */
    DynInst *
    head() const
    {
        if (crit_.empty())
            return nonCrit_.empty() ? nullptr : nonCrit_.front();
        if (nonCrit_.empty())
            return crit_.front();
        return crit_.front()->ts < nonCrit_.front()->ts
                   ? crit_.front()
                   : nonCrit_.front();
    }

    /** Remove the head returned by head(). */
    void
    popHead()
    {
        DynInst *h = head();
        SIM_ASSERT(h, "popHead on an empty queue");
        if (!crit_.empty() && crit_.front() == h)
            crit_.pop_front();
        else
            nonCrit_.pop_front();
    }

    /** Remove a retiring instruction, which must be the head. */
    void
    retire(const DynInst *inst)
    {
        SIM_ASSERT(head() == inst, "retiring instruction ts ", inst->ts,
                   " is not the queue head");
        popHead();
    }

    /**
     * Drop every entry with ts > @p flushTs. Returns how many were
     * dropped (callers walk the master list for cleanup).
     */
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

    /** Visit every entry: the critical section, then the other. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (DynInst *i : crit_)
            fn(i);
        for (DynInst *i : nonCrit_)
            fn(i);
    }

    /** True when @p inst is resident (a binary search per section). */
    bool
    contains(const DynInst *inst) const
    {
        for (const auto *q : {&crit_, &nonCrit_}) {
            const auto it = std::lower_bound(
                q->begin(), q->end(), inst->ts,
                [](const DynInst *e, SeqNum ts) { return e->ts < ts; });
            if (it != q->end() && *it == inst)
                return true;
        }
        return false;
    }

    /**
     * Age-order walk: both sections must hold non-null entries in
     * strictly increasing timestamp order, under a critical cap that
     * fits the capacity. insert() asserts each of these pairwise at
     * insert time; the walk catches later corruption of resident
     * state. @p name labels the queue ("ROB"/"LQ"/"SQ") in the
     * panic message. Always compiled (tests call it in any build
     * type); sampled from the retire stage in Audit builds.
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
     *  (a pool handle); capacity is config-fixed and excluded. */
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

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_SECTIONED_QUEUE_HH

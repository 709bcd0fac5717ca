/**
 * @file
 * Corruption tests for the system-level audit walks: the core's RS
 * wakeup cache (Core::auditRsWakeupCache), its rename maps
 * (Core::auditRenameMaps), its LSQ/ROB age ordering
 * (Core::auditLsqRobAge), its branch-state pool ownership
 * (Core::auditBranchStates), its fetch frontend
 * (Core::auditFrontend), and the CDF side tables
 * (CriticalCountTable::auditInvariants, MaskCache::auditInvariants,
 * both through cdf::SetAssocArray, and FillBuffer::auditInvariants).
 *
 * Unlike tests/test_audit.cc — which covers the header-only audited
 * containers and deliberately links only cdfsim_common — these walks
 * live in library object code, are always compiled (their bounds are
 * load-bearing for the idle-skip fast-forward path) and assert with
 * the always-on SIM_ASSERT. The tests therefore use the regular full
 * link and need no forced CDFSIM_AUDIT: each walk must stay silent on
 * a core driven mid-flight through the public API, and must panic
 * once AuditPeer (the befriended test-only backdoor) applies one
 * targeted corruption of private state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "cdf/critical_table.hh"
#include "cdf/fill_buffer.hh"
#include "cdf/mask_cache.hh"
#include "common/audit.hh"
#include "common/circular_queue.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "ooo/core.hh"
#include "ooo/dyn_inst.hh"
#include "ooo/rename.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace cdfsim
{

/**
 * The test-only backdoor (forward-declared in common/audit.hh) that
 * the core, its rename maps and the CDF side tables befriend. Every
 * mutating helper performs one deliberate, targeted corruption of
 * private state.
 */
struct AuditPeer
{
    // --- Core: RS wakeup cache --------------------------------------

    /** First resident RS entry matching @p pred (nullptr if none). */
    template <typename Pred>
    static ooo::DynInst *
    findRsEntry(ooo::Core &c, Pred &&pred)
    {
        ooo::DynInst *hit = nullptr;
        c.rs_.forEach([&](const ooo::DynInst *inst) {
            if (!hit && pred(*inst))
                hit = const_cast<ooo::DynInst *>(inst);
        });
        return hit;
    }

    /** The operand-ready bound the audit walk recomputes. */
    static Cycle
    operandReadyBound(const ooo::Core &c, const ooo::DynInst &inst)
    {
        const Cycle r1 = inst.physSrc1 == kInvalidReg
                             ? 0
                             : c.prf_.readyAt(inst.physSrc1);
        const bool memOp = inst.isLoad() || inst.isStore();
        const Cycle r2 = (memOp || inst.physSrc2 == kInvalidReg)
                             ? 0
                             : c.prf_.readyAt(inst.physSrc2);
        return std::max(r1, r2);
    }

    /**
     * Overwrite a resident entry's cached retry cycle with a finite
     * value that cannot match the recomputed operand-ready bound —
     * exactly the drift a missed wakeup broadcast would leave behind.
     */
    static bool
    skewRsRetryCycle(ooo::Core &c)
    {
        ooo::DynInst *victim =
            findRsEntry(c, [](const ooo::DynInst &) { return true; });
        if (!victim)
            return false;
        const Cycle wait = operandReadyBound(c, *victim);
        victim->rsNextTry =
            wait == kNeverCycle ? Cycle{12'345} : wait + 1;
        return true;
    }

    /**
     * Register a ghost waiter on a register that is already ready:
     * the completion broadcast clears whole lists, so a non-empty
     * list on a ready register can only mean a lost broadcast.
     */
    static void
    ghostWaiterOnReadyReg(ooo::Core &c)
    {
        for (std::size_t r = 0; r < c.regWaiters_.size(); ++r) {
            if (c.prf_.readyAt(static_cast<RegId>(r)) == kNeverCycle)
                continue;
            c.regWaiters_[r].emplace_back(0u, ~SeqNum{0});
            return;
        }
        SIM_ASSERT(false, "test found no ready physical register");
    }

    /**
     * Strip a parked entry's waiter registrations, leaving it
     * unwakeable — the bug class the registration invariant exists
     * to catch.
     */
    static bool
    orphanParkedRsEntry(ooo::Core &c)
    {
        ooo::DynInst *parked =
            findRsEntry(c, [](const ooo::DynInst &inst) {
                return inst.rsNextTry == kNeverCycle;
            });
        if (!parked)
            return false;
        auto scrub = [&](RegId r) {
            if (r == kInvalidReg)
                return;
            std::erase_if(c.regWaiters_[r], [&](const auto &p) {
                return p.first == parked->poolIdx &&
                       p.second == parked->fetchSeq;
            });
        };
        scrub(parked->physSrc1);
        if (!(parked->isLoad() || parked->isStore()))
            scrub(parked->physSrc2);
        return true;
    }

    // --- CDF side tables: CCT and mask cache ------------------------

    static cdf::CriticalCountTable *
    loadCct(ooo::Core &c)
    {
        return c.loadCct_.get();
    }

    static cdf::MaskCache *
    maskCache(ooo::Core &c)
    {
        return c.maskCache_.get();
    }

    /** Clone a valid tag into a second way of the same set. */
    template <class Entry>
    static bool
    duplicateTag(cdf::SetAssocArray<Entry> &t)
    {
        const unsigned ways = t.ways_;
        for (std::size_t set = 0; set < t.sets_; ++set) {
            auto *base = &t.entries_[set * ways];
            for (unsigned w = 0; w < ways; ++w) {
                if (!base[w].valid)
                    continue;
                const unsigned other = (w + 1) % ways;
                base[other].valid = true;
                base[other].tag = base[w].tag;
                return true;
            }
        }
        return false;
    }

    /** Stamp a valid entry newer than the table's clock. */
    template <class Entry>
    static bool
    skewLruTick(cdf::SetAssocArray<Entry> &t)
    {
        for (auto &e : t.entries_) {
            if (!e.valid)
                continue;
            e.lruTick = t.tick_ + 1;
            return true;
        }
        return false;
    }

    /** Move a valid entry into a set its tag cannot hash to. */
    template <class Entry>
    static bool
    teleportEntry(cdf::SetAssocArray<Entry> &t)
    {
        const unsigned ways = t.ways_;
        if (t.sets_ < 2)
            return false;
        for (std::size_t set = 0; set < t.sets_; ++set) {
            auto *base = &t.entries_[set * ways];
            for (unsigned w = 0; w < ways; ++w) {
                if (!base[w].valid)
                    continue;
                t.entries_[((set + 1) % t.sets_) * ways] = base[w];
                return true;
            }
        }
        return false;
    }

    static bool
    duplicateCctTag(cdf::CriticalCountTable &t)
    {
        return duplicateTag(t.table_);
    }

    static bool
    skewCctLruTick(cdf::CriticalCountTable &t)
    {
        return skewLruTick(t.table_);
    }

    static bool
    teleportCctEntry(cdf::CriticalCountTable &t)
    {
        return teleportEntry(t.table_);
    }

    static bool
    duplicateMaskTag(cdf::MaskCache &m)
    {
        return duplicateTag(m.table_);
    }

    static bool
    skewMaskLruTick(cdf::MaskCache &m)
    {
        return skewLruTick(m.table_);
    }

    // --- CDF Fill Buffer --------------------------------------------

    static cdf::FillBuffer *
    fillBuffer(ooo::Core &c)
    {
        return c.fillBuffer_.get();
    }

    /** Fill the collection window to capacity without walking it. */
    static bool
    overfillFillBuffer(cdf::FillBuffer &fb)
    {
        if (!fb.collecting_ || fb.entries_.empty())
            return false;
        fb.entries_.resize(fb.config_.capacity, fb.entries_.back());
        return true;
    }

    /** Make the window begin mid-block: clear its first uop's
     *  block-start mark. */
    static bool
    unmarkFillBufferBlockStart(cdf::FillBuffer &fb)
    {
        if (fb.entries_.empty())
            return false;
        fb.entries_.front().startsBasicBlock = false;
        return true;
    }

    /** Leave the mask shift register live with the Mask Cache off. */
    static bool
    liveMaskWithMaskCacheOff(cdf::FillBuffer &fb)
    {
        fb.config_.useMaskCache = false;
        fb.activeMaskValid_ = true;
        return true;
    }

    // --- Core: LSQ/ROB age ordering ---------------------------------

    /** Swap two adjacent entries of a ROB section, breaking the
     *  strictly-increasing timestamp order. */
    static bool
    swapAdjacentRobEntries(ooo::Core &c)
    {
        for (auto *q : {&c.rob_.crit_, &c.rob_.nonCrit_}) {
            if (q->size() >= 2) {
                std::swap((*q)[0], (*q)[1]);
                return true;
            }
        }
        return false;
    }

    /** Swap two adjacent entries of an LQ section. */
    static bool
    swapAdjacentLqEntries(ooo::Core &c)
    {
        auto &lq = c.lsq_.lq();
        for (auto *q : {&lq.crit_, &lq.nonCrit_}) {
            if (q->size() >= 2) {
                std::swap((*q)[0], (*q)[1]);
                return true;
            }
        }
        return false;
    }

    /** Duplicate a resident load into the store queue — the kind
     *  confusion a dispatch bug would produce. */
    static bool
    loadIntoStoreQueue(ooo::Core &c)
    {
        auto &lq = c.lsq_.lq();
        for (auto *q : {&lq.crit_, &lq.nonCrit_}) {
            if (!q->empty()) {
                c.lsq_.sq().nonCrit_.push_back(q->front());
                return true;
            }
        }
        return false;
    }

    /** Grant the ROB's critical section more capacity than the ROB
     *  has. */
    static void
    robCapOverSize(ooo::Core &c)
    {
        c.rob_.critCap_ = c.rob_.size_ + 1;
    }

    /** Erase the ROB entry backing an LQ head, leaving an LSQ entry
     *  with no ROB residence (a missed-squash shape). */
    static bool
    vanishRobEntryForLqHead(ooo::Core &c)
    {
        auto &lq = c.lsq_.lq();
        const ooo::DynInst *victim = nullptr;
        for (auto *q : {&lq.crit_, &lq.nonCrit_}) {
            if (!q->empty()) {
                victim = q->front();
                break;
            }
        }
        if (!victim)
            return false;
        for (auto *q : {&c.rob_.crit_, &c.rob_.nonCrit_}) {
            auto it = std::find(q->begin(), q->end(), victim);
            if (it != q->end()) {
                q->erase(it);
                return true;
            }
        }
        return false;
    }

    // --- Core: rename maps ------------------------------------------

    /** Point an arch reg at a physical register that does not exist. */
    static void
    ratOutOfRange(ooo::Core &c)
    {
        c.rat_.table_[0] = static_cast<RegId>(c.prf_.size());
    }

    /** Map two arch regs onto the same physical register. */
    static void
    ratDuplicateMapping(ooo::Core &c)
    {
        c.rat_.table_[1] = c.rat_.table_[0];
    }

    /** Push a RAT-mapped register back onto the free list, the
     *  double-release a squash-walk bug would produce. */
    static void
    freeListOverlap(ooo::Core &c)
    {
        c.prf_.freeList_.push_back(c.rat_.lookup(0));
    }

    /** Duplicate a mapping in the critical RAT, if one is live. */
    static bool
    critRatDuplicateMapping(ooo::Core &c)
    {
        if (!c.critRatCopied_)
            return false;
        c.critRat_.table_[1] = c.critRat_.table_[0];
        return true;
    }

    // --- Core: branch-state pool ------------------------------------

    /** First in-flight instruction matching @p pred (nullptr if
     *  none), oldest first. */
    template <typename Pred>
    static ooo::DynInst *
    findInflight(ooo::Core &c, Pred &&pred)
    {
        for (std::uint32_t i = c.inflightHead_; i != ooo::kNoInst;
             i = c.inflightPool_.at(i).nextIdx) {
            ooo::DynInst &inst = c.inflightPool_.at(i);
            if (pred(inst))
                return &inst;
        }
        return nullptr;
    }

    /** A slot no instruction or DBQ checkpoint owns: a free path
     *  (squash, DBQ clear, destroyInst) that forgot to release. */
    static void
    leakBranchState(ooo::Core &c)
    {
        c.branchStates_.allocate();
    }

    /** Hand a branch's slot to a second in-flight instruction. */
    static bool
    doublyOwnBranchState(ooo::Core &c)
    {
        const ooo::DynInst *owner =
            findInflight(c, [](const ooo::DynInst &inst) {
                return inst.branchState != ooo::kNoBranchState;
            });
        ooo::DynInst *thief =
            findInflight(c, [](const ooo::DynInst &inst) {
                return inst.branchState == ooo::kNoBranchState;
            });
        if (!owner || !thief)
            return false;
        thief->branchState = owner->branchState;
        return true;
    }

    /** Release a slot its owner still names (use after free). */
    static bool
    freeOwnedBranchState(ooo::Core &c)
    {
        const ooo::DynInst *owner =
            findInflight(c, [](const ooo::DynInst &inst) {
                return inst.branchState != ooo::kNoBranchState;
            });
        if (!owner)
            return false;
        c.branchStates_.free(owner->branchState);
        return true;
    }

    /** Give an in-flight instruction the slot a DBQ checkpoint owns
     *  (the regular stream taking it over without erasing it). */
    static bool
    doublyOwnDbqBranchState(ooo::Core &c)
    {
        if (c.dbqCkpts_.empty())
            return false;
        ooo::DynInst *thief =
            findInflight(c, [](const ooo::DynInst &inst) {
                return inst.branchState == ooo::kNoBranchState;
            });
        if (!thief)
            return false;
        thief->branchState = c.dbqCkpts_.front().state;
        return true;
    }

    // --- Core: fetch frontend ---------------------------------------

    static bool
    walkerActive(const ooo::Core &c)
    {
        return c.walker_.active();
    }

    /** Activate the shared wrong-path walker when no user holds it,
     *  or drop it from under the user that does. */
    static void
    toggleWalker(ooo::Core &c)
    {
        if (c.walker_.active())
            c.walker_.deactivate();
        else
            c.walker_.restart(c.oracle_.frontierRegs());
    }

    /** Break a fetch queue's ts order: swap its two oldest entries,
     *  or queue its only entry twice. False while it is empty. */
    static bool
    reorderQueue(CircularQueue<ooo::DynInst *> &q)
    {
        if (q.size() >= 2) {
            std::swap(q.at(0), q.at(1));
            return true;
        }
        if (q.size() == 1 && !q.full()) {
            q.push(q.front());
            return true;
        }
        return false;
    }

    static bool
    reorderFrontQ(ooo::Core &c)
    {
        return reorderQueue(c.frontQ_);
    }

    static bool
    reorderCritQ(ooo::Core &c)
    {
        return reorderQueue(c.critQ_);
    }

    /** Buffer a wrong-path record no younger than the newest one. */
    static void
    repeatWpRecord(ooo::Core &c)
    {
        if (c.wpRecords_.empty())
            c.wpRecords_.push_back({});
        const auto last = c.wpRecords_.back();
        c.wpRecords_.push_back(last);
    }

    /** Point the regular stream past the buffered wrong path. */
    static void
    overrunWpConsumeIdx(ooo::Core &c)
    {
        c.wpConsumeIdx_ = c.wpRecords_.size() + 1;
    }

    /** Publish a criticality block over the newest one's uops. */
    static void
    overlapBbInfo(ooo::Core &c)
    {
        if (c.bbInfoQ_.empty())
            c.bbInfoQ_.push_back({0, {false, false}});
        const auto last = c.bbInfoQ_.back();
        c.bbInfoQ_.push_back(last);
    }

    /** In CDF mode, buffer a wrong-path record no published block
     *  covers. False outside CDF mode. */
    static bool
    unpublishedWpRecord(ooo::Core &c)
    {
        if (!c.cdfMode_)
            return false;
        const SeqNum ts =
            c.wpRecords_.empty() ? 0 : c.wpRecords_.back().ts + 1;
        c.bbInfoQ_.clear();
        c.wpRecords_.push_back({{}, ts});
        return true;
    }

    // --- Core: critical fetch off path ------------------------------

    static bool
    criticalFetchOnPath(const ooo::Core &c)
    {
        return c.critOnPath_;
    }

    static bool
    criticalWrongPathStuck(const ooo::Core &c)
    {
        return c.critWpStuck_;
    }

    /** Mark the critical wrong path as run into unwalkable code. */
    static void
    stickCriticalWrongPath(ooo::Core &c)
    {
        c.critWpStuck_ = true;
    }

    static SeqNum
    criticalCoveredUpTo(const ooo::Core &c)
    {
        return c.critCoveredUpTo_;
    }
};

} // namespace cdfsim

namespace
{

using cdfsim::Addr;
using cdfsim::AuditPeer;
using cdfsim::PanicError;

/**
 * Tick @p c one cycle at a time for up to @p cycles, running the
 * frontend walk after each: its walker invariant breaks transiently
 * (a walker left active is held again by the next misprediction),
 * so sparse stops can miss it. Returns how many of those cycles
 * ended with @p inState true.
 */
template <typename State>
int
auditFrontendEachCycle(cdfsim::ooo::Core &c, cdfsim::Cycle cycles,
                       State &&inState)
{
    int hits = 0;
    const cdfsim::Cycle end = c.cycle() + cycles;
    while (c.cycle() < end && !c.halted()) {
        c.run(~std::uint64_t{0}, c.cycle() + 1);
        c.auditFrontend();
        hits += inState(c);
    }
    return hits;
}

/**
 * Step @p c 100 cycles at a time until its Fill Buffer is part-way
 * through a collection window. Bounded at 30k cycles, short of where
 * an Audit build's sampled rename walk trips the known critical-RAT
 * aliasing (ROADMAP item 1); the first window opens at the first
 * retire, far earlier.
 */
bool
driveIntoFillWindow(cdfsim::ooo::Core &c)
{
    const cdfsim::cdf::FillBuffer *fb = AuditPeer::fillBuffer(c);
    while (!(fb->collecting() && fb->size() > 0)) {
        if (c.cycle() >= 30'000 || c.halted())
            return false;
        c.run(~std::uint64_t{0}, c.cycle() + 100);
    }
    return true;
}

/**
 * A core paused mid-flight on a memory-bound workload: run() stops
 * between cycles once the retire target is reached, leaving live
 * in-flight state (RS entries, waiter lists) for the helpers to
 * corrupt. mcf keeps dependents parked on outstanding DRAM misses.
 */
class AuditSystem : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cdfsim::ooo::CoreConfig cfg;
        sim_ = std::make_unique<cdfsim::sim::Simulator>(
            cfg, cdfsim::workloads::makeWorkload("mcf"));
        auto &core = sim_->core();
        for (int i = 0; i < 64 && !core.halted(); ++i) {
            core.run(core.retired() + 2'000);
            if (AuditPeer::findRsEntry(
                    core, [](const cdfsim::ooo::DynInst &) {
                        return true;
                    }))
                return;
        }
        FAIL() << "could not pause the core with a non-empty RS";
    }

    cdfsim::ooo::Core &core() { return sim_->core(); }

    std::unique_ptr<cdfsim::sim::Simulator> sim_;
};

// ------------------------------------------------- RS wakeup cache

TEST_F(AuditSystem, RsWakeupSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditRsWakeupCache());
}

TEST_F(AuditSystem, RsWakeupFiresOnSkewedRetryCycle)
{
    ASSERT_TRUE(AuditPeer::skewRsRetryCycle(core()));
    EXPECT_THROW(core().auditRsWakeupCache(), PanicError);
}

TEST_F(AuditSystem, RsWakeupFiresOnGhostWaiter)
{
    AuditPeer::ghostWaiterOnReadyReg(core());
    EXPECT_THROW(core().auditRsWakeupCache(), PanicError);
}

TEST_F(AuditSystem, RsWakeupFiresOnOrphanedParkedEntry)
{
    // Step forward until a parked entry (never-ready source) is in
    // the RS; on mcf one appears almost immediately, but the stop
    // point is workload state, not something the test controls.
    auto &c = core();
    bool orphaned = AuditPeer::orphanParkedRsEntry(c);
    for (int i = 0; i < 64 && !orphaned && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        orphaned = AuditPeer::orphanParkedRsEntry(c);
    }
    if (!orphaned)
        GTEST_SKIP() << "no parked RS entry at any stop point";
    EXPECT_THROW(c.auditRsWakeupCache(), PanicError);
}

// ------------------------------------------------- rename maps

TEST_F(AuditSystem, RenameMapsSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditRenameMaps());
}

TEST_F(AuditSystem, RenameMapsFireOnOutOfRangeEntry)
{
    AuditPeer::ratOutOfRange(core());
    EXPECT_THROW(core().auditRenameMaps(), PanicError);
}

TEST_F(AuditSystem, RenameMapsFireOnDuplicateMapping)
{
    AuditPeer::ratDuplicateMapping(core());
    EXPECT_THROW(core().auditRenameMaps(), PanicError);
}

TEST_F(AuditSystem, RenameMapsFireOnFreeListOverlap)
{
    AuditPeer::freeListOverlap(core());
    EXPECT_THROW(core().auditRenameMaps(), PanicError);
}

// ------------------------------------------------- LSQ/ROB ordering

TEST_F(AuditSystem, LsqRobSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditLsqRobAge());
}

TEST_F(AuditSystem, LsqRobFiresOnRobAgeSwap)
{
    // The fixture pauses with a non-empty RS, so the ROB holds the
    // same in-flight instructions — two adjacent ones to swap.
    ASSERT_TRUE(AuditPeer::swapAdjacentRobEntries(core()));
    EXPECT_THROW(core().auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnLqAgeSwap)
{
    // mcf keeps multiple loads in flight, but the pause point is
    // workload state; step until two LQ entries coexist.
    auto &c = core();
    bool corrupted = AuditPeer::swapAdjacentLqEntries(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::swapAdjacentLqEntries(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw two resident LQ entries";
    EXPECT_THROW(c.auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnLoadInStoreQueue)
{
    auto &c = core();
    bool corrupted = AuditPeer::loadIntoStoreQueue(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::loadIntoStoreQueue(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw a resident LQ entry";
    EXPECT_THROW(c.auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnCapOverSize)
{
    AuditPeer::robCapOverSize(core());
    EXPECT_THROW(core().auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnVanishedRobEntry)
{
    auto &c = core();
    bool corrupted = AuditPeer::vanishRobEntryForLqHead(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::vanishRobEntryForLqHead(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw a resident LQ entry";
    EXPECT_THROW(c.auditLsqRobAge(), PanicError);
}

// ------------------------------------------------- branch states

TEST_F(AuditSystem, BranchStatesSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditBranchStates());
}

TEST_F(AuditSystem, BranchStatesFireOnLeakedSlot)
{
    AuditPeer::leakBranchState(core());
    EXPECT_THROW(core().auditBranchStates(), PanicError);
}

TEST_F(AuditSystem, BranchStatesFireOnDoublyOwnedSlot)
{
    auto &c = core();
    bool corrupted = AuditPeer::doublyOwnBranchState(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::doublyOwnBranchState(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw an in-flight branch";
    EXPECT_THROW(c.auditBranchStates(), PanicError);
}

TEST_F(AuditSystem, BranchStatesFireOnFreedOwnedSlot)
{
    auto &c = core();
    bool corrupted = AuditPeer::freeOwnedBranchState(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::freeOwnedBranchState(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw an in-flight branch";
    EXPECT_THROW(c.auditBranchStates(), PanicError);
}

// ------------------------------------------------- fetch frontend

TEST_F(AuditSystem, FrontendSilentOnDrivenCore)
{
    int walking = 0;
    ASSERT_NO_THROW(walking = auditFrontendEachCycle(
                        core(), 30'000, AuditPeer::walkerActive));
    EXPECT_GT(walking, 0) << "never fetched down a wrong path";
}

TEST_F(AuditSystem, FrontendFiresOnUnheldWalker)
{
    AuditPeer::toggleWalker(core());
    EXPECT_THROW(core().auditFrontend(), PanicError);
}

TEST_F(AuditSystem, FrontendFiresOnFrontQueueOrder)
{
    auto &c = core();
    bool corrupted = AuditPeer::reorderFrontQ(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::reorderFrontQ(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw a queued fetch";
    EXPECT_THROW(c.auditFrontend(), PanicError);
}

TEST_F(AuditSystem, FrontendFiresOnWpRecordOrder)
{
    AuditPeer::repeatWpRecord(core());
    EXPECT_THROW(core().auditFrontend(), PanicError);
}

TEST_F(AuditSystem, FrontendFiresOnWpConsumeOverrun)
{
    AuditPeer::overrunWpConsumeIdx(core());
    EXPECT_THROW(core().auditFrontend(), PanicError);
}

TEST_F(AuditSystem, FrontendFiresOnOverlappingCriticalityBlocks)
{
    AuditPeer::overlapBbInfo(core());
    EXPECT_THROW(core().auditFrontend(), PanicError);
}

// ------------------------------------------------- CDF side tables

/**
 * As AuditSystem, but in CDF mode so retire training populates the
 * load CCT and episodes merge masks into the mask cache. mcf is
 * memory bound, so CDF engages within the first few thousand
 * instructions.
 */
class AuditSystemCdf : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cdfsim::ooo::CoreConfig cfg;
        cfg.mode = cdfsim::ooo::CoreMode::Cdf;
        sim_ = std::make_unique<cdfsim::sim::Simulator>(
            cfg, cdfsim::workloads::makeWorkload("mcf"));
    }

    cdfsim::ooo::Core &core() { return sim_->core(); }

    /** Step until @p corrupt lands (it returns false while the state
     *  it targets has not appeared yet), then expect the walk named
     *  by @p walk to panic. */
    template <typename Corrupt, typename Walk>
    void
    expectFires(Corrupt &&corrupt, Walk &&walk)
    {
        auto &c = core();
        bool corrupted = corrupt(c);
        for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
            c.run(c.retired() + 2'000);
            corrupted = corrupt(c);
        }
        ASSERT_TRUE(corrupted)
            << "target state never appeared on mcf/cdf";
        EXPECT_THROW(walk(c), PanicError);
    }

    std::unique_ptr<cdfsim::sim::Simulator> sim_;
};

TEST_F(AuditSystemCdf, SideTablesSilentOnDrivenCore)
{
    auto &c = core();
    c.run(c.retired() + 100'000);
    ASSERT_NE(AuditPeer::loadCct(c), nullptr);
    ASSERT_NE(AuditPeer::maskCache(c), nullptr);
    EXPECT_NO_THROW(AuditPeer::loadCct(c)->auditInvariants());
    EXPECT_NO_THROW(AuditPeer::maskCache(c)->auditInvariants());
    EXPECT_NO_THROW(c.auditRenameMaps());
    EXPECT_NO_THROW(c.auditLsqRobAge());
    EXPECT_NO_THROW(c.auditBranchStates());
}

TEST_F(AuditSystemCdf, CctFiresOnDuplicateTag)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::duplicateCctTag(*AuditPeer::loadCct(c));
        },
        [](auto &c) { AuditPeer::loadCct(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, CctFiresOnLruAheadOfClock)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::skewCctLruTick(*AuditPeer::loadCct(c));
        },
        [](auto &c) { AuditPeer::loadCct(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, CctFiresOnTeleportedEntry)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::teleportCctEntry(
                *AuditPeer::loadCct(c));
        },
        [](auto &c) { AuditPeer::loadCct(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, MaskCacheFiresOnDuplicateTag)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::duplicateMaskTag(
                *AuditPeer::maskCache(c));
        },
        [](auto &c) { AuditPeer::maskCache(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, MaskCacheFiresOnLruAheadOfClock)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::skewMaskLruTick(
                *AuditPeer::maskCache(c));
        },
        [](auto &c) { AuditPeer::maskCache(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, FrontendFiresOnUnpublishedWpRecord)
{
    expectFires(AuditPeer::unpublishedWpRecord,
                [](auto &c) { c.auditFrontend(); });
}

TEST_F(AuditSystemCdf, FillBufferSilentOnDrivenCore)
{
    // Walked every 500 cycles for 30k cycles: the bound of
    // driveIntoFillWindow(), short of the known critical-RAT trip.
    auto &c = core();
    cdfsim::cdf::FillBuffer *fb = AuditPeer::fillBuffer(c);
    ASSERT_NE(fb, nullptr);
    int inWindow = 0;
    while (c.cycle() < 30'000 && !c.halted()) {
        c.run(~std::uint64_t{0}, c.cycle() + 500);
        ASSERT_NO_THROW(fb->auditInvariants()) << "cycle " << c.cycle();
        inWindow += fb->size() > 0;
    }
    EXPECT_GT(inWindow, 0) << "never stopped inside a collection window";
}

TEST_F(AuditSystemCdf, FillBufferFiresOnOverfilledWindow)
{
    expectFires(
        [](auto &c) {
            return driveIntoFillWindow(c) &&
                   AuditPeer::overfillFillBuffer(*AuditPeer::fillBuffer(c));
        },
        [](auto &c) { AuditPeer::fillBuffer(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, FillBufferFiresOnMidBlockWindowStart)
{
    expectFires(
        [](auto &c) {
            return driveIntoFillWindow(c) &&
                   AuditPeer::unmarkFillBufferBlockStart(
                       *AuditPeer::fillBuffer(c));
        },
        [](auto &c) { AuditPeer::fillBuffer(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, FillBufferFiresOnLiveMaskWithMaskCacheOff)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::liveMaskWithMaskCacheOff(
                *AuditPeer::fillBuffer(c));
        },
        [](auto &c) { AuditPeer::fillBuffer(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, CritRatFiresOnDuplicateMapping)
{
    expectFires(
        [](auto &c) { return AuditPeer::critRatDuplicateMapping(c); },
        [](auto &c) { c.auditRenameMaps(); });
}

TEST_F(AuditSystemCdf, BranchStatesFireOnDbqSlotAlsoOwnedByInst)
{
    expectFires(
        [](auto &c) { return AuditPeer::doublyOwnDbqBranchState(c); },
        [](auto &c) { c.auditBranchStates(); });
}

TEST_F(AuditSystemCdf, FrontendSilentOnDrivenCore)
{
    // 30k cycles stay short of where an Audit build's sampled rename
    // walk trips the known critical-RAT aliasing (ROADMAP item 1),
    // about 47k cycles into mcf.
    int inCdf = 0;
    ASSERT_NO_THROW(inCdf = auditFrontendEachCycle(
                        core(), 30'000,
                        [](const auto &c) { return c.inCdfMode(); }));
    EXPECT_GT(inCdf, 0) << "never entered CDF mode";
}

TEST_F(AuditSystemCdf, FrontendFiresOnCritQueueOrder)
{
    expectFires([](auto &c) { return AuditPeer::reorderCritQ(c); },
                [](auto &c) { c.auditFrontend(); });
}

TEST_F(AuditSystemCdf, StuckCriticalWrongPathClearsOnRecovery)
{
    // Critical fetch goes off path at a mispredicted branch; mark its
    // wrong path stuck (as unwalkable code would), then let the
    // branch resolve. The in-mode recovery restarts critical fetch on
    // the corrected path, which must clear the flag: otherwise
    // critical fetch stays idle and the regular stream waits at
    // critCoveredUpTo_ until the deadlock watchdog fires.
    auto &c = core();
    const auto step = [&c] { c.run(~std::uint64_t{0}, c.cycle() + 1); };
    for (int i = 0; i < 30'000 && !c.halted() &&
                    !(c.inCdfMode() && !AuditPeer::criticalFetchOnPath(c));
         ++i)
        step();
    ASSERT_TRUE(c.inCdfMode() && !AuditPeer::criticalFetchOnPath(c))
        << "critical fetch never went off path on mcf/cdf";

    AuditPeer::stickCriticalWrongPath(c);
    for (int i = 0; i < 5'000 && c.inCdfMode() &&
                    !AuditPeer::criticalFetchOnPath(c);
         ++i)
        step();
    ASSERT_TRUE(c.inCdfMode() && AuditPeer::criticalFetchOnPath(c))
        << "the mispredict did not recover inside the CDF episode";
    EXPECT_FALSE(AuditPeer::criticalWrongPathStuck(c));

    const auto covered = AuditPeer::criticalCoveredUpTo(c);
    for (int i = 0; i < 200 && c.inCdfMode() &&
                    AuditPeer::criticalCoveredUpTo(c) == covered;
         ++i)
        step();
    EXPECT_GT(AuditPeer::criticalCoveredUpTo(c), covered)
        << "critical fetch did not resume after the recovery";
}

/** The frontend walk on a Precise Runahead core, where episodes
 *  hand the shared walker to runahead. */
TEST(AuditSystemPre, FrontendSilentOnDrivenCore)
{
    cdfsim::ooo::CoreConfig cfg;
    cfg.mode = cdfsim::ooo::CoreMode::Pre;
    cdfsim::sim::Simulator sim(cfg,
                               cdfsim::workloads::makeWorkload("mcf"));
    int inRunahead = 0;
    ASSERT_NO_THROW(inRunahead = auditFrontendEachCycle(
                        sim.core(), 30'000,
                        [](const auto &c) { return c.inRunahead(); }));
    EXPECT_GT(inRunahead, 0) << "never ran ahead";
}

} // namespace

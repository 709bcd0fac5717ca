/**
 * @file
 * Complete snapshot/restore of the out-of-order core, plus the
 * rename-map audit walk that restore leans on.
 *
 * One field list (Core::snapFields) serves both directions. Its
 * order mirrors the member declaration order of ooo::Core, with one
 * deliberate exception: the in-flight slab pool comes before any
 * container that references instructions by pool handle, so restore
 * re-materializes every DynInst before decoding those handles.
 * Host-only measurement state (stage profile, idle-skip bookkeeping,
 * audit samplers) is excluded, which keeps the payload independent
 * of the profileStages/skipIdleCycles host knobs; those counters are
 * reset to zero on restore. The stat registry is
 * snapshotted by the owning Simulator, never here.
 */

#include <cstdint>

#include "common/logging.hh"
#include "ooo/core.hh"

namespace cdfsim::ooo
{

void
Core::snapInst(const Core &, SnapWriter &w, const DynInst *inst)
{
    w.u32(inst ? inst->poolIdx : kNoInst);
}

void
Core::snapInst(Core &self, SnapReader &r, DynInst *&inst)
{
    const std::uint32_t idx = r.u32();
    SIM_ASSERT(idx == kNoInst || self.inflightPool_.alive(idx),
               "snapshot references dead pool slot ", idx);
    inst = idx == kNoInst ? nullptr : &self.inflightPool_.at(idx);
}

template <class Self, class Ar>
void
Core::snapFields(Self &self, Ar &ar)
{
    const auto inst = [&self](auto &a, auto &p) { snapInst(self, a, p); };
    // The config-gated CDF/PRE components: the snapshot records
    // whether each one exists and restore asserts the receiving core
    // made the same construction decisions (guaranteed when configs
    // match, as the warmup key enforces); contents follow.
    const auto presence = [&ar](const auto &...parts) {
        (ar.echo(static_cast<bool>(parts), "optional component presence"),
         ...);
    };
    const auto contents = [&ar](const auto &...parts) {
        ((parts ? ar.io(*parts) : void()), ...);
    };

    // Functional front: oracle, wrong-path walker, its last block.
    ar.io(self.oracle_, self.walker_);
    ar.seq32(self.walkedBlock_);

    // Memory system, predictors and rename state.
    ar.io(self.mem_, self.bp_, self.prf_, self.rat_, self.critRat_);

    // The in-flight pool before anything that references it.
    ar.io(self.inflightPool_, self.inflightHead_, self.inflightTail_,
          self.branchStates_);

    // Backend containers (pool handles).
    ar.each(self.rob_, inst);
    ar.each(self.lsq_, inst);
    ar.each(self.rs_, inst);
    ar.echo(self.regWaiters_.size(), "phys reg count");
    for (auto &waiters : self.regWaiters_)
        ar.seq32(waiters);
    ar.each(self.frontQ_, inst);
    ar.each(self.critQ_, inst);
    ar.seq32(self.pendingStores_, inst);

    // The completion min-heap, layout-verbatim: restoring the vector
    // in order reproduces the identical heap array, so same-cycle
    // pop order (which feeds predictor updates) is preserved.
    ar.seq32(self.completions_,
             [&](auto &a, auto &e) { a.each(e, inst); });

    // Regular fetch stream and retire scalars.
    ar.io(self.now_, self.fetchSeqCounter_, self.nextFetchTs_,
          self.wrongPath_, self.wrongPathPc_, self.nextWrongPathTs_,
          self.fetchStallUntil_, self.lastFetchLine_, self.fetchDoneHalt_,
          self.nextRetireTs_, self.halted_, self.lastRetireCycle_,
          self.retiredInstrs_, self.fetchAtBbStart_, self.fetchBbStartPc_,
          self.fetchBbOffset_, self.retirePrevWasBranch_);

    // CDF components, then scalars and queues.
    // The ROB, LQ and SQ partitions echo their presence one by one,
    // between the fill buffer and the DBQ.
    const bool parted = !self.sections_.empty();
    presence(self.loadCct_, self.branchCct_, self.maskCache_,
             self.uopCache_, self.fillBuffer_, parted, parted, parted,
             self.dbq_, self.cmq_);
    contents(self.loadCct_, self.branchCct_, self.maskCache_,
             self.uopCache_, self.fillBuffer_);
    for (auto &s : self.sections_)
        ar.io(s);
    contents(self.dbq_, self.cmq_);
    ar.io(self.cdfMode_, self.cdfDraining_, self.cdfCooldownUntil_,
          self.critRatCopied_, self.cdfStartTs_, self.regRenamedThroughTs_,
          self.critFetchPc_, self.critFetchBaseTs_, self.critOnPath_,
          self.critTraceValid_, self.critTrace_, self.critTraceIdx_,
          self.critCoveredUpTo_);
    ar.each(self.criticalByTs_, inst);
    ar.seq32(self.bbInfoQ_);
    ar.seq32(self.wpRecords_);
    ar.io(self.wpConsumeIdx_);
    ar.seq32(self.dbqCkpts_);
    ar.io(self.critWpStuck_);

    // PRE machinery.
    presence(self.stallTable_);
    contents(self.stallTable_);
    ar.io(self.raActive_, self.raEndCycle_, self.raPc_,
          self.raTraceValid_, self.raTrace_, self.raTraceIdx_,
          self.raTaint_, self.raBpCkpt_, self.raChainLoads_,
          self.raEpisodeLoads_, self.lastRetiredLoadAddr_,
          self.stallStartCycle_, self.stallCounting_);

    // Squash/violation deferred state.
    inst(ar, self.pendingMemViolation_);
    ar.io(self.pendingDepViolationTs_);

    // Measurement accounting that feeds result(). The stage profile
    // and skip bookkeeping are host-only and excluded by design.
    ar.io(self.measureStartCycle_, self.measureStartRetired_,
          self.mlpWhenActive_, self.uselessMlpWhenActive_,
          self.fig1CriticalFrac_, self.fullWindowStallCycles_,
          self.cdfModeCycles_);
}

void
Core::saveState(SnapWriter &w) const
{
    snapFields(*this, w);
}

void
Core::restoreState(SnapReader &r)
{
    snapFields(*this, r);

    // Host-only measurement state: reset rather than restored. The
    // idle-skip rate limiter restarts at "recheck immediately", which
    // is stat-transparent (skip decisions never touch the registry).
    profile_ = StageProfile{};
    skippedCycles_ = 0;
    skipEvents_ = 0;
    skipRecheckAt_ = 0;

    SIM_AUDIT_ONLY({
        auditRenameMaps();
        auditBranchStates();
        auditFrontend();
    })
}

void
Core::auditRenameMaps() const
{
    std::vector<std::uint8_t> seen(prf_.size(), 0);
    for (RegId a = 0; a < kNumArchRegs; ++a) {
        const RegId p = rat_.lookup(a);
        SIM_ASSERT(p < prf_.size(),
                   "regular RAT maps arch reg ", a,
                   " to out-of-range phys reg ", p);
        SIM_ASSERT(!seen[p],
                   "regular RAT maps two arch regs to phys reg ", p);
        seen[p] = 1;
    }
    for (RegId p : prf_.freeRegs()) {
        SIM_ASSERT(p < prf_.size(),
                   "free list holds out-of-range phys reg ", p);
        SIM_ASSERT(!seen[p],
                   "phys reg ", p,
                   " is both RAT-mapped and on the free list");
    }
    if (critRatCopied_) {
        std::vector<std::uint8_t> critSeen(prf_.size(), 0);
        for (RegId a = 0; a < kNumArchRegs; ++a) {
            const RegId p = critRat_.lookup(a);
            SIM_ASSERT(p < prf_.size(),
                       "critical RAT maps arch reg ", a,
                       " to out-of-range phys reg ", p);
            SIM_ASSERT(!critSeen[p],
                       "critical RAT maps two arch regs to phys reg ",
                       p);
            critSeen[p] = 1;
        }
    }
}

} // namespace cdfsim::ooo

/**
 * @file
 * CDF mode control and the critical fetch engine (paper Section
 * 3.3): the critical fetch logic walking Critical Uop Cache traces
 * with its own next-PC logic and branch prediction. The regular
 * stream, which replays the Delayed Branch Queue in CDF mode so both
 * streams follow one control-flow path, is the one regular fetch
 * loop of core.cc.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "ooo/core.hh"
#include "ooo/trace_env.hh"

namespace cdfsim::ooo
{

void
Core::applyPartitionCaps()
{
    if (sections_.empty())
        return;
    for (PartitionedSection &s : sections_)
        s.queue.setCriticalCap(s.part.criticalCap());
    // RS and PRF critical budgets scale with the ROB split
    // (Section 3.5).
    const unsigned rsCap = static_cast<unsigned>(
        static_cast<std::uint64_t>(config_.rsSize) * rob_.criticalCap() /
        config_.robSize);
    rs_.setCriticalCap(std::max(rsCap, 4u));
}

void
Core::releasePartitionCaps()
{
    // Gradual release: cap shrinks to current occupancy so pending
    // critical instructions drain, then to zero (Section 3.6,
    // "Exiting CDF mode").
    for (PartitionedSection &s : sections_) {
        s.queue.setCriticalCap(
            static_cast<unsigned>(s.queue.criticalOccupancy()));
    }
    rs_.setCriticalCap(
        static_cast<unsigned>(rs_.criticalOccupancy()));
}

bool
Core::capsReleasing() const
{
    return !cdfMode_ && !sections_.empty() && rob_.criticalCap() > 0;
}

void
Core::maybeEnterCdfMode(Addr pc, SeqNum seq)
{
    if (cdfMode_ || !uopCache_ || config_.mode != CoreMode::Cdf)
        return;
    if (now_ < cdfCooldownUntil_)
        return;
    // Do not start a new episode while the previous one's critical
    // instructions are still draining.
    if (!critQ_.empty() || !cmq_->empty() ||
        rob_.criticalOccupancy() > 0) {
        return;
    }
    const cdf::BbTrace *t = uopCache_->lookup(pc, now_);
    if (!t)
        return;

    SIM_ASSERT(dbq_->empty(), "stale DBQ entries at CDF entry: ",
               dbq_->size(), " oldest ts ",
               dbq_->empty() ? 0 : dbq_->front().ts);
    SIM_ASSERT(bbInfoQ_.empty() && dbqCkpts_.empty(),
               "stale criticality blocks or DBQ checkpoints at CDF entry");

    cdfMode_ = true;
    cdfDraining_ = false;
    ++statCdfEpisodes_;

    cdfStartTs_ = seq;
    critRatCopied_ = false;

    // The regular stream keeps its cursor (nextFetchTs_ == seq, on
    // path); critical fetch starts at the same block.
    restartCriticalFetch(pc, seq);
    criticalByTs_.clear();

    applyPartitionCaps();
}

void
Core::beginCdfExit()
{
    cdfDraining_ = true;
    critTraceValid_ = false;
    cdfCooldownUntil_ = now_ + config_.cdf.reentryCooldown;
}

/**
 * Drop critical uops still waiting in critQ_ and demote their
 * regular-stream copies to normal renaming. Once CDF mode ends the
 * poison machinery is off, so letting them rename through the (now
 * stale) critical RAT would silently miss dependence violations.
 */
void
Core::drainCriticalFrontend()
{
    // Both queues are strictly ts-ordered (auditFrontend checks it),
    // so one forward pass over frontQ_ meets every dropped uop's
    // regular-stream copy.
    std::size_t copyIdx = 0;
    while (!critQ_.empty()) {
        DynInst *inst = critQ_.pop();
        if (traceTs(inst->ts))
            std::fprintf(stderr, "[%lu] DROP ts=%lu\n", now_,
                         inst->ts);
        while (copyIdx < frontQ_.size() &&
               frontQ_.at(copyIdx)->ts < inst->ts)
            ++copyIdx;
        if (copyIdx < frontQ_.size()) {
            DynInst *copy = frontQ_.at(copyIdx);
            if (copy->ts == inst->ts && copy->critical &&
                copy->cdfFetched) {
                if (traceTs(copy->ts))
                    std::fprintf(stderr, "[%lu] DEMOTE ts=%lu\n", now_,
                                 copy->ts);
                copy->critical = false;
            }
        }
        destroyInst(inst);
    }
    critRatCopied_ = false;
}

void
Core::restartCriticalFetch(Addr pc, SeqNum ts)
{
    critFetchPc_ = pc;
    critFetchBaseTs_ = ts;
    critCoveredUpTo_ = ts;
    critOnPath_ = true;
    walker_.deactivate(); // in CDF mode only critical fetch holds it
    critTraceValid_ = false;
    critTraceIdx_ = 0;
    critWpStuck_ = false;
    wpRecords_.clear();
    wpConsumeIdx_ = 0;
}

/**
 * Leave CDF mode, on the graceful exit and (via abortCdfMode) on a
 * flush. The regular stream needs no redirect: it fetches from the
 * same cursor in every mode and, here, stands at a basic-block start,
 * where the next CDF entry is checked.
 */
void
Core::finishCdfExit()
{
    SIM_ASSERT(cdfMode_, "finishCdfExit outside CDF mode");
    cdfMode_ = false;
    cdfDraining_ = false;
    drainCriticalFrontend();
    // Nothing critical fetch handed the regular stream outlives the
    // episode: outside CDF mode the criticality queue stays empty.
    restartCriticalFetch(critFetchPc_, critCoveredUpTo_);
    bbInfoQ_.clear();
    clearDbqCkpts();
    rat_.clearAllPoison();
    fetchAtBbStart_ = true;
    // Note: the CMQ may still hold entries for critical uops that
    // are fetched but not yet replayed by regular rename; rename
    // keeps draining it. The partition shrinks as the remaining
    // critical instructions retire (handled in statsStage).
}

void
Core::abortCdfMode()
{
    if (!cdfMode_)
        return;
    cdfCooldownUntil_ = now_ + config_.cdf.reentryCooldown;
    // Keep the DBQ/CMQ contents that survived the flush: regular
    // stream copies already fetched still need their replays for
    // critical uops that made it into the backend.
    finishCdfExit();
    releasePartitionCaps();
}

// ---------------------------------------------------------------------
// Critical fetch engine
// ---------------------------------------------------------------------

void
Core::fetchCriticalCdf(unsigned &budget)
{
    // A stuck wrong path idles until the pending mispredict recovery
    // redirects; every other reason to stop also returns at once.
    while (budget > 0 && !criticalFetchIdle()) {
        // Acquire (and copy) the trace for the block at the cursor.
        if (!critTraceValid_) {
            const cdf::BbTrace *t =
                uopCache_->lookup(critFetchPc_, now_);
            if (!t) {
                ++statCdfExitsUopMiss_;
                beginCdfExit();
                return;
            }
            critTrace_ = *t;
            critTraceValid_ = true;
            critTraceIdx_ = 0;

            if (!critOnPath_) {
                // Wrong path: functionally walk the whole block now
                // so the regular stream has records to consume; they
                // stay in walkedBlock_ while this block is fetched.
                // Commit records only if the whole block is walkable.
                if (!walkBlock(critTrace_)) {
                    critTraceValid_ = false;
                    critWpStuck_ = true;
                    return;
                }
                for (const isa::ExecRecord &rec : walkedBlock_)
                    wpRecords_.push_back({rec, nextWrongPathTs_++});
            }
            // Publish this BB's criticality bits for the regular
            // fetch stream, on path and off.
            BbInfo info;
            info.baseTs = critFetchBaseTs_;
            info.critBits.assign(critTrace_.blockLength, false);
            for (const auto &tu : critTrace_.uops)
                info.critBits[tu.offsetInBlock] = true;
            bbInfoQ_.push_back(std::move(info));
        }

        const unsigned len = critTrace_.blockLength;
        const bool lastUopIsBranch = critTrace_.endsInBranch;

        // Emit critical uops of the current trace. The terminating
        // branch (if critical) is emitted during finalization below
        // so its prediction state is attached atomically.
        while (critTraceIdx_ < critTrace_.uops.size()) {
            const cdf::TraceUop &tu = critTrace_.uops[critTraceIdx_];
            if (lastUopIsBranch && tu.offsetInBlock == len - 1)
                break; // leave the branch for finalization
            if (budget == 0 || critQ_.full())
                return;

            const SeqNum ts = critFetchBaseTs_ + tu.offsetInBlock;
            if (critOnPath_ && !oracle_.hasRecord(ts)) {
                beginCdfExit(); // program ends inside this block
                return;
            }
            const isa::ExecRecord &rec =
                critOnPath_ ? oracle_.at(ts) : walkedBlock_[tu.offsetInBlock];
            SIM_ASSERT(rec.pc == critTrace_.startPc + tu.offsetInBlock,
                       "critical fetch desynchronized from its records");

            DynInst *inst = makeInst(rec, ts, critOnPath_);
            inst->critical = true;
            inst->criticalStream = true;
            inst->cdfFetched = true;
            critQ_.push(inst);
            --budget;
            ++critTraceIdx_;
        }

        // Finalize the basic block.
        if (!lastUopIsBranch) {
            // Halt-terminated (or unchainable) block: stop fetching
            // critical uops and drain (Section 3.6).
            if (critOnPath_)
                critCoveredUpTo_ = critFetchBaseTs_ + len;
            beginCdfExit();
            return;
        }

        const bool branchCritical =
            !critTrace_.uops.empty() &&
            critTrace_.uops.back().offsetInBlock == len - 1;
        if (branchCritical && (budget == 0 || critQ_.full()))
            return; // need a slot for the branch uop next cycle

        // Predict the block-terminating branch exactly once
        // (Section 3.3) and log it in the DBQ.
        const Addr branchPc = critTrace_.branchPc;
        const isa::Uop &buop = oracle_.program().at(branchPc);
        SIM_ASSERT(buop.isBranch(), "trace branchPc is not a branch");

        const std::uint32_t state = checkpointBranch();
        bp::BranchPrediction pred = bp_.predict(branchPc, buop);

        const SeqNum branchTs = critFetchBaseTs_ + len - 1;
        if (critOnPath_ && !oracle_.hasRecord(branchTs)) {
            branchStates_.free(state);
            beginCdfExit();
            return;
        }
        const isa::ExecRecord &brec =
            critOnPath_ ? oracle_.at(branchTs) : walkedBlock_[len - 1];
        const bool misp = critOnPath_ &&
                          (pred.taken != brec.taken ||
                           (pred.taken && pred.target != brec.nextPc));

        dbq_->push({branchTs, pred.taken, pred.target});

        if (branchCritical) {
            DynInst *binst = makeInst(brec, branchTs, critOnPath_);
            binst->critical = true;
            binst->criticalStream = true;
            binst->cdfFetched = true;
            binst->branchState = state;
            branchStates_.at(state).tageInfo = pred.tageInfo;
            binst->predTaken = pred.taken;
            binst->predTarget = pred.target;
            binst->btbMissBubble = pred.btbMiss;
            binst->mispredicted = misp;
            critQ_.push(binst);
            --budget;
            ++statBranches_;
        } else {
            // The regular-stream copy trains with a default TAGE
            // stash: pred.tageInfo is deliberately not kept here.
            dbqCkpts_.push_back({branchTs, state, pred.btbMiss});
        }

        const Addr nextPc = pred.taken ? pred.target : branchPc + 1;
        if (critOnPath_)
            critCoveredUpTo_ = critFetchBaseTs_ + len;
        if (misp) {
            critOnPath_ = false;
            beginWrongPath(branchTs);
        }
        // Off path too: the wrong path is numbered from branchTs + 1.
        critFetchBaseTs_ += len;
        critFetchPc_ = nextPc;
        critTraceValid_ = false;
        critTraceIdx_ = 0;

        // Chaining to the next trace costs one slot of uop-cache
        // bandwidth even when the block contributed no critical
        // uops; this also bounds the loop for all-empty regions.
        if (budget > 0)
            --budget;

        if (pred.btbMiss) {
            // Target resolves a stage later: charge a bubble.
            budget = 0;
        }
    }
}

} // namespace cdfsim::ooo

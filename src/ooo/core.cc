#include "ooo/core.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "ooo/trace_env.hh"

namespace cdfsim::ooo
{

namespace
{

/** Uops per instruction cache line (8B encoding per uop). */
constexpr Addr kUopsPerLine = kLineBytes / 8;

} // namespace

Core::Core(const CoreConfig &config, const isa::Program &program,
           isa::MemoryImage &memory, StatRegistry &stats)
    : config_(config),
      stats_(stats),
      oracle_(program, memory),
      walker_(program, memory),
      mem_(config.mem, stats),
      bp_(config.bp, stats),
      prf_(config.physRegs),
      rob_(config.robSize),
      lsq_(config.lqSize, config.sqSize),
      rs_(config.rsSize),
      frontQ_(config.fetchQueueSize),
      critQ_(config.fetchQueueSize),
      statCycles_(stats.counter("core.cycles")),
      statRetired_(stats.counter("core.retired_instrs")),
      statFetched_(stats.counter("core.fetched_uops")),
      statFetchedWrongPath_(stats.counter("core.fetched_wrongpath_uops")),
      statRenamed_(stats.counter("core.renamed_uops")),
      statRenamedCritical_(stats.counter("core.renamed_critical_uops")),
      statIssued_(stats.counter("core.issued_uops")),
      statBranches_(stats.counter("core.branches")),
      statMispredicts_(stats.counter("core.mispredicts")),
      statLlcMissLoads_(stats.counter("core.llc_miss_loads")),
      statDepViolations_(stats.counter("core.dependence_violations")),
      statMemOrderViolations_(
          stats.counter("core.memory_order_violations")),
      statCdfEpisodes_(stats.counter("core.cdf_episodes")),
      statCdfExitsUopMiss_(stats.counter("core.cdf_exits_uop_miss")),
      statRunaheadEpisodes_(stats.counter("core.runahead_episodes")),
      statRunaheadUops_(stats.counter("core.runahead_uops")),
      statRunaheadLoads_(stats.counter("core.runahead_loads")),
      statRunaheadTraceMiss_(
          stats.counter("core.runahead_trace_misses"))
{
    if (config_.physRegs < config_.robSize + kNumArchRegs) {
        fatal("physRegs (", config_.physRegs,
              ") must cover ROB + architectural state");
    }

    regWaiters_.resize(config_.physRegs);
    completions_.reserve(config_.robSize + 8);
    completionsScratch_.reserve(config_.robSize + 8);
    mem_.enableProfile(config_.profileStages);

    const bool wantsCdfStructures =
        config_.mode == CoreMode::Cdf || config_.observeCriticality;

    if (wantsCdfStructures) {
        loadCct_ = std::make_unique<cdf::CriticalCountTable>(
            config_.cdf.loadTable, stats_, "cct_loads");
        branchCct_ = std::make_unique<cdf::CriticalCountTable>(
            config_.cdf.branchTable, stats_, "cct_branches");
        maskCache_ =
            std::make_unique<cdf::MaskCache>(config_.cdf.maskCache, stats_);
        uopCache_ = std::make_unique<cdf::CriticalUopCache>(
            config_.cdf.uopCache, stats_);
        fillBuffer_ = std::make_unique<cdf::FillBuffer>(
            config_.cdf.fillBuffer, *maskCache_, *uopCache_, stats_);
    }

    if (config_.mode == CoreMode::Cdf) {
        const auto &p = config_.cdf.partition;
        const auto addSection = [&](const char *name, SectionedQueue &q,
                                    unsigned step, unsigned minSection) {
            sections_.push_back(
                {q, cdf::SectionPartition(name, q.size(), step, minSection,
                                          p.stallThreshold, p.dynamic,
                                          p.initialCriticalFrac, stats_)});
        };
        sections_.reserve(3);
        addSection("rob", rob_, p.robStep, p.minSection);
        addSection("lq", lsq_.lq(), p.lsqStep, p.minLsqSection);
        addSection("sq", lsq_.sq(), p.lsqStep, p.minLsqSection);
        dbq_ = std::make_unique<cdf::DelayedBranchQueue>(
            config_.cdf.dbqEntries);
        cmq_ = std::make_unique<cdf::CriticalMapQueue>(
            config_.cdf.cmqEntries);
    }

    if (config_.mode != CoreMode::Cdf) {
        // No RS partitioning outside CDF; observational criticality
        // marks (Fig. 1 mode) must not trip the critical cap.
        rs_.setCriticalCap(config_.rsSize);
    }

    if (config_.mode == CoreMode::Pre) {
        stallTable_ = std::make_unique<cdf::CriticalCountTable>(
            config_.pre.stallTable, stats_, "pre_stall_table");
        maskCache_ =
            std::make_unique<cdf::MaskCache>(config_.pre.maskCache, stats_);
        uopCache_ = std::make_unique<cdf::CriticalUopCache>(
            config_.pre.uopCache, stats_);
        fillBuffer_ = std::make_unique<cdf::FillBuffer>(
            config_.pre.fillBuffer, *maskCache_, *uopCache_, stats_);
    }
}

Core::~Core() = default;

// ---------------------------------------------------------------------
// Instruction lifecycle
// ---------------------------------------------------------------------

DynInst *
Core::makeInst(const isa::ExecRecord &rec, SeqNum ts, bool onPath)
{
    const std::uint32_t idx = inflightPool_.allocate();
    DynInst *inst = &inflightPool_.at(idx);
    inst->poolIdx = idx;
    inst->prevIdx = inflightTail_;
    if (inflightTail_ != kNoInst)
        inflightPool_.at(inflightTail_).nextIdx = idx;
    else
        inflightHead_ = idx;
    inflightTail_ = idx;

    inst->fetchSeq = fetchSeqCounter_++;
    inst->ts = ts;
    inst->pc = rec.pc;
    inst->uop = rec.uop;
    inst->onPath = onPath;
    inst->memAddr = rec.memAddr;
    inst->taken = rec.taken;
    inst->actualTarget = rec.nextPc;
    inst->fetchCycle = now_;
    inst->readyAtRename = now_ + config_.frontendDepth;

    ++statFetched_;
    if (!onPath)
        ++statFetchedWrongPath_;
    if (traceTs(ts)) {
        std::fprintf(stderr,
                     "[%lu] MAKE ts=%lu pc=%lu onPath=%d %s\n", now_,
                     ts, rec.pc, onPath,
                     isa::toString(rec.uop).c_str());
    }
    return inst;
}

void
Core::destroyInst(DynInst *inst)
{
    if (inst->prevIdx != kNoInst)
        inflightPool_.at(inst->prevIdx).nextIdx = inst->nextIdx;
    else
        inflightHead_ = inst->nextIdx;
    if (inst->nextIdx != kNoInst)
        inflightPool_.at(inst->nextIdx).prevIdx = inst->prevIdx;
    else
        inflightTail_ = inst->prevIdx;
    if (inst->branchState != kNoBranchState)
        branchStates_.free(inst->branchState);
    inflightPool_.free(inst->poolIdx);
}

std::uint32_t
Core::checkpointBranch()
{
    const std::uint32_t h = branchStates_.allocate();
    branchStates_.at(h).ckpt = bp_.checkpoint();
    return h;
}

void
Core::clearDbqCkpts()
{
    for (const DbqCheckpoint &c : dbqCkpts_)
        branchStates_.free(c.state);
    dbqCkpts_.clear();
}

// ---------------------------------------------------------------------
// Tick and run
// ---------------------------------------------------------------------

const char *
StageProfile::name(unsigned stage)
{
    static const char *const kNames[kNumStages] = {
        "retire", "completion", "execute", "rename", "fetch", "stats",
        "skip",
    };
    SIM_ASSERT(stage < kNumStages, "bad stage");
    return kNames[stage];
}

void
Core::tickProfiled()
{
    using clock = std::chrono::steady_clock;
    auto last = clock::now();
    auto lap = [&](StageProfile::Stage s) {
        const auto t = clock::now();
        profile_.ns[s] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - last)
                .count());
        last = t;
    };

    ++profile_.ticks;
    retireStage();
    lap(StageProfile::Retire);
    if (halted_)
        return;
    completionStage();
    lap(StageProfile::Completion);
    executeStage();
    lap(StageProfile::Execute);
    renameStage();
    lap(StageProfile::Rename);
    fetchStage();
    lap(StageProfile::Fetch);
    statsStage();
    lap(StageProfile::Stats);
}

void
Core::tick()
{
    ++now_;
    ++statCycles_;

    if (config_.profileStages) {
        tickProfiled();
    } else {
        retireStage();
        if (halted_)
            return;
        completionStage();
        executeStage();
        renameStage();
        fetchStage();
        statsStage();
    }
    if (halted_)
        return;

    if (config_.deadlockCycles != 0 &&
        now_ - lastRetireCycle_ > config_.deadlockCycles) {
        const DynInst *h = rob_.head();
        const DynInst *fq =
            frontQ_.empty() ? nullptr : frontQ_.front();
        panic("deadlock: no retirement for ", config_.deadlockCycles,
              " cycles at cycle ", now_, " retired=", retiredInstrs_,
              " robOcc=", rob_.occupancy(),
              " robCritOcc=", rob_.criticalOccupancy(),
              " robCritCap=", rob_.criticalCap(),
              " cdfMode=", cdfMode_, " draining=", cdfDraining_,
              " head=",
              h ? std::to_string(h->ts) + "/st" +
                      std::to_string(static_cast<int>(h->state)) +
                      "/crit" + std::to_string(h->criticalStream) +
                      "/rr" + std::to_string(h->renamedRegular)
                : "none",
              " frontQ=", frontQ_.size(),
              " front=",
              fq ? std::to_string(fq->ts) + "/crit" +
                       std::to_string(fq->critical)
                 : "none",
              " critQ=", critQ_.size(), " cmq=",
              cmq_ ? std::to_string(cmq_->size()) : "-", " dbq=",
              dbq_ ? std::to_string(dbq_->size()) : "-",
              " covered=", critCoveredUpTo_,
              " nextFetchTs=", nextFetchTs_, " wrongPath=", wrongPath_,
              " fetchHalt=", fetchDoneHalt_, " stallUntil=",
              fetchStallUntil_, " raActive=", raActive_,
              " rsOcc=", rs_.occupancy(), " prfFree=", prf_.numFree(),
              " critStuck=", critWpStuck_, " headUop=",
              h ? isa::toString(h->uop) : "-", " s1=",
              h ? std::to_string(h->physSrc1) + "@" +
                      std::to_string(prf_.readyAt(
                          h->physSrc1 == kInvalidReg ? 0
                                                     : h->physSrc1))
                : "-",
              " s2=",
              h ? std::to_string(h->physSrc2) + "@" +
                      std::to_string(prf_.readyAt(
                          h->physSrc2 == kInvalidReg ? 0
                                                     : h->physSrc2))
                : "-");
    }
}

CoreResult
Core::run(std::uint64_t maxRetired, Cycle maxCycles)
{
    while (!halted_ && retiredInstrs_ < maxRetired &&
           now_ < maxCycles) {
        // Fast-forward provably dead cycles. On a jump, re-check the
        // loop condition (the budget may expire inside the gap); the
        // following tick() then executes the event cycle normally.
        // The quiescence scan is gated on cheap heuristics so busy
        // phases pay a compare, not a scan: a cycle that retired
        // cannot be the start of a dead window, and a failed scan
        // rate-limits itself (skipRecheckAt_). Gating only delays
        // skips — the skipped cycles are pure no-ops either way — so
        // stats stay bit-identical.
        if (config_.skipIdleCycles && now_ > lastRetireCycle_ &&
            now_ >= skipRecheckAt_ && maybeSkipIdleCycles(maxCycles))
            continue;
        tick();
    }
    // Ticking and skipping prune the completion rings at different
    // cycles; settling them here makes a snapshot taken between runs
    // independent of skipIdleCycles.
    mem_.pruneCompleted(now_);
    return result();
}

void
Core::resetMeasurement()
{
    stats_.resetAll();
    measureStartCycle_ = now_;
    measureStartRetired_ = retiredInstrs_;
    mlpWhenActive_.reset();
    uselessMlpWhenActive_.reset();
    fig1CriticalFrac_.reset();
    fullWindowStallCycles_ = 0;
    cdfModeCycles_ = 0;
    skippedCycles_ = 0;
    skipEvents_ = 0;
}

CoreResult
Core::result() const
{
    CoreResult r;
    r.retiredInstrs = retiredInstrs_ - measureStartRetired_;
    r.cycles = now_ - measureStartCycle_;
    r.ipc = r.cycles == 0
                ? 0.0
                : static_cast<double>(r.retiredInstrs) /
                      static_cast<double>(r.cycles);
    r.mlp = mlpWhenActive_.mean();
    r.uselessMlp = uselessMlpWhenActive_.mean();
    r.dramBytes = stats_.get("dram.bytes_read") +
                  stats_.get("dram.bytes_written");
    const double kinstr =
        r.retiredInstrs == 0 ? 1.0 : r.retiredInstrs / 1000.0;
    r.branchMpki = static_cast<double>(statMispredicts_) / kinstr;
    r.llcMpki = static_cast<double>(statLlcMissLoads_) / kinstr;
    r.cdfModeFraction =
        r.cycles == 0 ? 0.0
                      : static_cast<double>(cdfModeCycles_) / r.cycles;
    r.fullWindowStallFraction =
        r.cycles == 0
            ? 0.0
            : static_cast<double>(fullWindowStallCycles_) / r.cycles;
    r.robCriticalFraction = fig1CriticalFrac_.mean();
    r.halted = halted_;
    return r;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
Core::frontStopped() const
{
    return fetchDoneHalt_ || fetchStallUntil_ > now_;
}

/**
 * Gate fetch on the instruction cache: crossing into a new line
 * costs an I-cache access; a miss stalls fetch until the fill.
 * Returns false when fetch must stop this cycle.
 */
bool
Core::icacheGate(Addr pc, unsigned &budget)
{
    const Addr line = pc / kUopsPerLine;
    if (line == lastFetchLine_)
        return true;
    const Cycle ready = mem_.instrAccess(pc, now_);
    lastFetchLine_ = line;
    if (ready > now_ + config_.mem.l1i.latency) {
        fetchStallUntil_ = ready;
        budget = 0;
        return false;
    }
    return true;
}

void
Core::fetchStage()
{
    SIM_AUDIT_ONLY(if (fetchAudit_.due()) auditFrontend();)
    if (raActive_ && now_ >= raEndCycle_)
        exitRunahead();

    if (frontStopped())
        return;

    unsigned budget = config_.width;

    if (raActive_) {
        // Precise Runahead: the frontend fetches stalling slices from
        // the uop cache instead of the normal stream.
        runaheadStep(budget);
        return;
    }

    if (!criticalFetchIdle()) {
        // Both fetch engines run in parallel with their own
        // bandwidth (separate structures: uop cache vs I-cache).
        unsigned critBudget = config_.width;
        fetchCriticalCdf(critBudget);
    }
    fetchRegular(budget);
}

bool
Core::criticalFetchIdle() const
{
    return !cdfMode_ || cdfDraining_ || critWpStuck_ || critQ_.full() ||
           dbq_->full();
}

/**
 * Where the regular stream's next record comes from: the oracle at
 * nextFetchTs_ while on path (in CDF mode only what critical fetch
 * already covered), past a misprediction wpRecords_ (outside CDF mode
 * this stream walks the next record into it at wrongPathPc_). A
 * branch in CDF mode also needs its DBQ entry: the regular stream
 * replays critical fetch's prediction instead of making its own.
 */
Core::RegularFetch
Core::regularFetchReady()
{
    if (frontQ_.full())
        return RegularFetch::Wait;

    if (!cdfMode_) {
        if (!wrongPath_) {
            return oracle_.hasRecord(nextFetchTs_) ? RegularFetch::Record
                                                   : RegularFetch::OracleDry;
        }
        // Fetching garbage or a halt: stall until recovery. A record
        // buffered across the I-cache gate is still at wrongPathPc_.
        return walkable(wrongPathPc_) ? RegularFetch::Record
                                      : RegularFetch::Wait;
    }

    // Graceful exit: the regular stream caught up with the critical
    // fetch and no delayed branches remain.
    const bool wpDrained = wpConsumeIdx_ >= wpRecords_.size();
    if (cdfDraining_ && !wrongPath_ && nextFetchTs_ >= critCoveredUpTo_ &&
        wpDrained)
        return RegularFetch::CdfExit;

    // Critical fetch leads on path and walks the wrong path.
    if (wrongPath_ ? wpDrained : nextFetchTs_ >= critCoveredUpTo_)
        return RegularFetch::Wait;
    const isa::ExecRecord &rec = wrongPath_ ? wpRecords_[wpConsumeIdx_].rec
                                            : oracle_.at(nextFetchTs_);
    if (rec.uop.isBranch() && dbq_->empty())
        return RegularFetch::Wait; // no direction to follow yet
    return RegularFetch::Record;
}

/**
 * The regular fetch stream of every mode (paper Section 3.3: in CDF
 * mode it is the ordinary fetch engine, steered by the DBQ). Outside
 * CDF mode a branch is predicted and checkpointed here; in it, its
 * direction is the DBQ head and its checkpoint the one critical fetch
 * took.
 */
void
Core::fetchRegular(unsigned &budget)
{
    while (budget > 0) {
        switch (regularFetchReady()) {
        case RegularFetch::Record:
            break;
        case RegularFetch::Wait:
            return;
        case RegularFetch::OracleDry:
            fetchDoneHalt_ = true;
            return;
        case RegularFetch::CdfExit:
            finishCdfExit();
            return;
        }

        const bool onPath = !wrongPath_;
        if (!onPath && !cdfMode_ && wpConsumeIdx_ == wpRecords_.size()) {
            // Outside CDF mode this stream walks its own wrong path,
            // one record deep (each branch's prediction picks the next
            // PC); the record waits here until the I-cache gate passes.
            wpRecords_.assign(1, {walker_.execute(wrongPathPc_),
                                  nextWrongPathTs_++});
            wpConsumeIdx_ = 0;
        }
        const WpRecord *wp = onPath ? nullptr : &wpRecords_[wpConsumeIdx_];
        const SeqNum ts = onPath ? nextFetchTs_ : wp->ts;
        const isa::ExecRecord &rec = onPath ? oracle_.at(ts) : wp->rec;

        if (onPath && !cdfMode_ && fetchAtBbStart_) {
            // CDF entry check at basic-block starts.
            maybeEnterCdfMode(rec.pc, ts);
            if (cdfMode_)
                return;
        }

        // Criticality bits critical fetch published for this block
        // (none outside CDF mode).
        while (!bbInfoQ_.empty() && ts >= bbInfoQ_.front().end())
            bbInfoQ_.pop_front();
        const BbInfo *bb = bbInfoQ_.empty() ? nullptr : &bbInfoQ_.front();
        const bool critical =
            bb && ts >= bb->baseTs && bb->critBits[ts - bb->baseTs];

        if (!icacheGate(rec.pc, budget))
            return;

        DynInst *inst = makeInst(rec, ts, onPath);
        inst->cdfFetched = cdfMode_;
        inst->critical = critical;

        // Fig. 1 observation: mark using the trained mask cache.
        if (config_.observeCriticality && maskCache_ && !cdfMode_) {
            if (fetchAtBbStart_) {
                fetchBbStartPc_ = rec.pc;
                fetchBbOffset_ = 0;
            }
            auto mask = maskCache_->lookup(fetchBbStartPc_);
            if (mask && fetchBbOffset_ < 64 &&
                ((*mask >> fetchBbOffset_) & 1)) {
                inst->critical = true;
            }
        }

        Addr followPc = rec.pc + 1; // where this stream goes next
        bool endGroup = false;
        if (inst->isBranch()) {
            if (cdfMode_) {
                const cdf::DbqEntry dbqEntry = dbq_->front();
                SIM_ASSERT(dbqEntry.ts == ts, "DBQ head out of sync: ",
                           dbqEntry.ts, " vs ", ts);
                dbq_->pop();
                inst->predTaken = dbqEntry.taken;
                inst->predTarget = dbqEntry.target;
                if (!critical) {
                    // Non-critical branch: it executes in the backend
                    // via the regular stream and takes over the branch
                    // state checkpointed at critical-fetch prediction
                    // time. Entries are ts-ordered, so the match is
                    // usually the oldest.
                    auto it = std::find_if(
                        dbqCkpts_.begin(), dbqCkpts_.end(),
                        [&](const DbqCheckpoint &c) { return c.ts == ts; });
                    if (it != dbqCkpts_.end()) {
                        inst->branchState = it->state;
                        inst->btbMissBubble = it->btbMiss;
                        dbqCkpts_.erase(it);
                    }
                    ++statBranches_;
                }
            } else {
                ++statBranches_;
                inst->branchState = checkpointBranch();
                const auto pred = bp_.predict(rec.pc, rec.uop);
                inst->predTaken = pred.taken;
                inst->predTarget = pred.target;
                inst->btbMissBubble = pred.btbMiss;
                if (pred.taken)
                    endGroup = true;
                if (pred.btbMiss) {
                    fetchStallUntil_ = now_ + config_.btbMissPenalty;
                    endGroup = true;
                }
            }
            if (inst->predTaken)
                followPc = inst->predTarget;

            if (onPath) {
                const bool wrong = inst->predTaken != rec.taken ||
                                   (inst->predTaken &&
                                    inst->predTarget != rec.nextPc);
                // A critical branch's copy in the critical stream
                // owns the mispredict flag.
                inst->mispredicted = wrong && !critical;
                if (wrong) {
                    wrongPath_ = true;
                    // In CDF mode critical fetch already diverged here
                    // and walks the wrong path for both streams.
                    if (!cdfMode_)
                        beginWrongPath(ts);
                }
            }
            fetchAtBbStart_ = true;
        } else {
            fetchAtBbStart_ = false;
            if (rec.uop.isHalt()) {
                fetchDoneHalt_ = true;
                endGroup = true;
            }
        }
        ++fetchBbOffset_; // a branch occupies a slot in its block

        // Advance the cursor of the source the record came from.
        if (onPath)
            nextFetchTs_ = ts + 1;
        else
            ++wpConsumeIdx_;
        if (wrongPath_ && !cdfMode_)
            wrongPathPc_ = followPc;

        frontQ_.push(inst);
        --budget;
        if (endGroup)
            return;
    }
}

void
Core::beginWrongPath(SeqNum branchTs)
{
    walker_.restart(oracle_.frontierRegs());
    nextWrongPathTs_ = branchTs + 1;
}

bool
Core::walkable(Addr pc) const
{
    const isa::Program &prog = oracle_.program();
    return prog.validPc(pc) && !prog.at(pc).isHalt();
}

bool
Core::walkBlock(const cdf::BbTrace &trace)
{
    walkedBlock_.clear();
    for (unsigned off = 0; off < trace.blockLength; ++off) {
        const Addr pc = trace.startPc + off;
        if (!walkable(pc))
            return false;
        walkedBlock_.push_back(walker_.execute(pc));
    }
    return true;
}

void
Core::auditFrontend() const
{
    const bool held = (!cdfMode_ && wrongPath_) ||
                      (cdfMode_ && !critOnPath_) || raActive_;
    SIM_ASSERT(walker_.active() == held, "wrong-path walker is ",
               walker_.active() ? "active" : "inactive", " but ",
               held ? "a user holds it" : "no user holds it",
               " (cdfMode=", cdfMode_, " wrongPath=", wrongPath_,
               " critOnPath=", critOnPath_, " raActive=", raActive_, ")");

    const auto checkOrder = [](const CircularQueue<DynInst *> &q,
                               const char *what) {
        for (std::size_t i = 1; i < q.size(); ++i) {
            SIM_ASSERT(q.at(i - 1)->ts < q.at(i)->ts, what, " entry ", i,
                       " (ts ", q.at(i)->ts, ") is not younger than ts ",
                       q.at(i - 1)->ts);
        }
    };
    checkOrder(frontQ_, "frontQ");
    checkOrder(critQ_, "critQ");

    for (std::size_t i = 1; i < wpRecords_.size(); ++i) {
        SIM_ASSERT(wpRecords_[i - 1].ts < wpRecords_[i].ts,
                   "wrong-path record ", i, " (ts ", wpRecords_[i].ts,
                   ") is not younger than ts ", wpRecords_[i - 1].ts);
    }
    SIM_ASSERT(wpConsumeIdx_ <= wpRecords_.size(),
               "wrong-path consume index ", wpConsumeIdx_,
               " is past the ", wpRecords_.size(), " buffered records");

    for (std::size_t i = 1; i < bbInfoQ_.size(); ++i) {
        SIM_ASSERT(bbInfoQ_[i - 1].end() <= bbInfoQ_[i].baseTs,
                   "criticality block at ts ", bbInfoQ_[i].baseTs,
                   " overlaps the one before it");
    }
    // In CDF mode every wrong-path record critical fetch buffered
    // has its block's criticality bits published.
    std::size_t b = 0;
    for (std::size_t i = wpConsumeIdx_; cdfMode_ && i < wpRecords_.size();
         ++i) {
        const SeqNum ts = wpRecords_[i].ts;
        while (b < bbInfoQ_.size() && ts >= bbInfoQ_[b].end())
            ++b;
        SIM_ASSERT(b < bbInfoQ_.size() && ts >= bbInfoQ_[b].baseTs,
                   "wrong-path record ts ", ts, " is in no criticality block");
    }
}

void
Core::statsStage()
{
    // MLP sampling (Fig. 14): outstanding DRAM misses when active.
    const unsigned demand = mem_.outstandingDemandMisses(now_);
    const unsigned useless = mem_.outstandingUselessMisses(now_);
    if (demand + useless > 0) {
        mlpWhenActive_.add(static_cast<double>(demand + useless));
        uselessMlpWhenActive_.add(static_cast<double>(useless));
    }
    if (cdfMode_)
        ++cdfModeCycles_;

    // After a CDF episode ends, the critical sections shrink as
    // their instructions retire (Section 3.6). Pending critical
    // uops in critQ_ still need slots, so release only once the
    // critical frontend has drained.
    if (capsReleasing() && critQ_.empty())
        releasePartitionCaps();

    // Dynamic partition evaluation (Section 3.5).
    if (cdfMode_) {
        for (PartitionedSection &s : sections_) {
            s.part.evaluate(
                static_cast<unsigned>(s.queue.criticalOccupancy()),
                static_cast<unsigned>(s.queue.nonCriticalOccupancy()));
        }
        applyPartitionCaps();
    }
}

} // namespace cdfsim::ooo

/**
 * @file
 * The execution-driven, cycle-level out-of-order core, with the CDF
 * mechanism (paper Section 3) and the Precise Runahead comparator
 * (Section 4.1) integrated into its pipeline.
 *
 * The timing model binds every correct-path instruction to the
 * functional oracle, so the retired instruction stream is correct by
 * construction and checked by assertion (timestamps must retire
 * contiguously). Wrong-path fetch is modelled functionally through
 * WrongPathWalker so speculative memory traffic is realistic.
 */

#ifndef CDFSIM_OOO_CORE_HH
#define CDFSIM_OOO_CORE_HH

#include <array>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "bp/predictor.hh"
#include "cdf/critical_table.hh"
#include "common/audit.hh"
#include "cdf/fifos.hh"
#include "cdf/fill_buffer.hh"
#include "cdf/mask_cache.hh"
#include "cdf/partition.hh"
#include "cdf/uop_cache.hh"
#include "common/circular_queue.hh"
#include "common/flat_map.hh"
#include "common/pool.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "isa/oracle.hh"
#include "mem/hierarchy.hh"
#include "ooo/core_config.hh"
#include "ooo/dyn_inst.hh"
#include "ooo/lsq.hh"
#include "ooo/rename.hh"
#include "ooo/rs.hh"
#include "ooo/sectioned_queue.hh"

namespace cdfsim::ooo
{

/** Aggregate results of a simulation run. */
struct CoreResult
{
    std::uint64_t retiredInstrs = 0;
    Cycle cycles = 0;
    double ipc = 0.0;
    double mlp = 0.0;            //!< mean outstanding DRAM misses (>0)
    double uselessMlp = 0.0;     //!< wrong-path share of outstanding
    std::uint64_t dramBytes = 0;
    double branchMpki = 0.0;
    double llcMpki = 0.0;
    double cdfModeFraction = 0.0;   //!< cycles in CDF mode
    double fullWindowStallFraction = 0.0;
    double robCriticalFraction = 0.0; //!< Fig. 1 sample (observe mode)
    bool halted = false;
};

/**
 * Host-time spent in each pipeline stage, filled only when
 * CoreConfig::profileStages is set. Host-side measurement only: it
 * never enters the stat registry, so profiled and unprofiled runs
 * stay architecturally bit-identical.
 */
struct StageProfile
{
    enum Stage : unsigned
    {
        Retire,
        Completion,
        Execute,
        Rename,
        Fetch,
        Stats,
        Skip, //!< idle-cycle fast-forward (quiescence checks + jumps)
        kNumStages
    };

    std::array<std::uint64_t, kNumStages> ns{};
    std::uint64_t ticks = 0;

    /** Host time inside the memory hierarchy, by deepest level
     *  reached (a breakdown *within* the stage rows above). */
    mem::MemLevelProfile mem;

    static const char *name(unsigned stage);
};

/** The core. */
class Core
{
  public:
    /**
     * @param config Core configuration (mode selects baseline/CDF/PRE).
     * @param program The uop program to run.
     * @param memory Initial data memory (mutated by execution).
     * @param stats Statistic registry (shared with the hierarchy).
     */
    Core(const CoreConfig &config, const isa::Program &program,
         isa::MemoryImage &memory, StatRegistry &stats);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;
    ~Core();

    /** Advance one cycle. */
    void tick();

    /**
     * Run until @p maxRetired instructions retired, the program
     * halts, or @p maxCycles elapse. Returns the results summary.
     */
    CoreResult run(std::uint64_t maxRetired,
                   Cycle maxCycles = kNeverCycle);

    /**
     * Reset measurement statistics (after warmup): zeroes the stat
     * registry and the internal IPC/MLP accounting, keeping all
     * microarchitectural state (caches, predictors, CDF tables).
     */
    void resetMeasurement();

    bool halted() const { return halted_; }
    Cycle cycle() const { return now_; }
    std::uint64_t retired() const { return retiredInstrs_; }
    bool inCdfMode() const { return cdfMode_; }
    bool inRunahead() const { return raActive_; }

    /** Build the result summary from the current counters. */
    CoreResult result() const;

    const CoreConfig &config() const { return config_; }
    mem::MemHierarchy &memHierarchy() { return mem_; }
    StatRegistry &stats() { return stats_; }

    /** Critical partition capacity (for examples/visualization). */
    unsigned robCriticalCap() const { return rob_.criticalCap(); }
    std::size_t robOccupancy() const { return rob_.occupancy(); }

    /** Per-stage host-time breakdown (CoreConfig::profileStages). */
    StageProfile
    profile() const
    {
        StageProfile p = profile_;
        p.mem = mem_.profile();
        return p;
    }

    /** Cycles fast-forwarded by the idle-skip path since the last
     *  resetMeasurement(). Host-side bookkeeping only — never a stat
     *  counter, so skip-on and skip-off runs serialize identically. */
    std::uint64_t skippedCycles() const { return skippedCycles_; }

    /** Number of fast-forward jumps (each skips >= 1 cycle). */
    std::uint64_t skipEvents() const { return skipEvents_; }

    /**
     * RS wakeup-cache agreement walk: every resident entry's cached
     * rsNextTry must be consistent with actual operand readiness in
     * the PRF, and every parked entry must hold a live registration
     * in the per-register waiter lists it depends on. Always
     * compiled (the walk is load-bearing for the idle-skip bound);
     * sampled from the execute stage in Audit builds.
     */
    void auditRsWakeupCache() const;

    /**
     * Rename-map/free-list agreement walk: every regular-RAT entry
     * must name an in-range physical register, map each arch
     * register to a distinct one, and never overlap the free list;
     * the critical RAT is held to bounds + uniqueness while it is
     * live (critRatCopied_). Always compiled; sampled from the
     * rename stage in Audit builds and run after every restore.
     */
    void auditRenameMaps() const;

    /**
     * LSQ/ROB age-ordering walk: both ROB sections and both LSQ
     * queues hold live pool entries in strictly increasing timestamp
     * order, the LQ holds only loads and the SQ only stores, and
     * every LSQ entry is also resident in the ROB. Always compiled;
     * sampled from the retire stage in Audit builds.
     */
    void auditLsqRobAge() const;

    /**
     * Branch-state ownership walk: every live slot of the
     * branch-state pool is owned by exactly one in-flight DynInst or
     * one DBQ checkpoint, and every owner's handle names a live slot.
     * Always compiled; sampled from the retire stage in Audit builds
     * and run after every restore.
     */
    void auditBranchStates() const;

    /**
     * Fetch-frontend walk: the shared wrong-path walker is active
     * exactly while one of its three users holds it (the baseline
     * wrong path, the CDF critical stream off path, a runahead
     * episode), frontQ_ and critQ_ are strictly ts-ordered (the
     * squash truncation relies on it), wpRecords_ is strictly
     * ts-ordered with its consume index in range, and bbInfoQ_'s
     * blocks are disjoint and ts-ordered, covering (in CDF mode) every
     * unconsumed wrong-path record. Always compiled; sampled from the
     * fetch stage in Audit builds and run after every restore.
     */
    void auditFrontend() const;

    /**
     * Serialize the complete architectural + microarchitectural core
     * state (core_snapshot.cc). Host-only measurement state (stage
     * profile, idle-skip bookkeeping) is excluded and run() prunes
     * the memory system's completion rings before it returns, so a
     * payload saved between runs is byte-independent of
     * profileStages/skipIdleCycles. The stat registry
     * is NOT included — the owning Simulator snapshots it so the
     * registry is captured exactly once.
     */
    void saveState(SnapWriter &w) const;

    /**
     * Inverse of saveState() into a core built with the SAME config
     * (asserted structurally where cheap; guaranteed by the warmup
     * cache key). After restore, running the core is bit-identical
     * to running the original, and a re-snapshot is byte-identical.
     */
    void restoreState(SnapReader &r);

  private:
    friend struct cdfsim::AuditPeer; //!< test-only corruption access

    // --- Pipeline stages (called in reverse order each tick) ---
    void tickProfiled();
    void retireStage();
    void completionStage();
    void executeStage();
    void renameStage();
    void renameCritical(unsigned &slots);
    bool renameRegularOne();
    void fetchStage();
    void fetchRegular(unsigned &budget);
    void fetchCriticalCdf(unsigned &budget);
    void statsStage();

    /** What the regular fetch stream would do with its next slot. */
    enum class RegularFetch : unsigned char
    {
        Record,    //!< a record is ready: fetch it
        Wait,      //!< blocked until another stage or engine acts
        OracleDry, //!< on path past the program's last record
        CdfExit,   //!< CDF drain finished: the graceful exit fires
    };
    /**
     * The one readiness test of the regular stream, shared by
     * fetchRegular() and the idle-skip bound. Not const: on the
     * baseline path it asks the oracle for the record at the cursor,
     * which materializes it exactly where fetch itself would.
     */
    RegularFetch regularFetchReady();
    /** True when the critical fetch engine has nothing to do. */
    bool criticalFetchIdle() const;

    // --- Instruction lifecycle ---
    DynInst *makeInst(const isa::ExecRecord &rec, SeqNum ts, bool onPath);
    void destroyInst(DynInst *inst);
    /** Allocate a BranchState holding the predictor checkpoint taken
     *  now (before the branch's predict()); returns its handle. */
    std::uint32_t checkpointBranch();
    /** Drop every DBQ checkpoint, releasing its branch state. */
    void clearDbqCkpts();

    // --- Execution helpers ---
    void issueOne(DynInst *inst);
    bool tryIssueLoad(DynInst *inst);
    void issueStore(DynInst *inst);
    void scheduleCompletion(DynInst *inst, Cycle when);
    void finishInst(DynInst *inst);
    void addRsWaiter(RegId reg, const DynInst *inst);
    void wakeRsWaiters(RegId reg);

    // --- Recovery ---
    void recoverFromBranch(DynInst *branch);
    void dependenceViolationRecovery(SeqNum violTs);
    void memoryOrderViolation(DynInst *load);
    /** Flush everything younger than @p flushTs and rewind the
     *  predictor to the oldest squashed branch checkpoint. */
    void squashYoungerThan(SeqNum flushTs);
    /** Restart the regular stream on path at @p ts after a flush. */
    void redirectFetch(SeqNum ts);
    /** Diverge at the mispredicted branch @p branchTs: restart the
     *  walker and number wrong-path records from branchTs + 1. */
    void beginWrongPath(SeqNum branchTs);
    /** Can the walker execute the uop at @p pc (valid, not a halt)? */
    bool walkable(Addr pc) const;

    // --- CDF mode control ---
    void maybeEnterCdfMode(Addr pc, SeqNum seq);
    void drainCriticalFrontend();
    /** Put critical fetch on path at the block at @p pc, whose first
     *  uop is @p ts, with no wrong-path record buffered. */
    void restartCriticalFetch(Addr pc, SeqNum ts);
    void beginCdfExit();
    void finishCdfExit();
    void abortCdfMode();
    void applyPartitionCaps();
    void releasePartitionCaps();

    /**
     * Full-window stall: the ROB cannot accept the next instruction
     * and its oldest one is still outstanding. The one test behind
     * retire's stall accounting, the idle-skip bound and the skipped
     * cycles' bulk accounting.
     */
    bool fullWindowStall() const;

    // --- PRE (runahead) ---
    void maybeEnterRunahead(const DynInst *head);
    /**
     * PRE entry disqualifiers that hold for a whole stall: no
     * reliable frontier to run ahead from, or the stalling @p head's
     * miss has no pending completion. Not const: it may materialize
     * the frontier record, exactly as entry itself would.
     */
    bool runaheadDisqualified(const DynInst *head);
    void runaheadStep(unsigned &budget);
    void exitRunahead();
    /** Runahead taint through @p uop: its result is unavailable when
     *  @p unknownResult or a source is. Returns that taint. */
    bool propagateTaint(const isa::Uop &uop, bool unknownResult);

    /**
     * Functionally execute @p trace's whole basic block on the shared
     * wrong-path walker into walkedBlock_. Returns false, leaving the
     * walkable prefix there, when the block runs into invalid code or
     * a halt.
     */
    bool walkBlock(const cdf::BbTrace &trace);

    // --- Retire-side criticality training ---
    void trainOnRetire(const DynInst *inst);

    bool icacheGate(Addr pc, unsigned &budget);
    bool frontStopped() const;

    // --- Idle-cycle fast-forward (core_skip.cc) ---
    /**
     * If the core is provably quiescent, jump now_ to just before
     * the next event (bounded by @p maxCycles and the deadlock
     * watchdog), bulk-applying every per-cycle stat. Returns true if
     * any cycles were skipped; the caller re-enters the run loop and
     * the next tick() executes the event cycle normally.
     */
    bool maybeSkipIdleCycles(Cycle maxCycles);

    /**
     * What rename would do with a stream's next instruction. The
     * first three values are also the sections_ index a blocked
     * cycle charges.
     */
    enum class RenameAdmit : unsigned char
    {
        ChargeRob, //!< blocked on the ROB (critical stream: or the RS)
        ChargeLq,  //!< blocked on the LQ
        ChargeSq,  //!< blocked on the SQ
        Blocked,   //!< blocked with no per-cycle counter side effect
        Progress,  //!< rename would advance
    };
    /**
     * The one rename admission check of the critical (@p critical)
     * or the regular stream, shared by renameCritical(),
     * renameRegularOne() and the idle skip. Side-effect free: an
     * instruction not yet through the frontend pipe lowers @p bound
     * to its readyAtRename.
     */
    RenameAdmit renameAdmission(bool critical, Cycle &bound) const;
    /** Charge @p n cycles of a blocked @p admit to its section's
     *  partition counter (no-op without partitions). */
    void chargeRenameStall(RenameAdmit admit, bool critical,
                           std::uint64_t n);
    /** The critical caps still drain after a CDF episode ended. */
    bool capsReleasing() const;

    Cycle nextEventCycle();
    void bulkAccountSkippedCycles(std::uint64_t n);

    // --- Snapshot (core_snapshot.cc) ---
    /** The core's field list, shared by saveState/restoreState. */
    template <class Self, class Ar>
    static void snapFields(Self &self, Ar &ar);
    /** The DynInst-pointer primitive: a pool handle on the wire. */
    static void snapInst(const Core &self, SnapWriter &w,
                         const DynInst *inst);
    static void snapInst(Core &self, SnapReader &r, DynInst *&inst);

    // ------------------------------------------------------------------
    SIM_SNAPSHOT_FIELDS(117);

    CoreConfig config_;
    StatRegistry &stats_;
    isa::OracleStream oracle_;
    /** Functional wrong-path execution, held by at most one user at a
     *  time: the regular stream's wrong path outside CDF mode, the
     *  critical stream's wrong path in it, or a runahead episode. */
    isa::WrongPathWalker walker_;
    /** Records of the last block walkBlock() executed: the runahead
     *  chain's values, or the critical wrong-path block being fetched. */
    std::vector<isa::ExecRecord> walkedBlock_;
    mem::MemHierarchy mem_;
    bp::BranchPredictor bp_;

    PhysRegFile prf_;
    RenameMap rat_;
    RenameMap critRat_;
    SectionedQueue rob_;
    Lsq lsq_;
    ReservationStations rs_;

    /** Master in-flight pool: slab-allocated, threaded into an
     *  intrusive doubly-linked list in fetch order via
     *  DynInst::{prev,next}Idx. No per-instruction heap traffic. */
    SlabPool<DynInst> inflightPool_;
    std::uint32_t inflightHead_ = kNoInst; //!< oldest in flight
    std::uint32_t inflightTail_ = kNoInst; //!< youngest in flight

    /** Per-branch recovery/training state (BranchState), named by
     *  DynInst::branchState and DbqCheckpoint::state. Small slabs:
     *  only in-flight branches hold a slot. */
    SlabPool<BranchState> branchStates_{64};

    /** RS entries parked until a physical register is written:
     *  (pool handle, fetchSeq) pairs, validated at wake time. */
    std::vector<std::vector<std::pair<std::uint32_t, SeqNum>>>
        regWaiters_;

    CircularQueue<DynInst *> frontQ_;   //!< regular stream, pre-rename
    CircularQueue<DynInst *> critQ_;    //!< critical stream, pre-rename

    // Pending stores that left the RS with address done but data
    // outstanding; completed when the data register becomes ready.
    std::vector<DynInst *> pendingStores_;

    // Completion event queue ordered by cycle. A raw min-heap
    // (push_heap/pop_heap over a reusable vector, the exact
    // operations std::priority_queue performs) so the squash filter
    // can rebuild it without re-heapifying: draining a min-heap
    // yields ascending order, and an ascending sequence laid down
    // in order *is* a valid heap with the same layout the
    // equivalent push_heap calls would produce. Same-cycle pop
    // order — which feeds predictor updates — is therefore
    // bit-identical to the old priority_queue.
    struct CompletionEvent
    {
        Cycle when;
        DynInst *inst;
        bool operator>(const CompletionEvent &o) const
        {
            return when > o.when;
        }

        /** Field list; @p each codes the instruction pointer. */
        template <class Self, class Ar, class Each>
        static void
        snapFields(Self &e, Ar &ar, Each each)
        {
            ar.io(e.when);
            each(ar, e.inst);
        }

        SIM_SNAPSHOT_FIELDS(2);
    };
    std::vector<CompletionEvent> completions_;
    std::vector<CompletionEvent> completionsScratch_;

    /** Squash victims, youngest first (reused across squashes). */
    std::vector<DynInst *> squashVictims_;

    // --- Regular fetch stream (every mode) ---
    Cycle now_ = 0;
    SeqNum fetchSeqCounter_ = 0;     //!< unique fetch ids
    SeqNum nextFetchTs_ = 0;         //!< next on-path oracle index
    bool wrongPath_ = false;         //!< past a mispredicted branch
    Addr wrongPathPc_ = 0;           //!< walker's next PC (non-CDF)
    SeqNum nextWrongPathTs_ = 0;     //!< ts of the next walked record
    Cycle fetchStallUntil_ = 0;
    Addr lastFetchLine_ = ~Addr{0};
    bool fetchDoneHalt_ = false;
    SeqNum nextRetireTs_ = 0;
    bool halted_ = false;
    Cycle lastRetireCycle_ = 0;
    std::uint64_t retiredInstrs_ = 0;

    // Basic-block tracking at fetch (uop-cache probing, Fig. 1 marks).
    bool fetchAtBbStart_ = true;
    Addr fetchBbStartPc_ = 0;
    unsigned fetchBbOffset_ = 0;

    // Retire-side basic-block tracking for the Fill Buffer.
    bool retirePrevWasBranch_ = true;

    // --- CDF machinery ---
    std::unique_ptr<cdf::CriticalCountTable> loadCct_;
    std::unique_ptr<cdf::CriticalCountTable> branchCct_;
    std::unique_ptr<cdf::MaskCache> maskCache_;
    std::unique_ptr<cdf::CriticalUopCache> uopCache_;
    std::unique_ptr<cdf::FillBuffer> fillBuffer_;
    /** One partitioned window structure (Section 3.5): the queue
     *  and the controller that sizes its critical section. */
    struct PartitionedSection
    {
        SectionedQueue &queue;
        cdf::SectionPartition part;

        /** Field list: the split state (the queue is listed with
         *  the backend containers). */
        template <class Self, class Ar>
        static void
        snapFields(Self &s, Ar &ar)
        {
            ar.io(s.part);
        }

        SIM_SNAPSHOT_FIELDS(2);
    };
    /** ROB, LQ and SQ, in RenameAdmit's charge order; empty outside
     *  CDF mode. */
    std::vector<PartitionedSection> sections_;
    std::unique_ptr<cdf::DelayedBranchQueue> dbq_;
    std::unique_ptr<cdf::CriticalMapQueue> cmq_;

    bool cdfMode_ = false;
    bool cdfDraining_ = false;
    Cycle cdfCooldownUntil_ = 0;
    bool critRatCopied_ = false;
    SeqNum cdfStartTs_ = 0;
    SeqNum regRenamedThroughTs_ = 0;  //!< last ts regular rename passed

    // Critical fetch cursor. The active trace is COPIED out of the
    // uop cache: a concurrent fill-buffer walk may replace the
    // cached trace mid-emission.
    Addr critFetchPc_ = 0;
    SeqNum critFetchBaseTs_ = 0;   //!< ts of the current BB's first uop
    bool critOnPath_ = true;
    bool critTraceValid_ = false;
    cdf::BbTrace critTrace_;
    unsigned critTraceIdx_ = 0;

    /** First ts NOT yet covered by a critical-fetch-processed BB. */
    SeqNum critCoveredUpTo_ = 0;

    /** Critical-stream instructions by ts (for CMQ replay transfer). */
    FlatMap<SeqNum, DynInst *> criticalByTs_{kInvalidSeq};

    /** Per-BB criticality bits handed from critical to regular
     *  fetch, on path and off; ts-ascending, blocks disjoint. */
    struct BbInfo
    {
        SeqNum baseTs;
        std::vector<bool> critBits;

        SeqNum end() const { return baseTs + critBits.size(); }

        template <class Self, class Ar>
        static void
        snapFields(Self &b, Ar &ar)
        {
            ar.io(b.baseTs);
            ar.seq32(b.critBits);
        }

        SIM_SNAPSHOT_FIELDS(2);
    };
    std::deque<BbInfo> bbInfoQ_;

    // The regular stream's only wrong-path record source, strictly
    // ts-ordered: filled a block at a time by critical fetch in CDF
    // mode (one divergence for both streams), else a record at a time.
    struct WpRecord
    {
        isa::ExecRecord rec;
        SeqNum ts;

        template <class Self, class Ar>
        static void
        snapFields(Self &w, Ar &ar)
        {
            ar.io(w.rec, w.ts);
        }

        SIM_SNAPSHOT_FIELDS(2);
    };
    std::vector<WpRecord> wpRecords_;
    std::size_t wpConsumeIdx_ = 0;

    // DBQ checkpoints: branch checkpoints taken at critical fetch for
    // branches that travel only in the regular stream, which takes
    // the branch state over by handle when it fetches the branch.
    struct DbqCheckpoint
    {
        SeqNum ts;
        std::uint32_t state; //!< branchStates_ handle (owned)
        bool btbMiss;

        template <class Self, class Ar>
        static void
        snapFields(Self &c, Ar &ar)
        {
            ar.io(c.ts, c.state, c.btbMiss);
        }

        SIM_SNAPSHOT_FIELDS(3);
    };
    std::vector<DbqCheckpoint> dbqCkpts_;

    /** Wrong-path critical fetch ran into unwalkable code; idle. */
    bool critWpStuck_ = false;

    // --- PRE machinery ---
    std::unique_ptr<cdf::CriticalCountTable> stallTable_;
    bool raActive_ = false;
    Cycle raEndCycle_ = 0;
    Addr raPc_ = 0;
    bool raTraceValid_ = false;
    cdf::BbTrace raTrace_;
    unsigned raTraceIdx_ = 0;
    std::bitset<kNumArchRegs> raTaint_;
    bp::BpCheckpoint raBpCkpt_;
    std::uint64_t raChainLoads_ = 0;
    unsigned raEpisodeLoads_ = 0;
    /** Last committed address per static load (stale-value model). */
    FlatMap<Addr, Addr> lastRetiredLoadAddr_{~Addr{0}};
    Cycle stallStartCycle_ = 0;
    bool stallCounting_ = false;

    // Deferred memory-order violation (processed after RS selection).
    DynInst *pendingMemViolation_ = nullptr;
    // Deferred dependence violation detected at rename replay.
    SeqNum pendingDepViolationTs_ = kInvalidSeq;

    // --- Measurement ---
    StageProfile profile_;
    Cycle measureStartCycle_ = 0;
    std::uint64_t measureStartRetired_ = 0;
    // Host-side skip bookkeeping (see skippedCycles()).
    std::uint64_t skippedCycles_ = 0;
    std::uint64_t skipEvents_ = 0;
    // Earliest cycle the run loop may re-attempt a quiescence scan
    // after one failed to jump; purely a host-time rate limiter.
    Cycle skipRecheckAt_ = 0;
    mutable AuditSampler rsAudit_{4096};
    mutable AuditSampler renameAudit_{8192};
    mutable AuditSampler retireAudit_{4096};
    mutable AuditSampler fetchAudit_{4096};
    RunningMean mlpWhenActive_;
    RunningMean uselessMlpWhenActive_;
    RunningMean fig1CriticalFrac_;
    std::uint64_t fullWindowStallCycles_ = 0;
    std::uint64_t cdfModeCycles_ = 0;

    // Cached stat counters.
    std::uint64_t &statCycles_;
    std::uint64_t &statRetired_;
    std::uint64_t &statFetched_;
    std::uint64_t &statFetchedWrongPath_;
    std::uint64_t &statRenamed_;
    std::uint64_t &statRenamedCritical_;
    std::uint64_t &statIssued_;
    std::uint64_t &statBranches_;
    std::uint64_t &statMispredicts_;
    std::uint64_t &statLlcMissLoads_;
    std::uint64_t &statDepViolations_;
    std::uint64_t &statMemOrderViolations_;
    std::uint64_t &statCdfEpisodes_;
    std::uint64_t &statCdfExitsUopMiss_;
    std::uint64_t &statRunaheadEpisodes_;
    std::uint64_t &statRunaheadUops_;
    std::uint64_t &statRunaheadLoads_;
    std::uint64_t &statRunaheadTraceMiss_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_CORE_HH

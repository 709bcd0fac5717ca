/**
 * @file
 * The in-flight dynamic instruction record shared by every pipeline
 * stage of the OoO core.
 */

#ifndef CDFSIM_OOO_DYN_INST_HH
#define CDFSIM_OOO_DYN_INST_HH

#include <cstdint>

#include "bp/predictor.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::ooo
{

/** Null handle in the core's in-flight instruction pool. */
inline constexpr std::uint32_t kNoInst = 0xFFFF'FFFFu;

/** Progress of an instruction through the backend. */
enum class InstState : std::uint8_t
{
    Fetched,
    Renamed,     //!< in ROB/RS (and LSQ if memory)
    Issued,      //!< sent to an execution pipe
    Completed,   //!< result produced; waiting to retire
};

/** Null handle in the core's branch-state pool. */
inline constexpr std::uint32_t kNoBranchState = 0xFFFF'FFFFu;

/**
 * Recovery and training state of one predicted branch: the predictor
 * checkpoint taken just before its prediction, and the TAGE lookup
 * stash its resolution trains with. Only branches need it, so it
 * lives in a Core-owned pool, named by a 32-bit handle held either by
 * the branch's DynInst or, in CDF mode, by a DBQ checkpoint until the
 * regular stream fetches the branch.
 */
struct BranchState
{
    bp::BpCheckpoint ckpt;
    bp::TagePredictionInfo tageInfo;

    template <class Self, class Ar>
    static void
    snapFields(Self &b, Ar &ar)
    {
        ar.io(b.ckpt, b.tageInfo);
    }

    SIM_SNAPSHOT_FIELDS(2);
};

/**
 * One in-flight dynamic instruction. The fields the per-cycle RS scan
 * reads come first, so a scan touches one cache line per entry.
 */
struct DynInst
{
    // --- Read by the RS scan every cycle ---
    SeqNum ts = 0;           //!< program-order timestamp (oracle index)
    /** Earliest cycle the RS scheduler must re-examine this entry:
     *  0 = examine now, kNeverCycle = parked until a register
     *  wakeup clears it. Pure scheduling cache, never architectural. */
    Cycle rsNextTry = 0;
    isa::Uop uop;
    RegId physSrc1 = kInvalidReg;
    RegId physSrc2 = kInvalidReg;
    InstState state = InstState::Fetched;
    bool critical = false;     //!< marked critical by trace construction

    // --- Identity and CDF attributes ---
    bool onPath = true;        //!< false for wrong-path instructions
    bool cdfFetched = false;   //!< fetched while CDF mode was active
    bool criticalStream = false; //!< travelled via the critical pipeline
    SeqNum fetchSeq = 0;     //!< unique, monotonic in fetch order
    Addr pc = 0;

    // --- Functional outcome (bound at fetch) ---
    Addr memAddr = 0;          //!< effective address (memory ops)
    Addr actualTarget = 0;     //!< actual next PC
    Addr predTarget = 0;
    bool taken = false;        //!< actual branch direction
    bool predTaken = false;
    bool mispredicted = false; //!< prediction differed from outcome
    bool btbMissBubble = false;

    // --- Rename state ---
    RegId physDst = kInvalidReg;
    RegId oldPhysDst = kInvalidReg;      //!< regular RAT prior mapping
    RegId oldPhysDstCrit = kInvalidReg;  //!< critical RAT prior mapping
    bool renamedRegular = false;   //!< updated the regular RAT
    bool renamedCritical = false;  //!< updated the critical RAT
    bool hasPoisonSnapshot = false;
    std::uint64_t poisonSnapshot = 0; //!< poison bits pre-this-rename

    // --- Execution state ---
    Cycle fetchCycle = 0;
    Cycle renameCycle = 0;
    Cycle readyAtRename = 0;   //!< earliest cycle rename may process it
    Cycle completionCycle = kNeverCycle;
    SeqNum forwardSrcTs = 0;   //!< ts of SQ entry forwarded from (0: mem)
    bool llcMiss = false;      //!< this load went to DRAM
    bool l1Miss = false;
    bool addrKnown = false;    //!< agen done (memory disambiguation)

    // --- Recovery state ---
    /** Transient mark set while a squash collects its victims. */
    bool doomed = false;
    /** This branch's BranchState in the core's pool, or
     *  kNoBranchState (non-branches, and CDF regular-stream branches
     *  that found no DBQ checkpoint). */
    std::uint32_t branchState = kNoBranchState;

    /** Handle of this instruction in the core's slab pool, plus the
     *  intrusive links of the master in-flight list (fetch order). */
    std::uint32_t poolIdx = kNoInst;
    std::uint32_t prevIdx = kNoInst;
    std::uint32_t nextIdx = kNoInst;

    bool isLoad() const { return uop.isLoad(); }
    bool isStore() const { return uop.isStore(); }
    bool isBranch() const { return uop.isBranch(); }
    bool completed() const { return state == InstState::Completed; }

    /** 8-byte-aligned word address for disambiguation. */
    Addr memWord() const { return memAddr >> 3; }

    /** Field list: every field verbatim, in declaration order, so
     *  a restored record re-snapshots byte-identically. */
    template <class Self, class Ar>
    static void
    snapFields(Self &d, Ar &ar)
    {
        ar.io(d.ts, d.rsNextTry, d.uop, d.physSrc1, d.physSrc2, d.state,
              d.critical, d.onPath, d.cdfFetched, d.criticalStream,
              d.fetchSeq, d.pc, d.memAddr, d.actualTarget, d.predTarget,
              d.taken, d.predTaken, d.mispredicted, d.btbMissBubble,
              d.physDst, d.oldPhysDst, d.oldPhysDstCrit, d.renamedRegular,
              d.renamedCritical, d.hasPoisonSnapshot, d.poisonSnapshot,
              d.fetchCycle, d.renameCycle, d.readyAtRename,
              d.completionCycle, d.forwardSrcTs, d.llcMiss, d.l1Miss,
              d.addrKnown, d.doomed, d.branchState, d.poolIdx, d.prevIdx,
              d.nextIdx);
    }

    SIM_SNAPSHOT_FIELDS(39);
};

/** Every fetched uop is zero-filled by the pool and scanned by the
 *  RS; keep per-branch state out of it (see BranchState). */
static_assert(sizeof(DynInst) <= 256, "DynInst grew past 256 bytes");

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_DYN_INST_HH

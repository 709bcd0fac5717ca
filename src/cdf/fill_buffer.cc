#include "cdf/fill_buffer.hh"

#include "common/logging.hh"

namespace cdfsim::cdf
{

FillBuffer::FillBuffer(const FillBufferConfig &config,
                       MaskCache &maskCache, CriticalUopCache &uopCache,
                       StatRegistry &stats)
    : config_(config),
      maskCache_(maskCache),
      uopCache_(uopCache),
      walks_(stats.counter("fill_buffer.walks")),
      walksRejectedLow_(stats.counter("fill_buffer.walks_rejected_low")),
      walksRejectedHigh_(
          stats.counter("fill_buffer.walks_rejected_high")),
      uopsMarked_(stats.counter("fill_buffer.uops_marked")),
      tracesFilled_(stats.counter("fill_buffer.traces_filled"))
{
    SIM_ASSERT(config_.capacity > 0, "fill buffer needs capacity");
    entries_.reserve(config_.capacity);
}

WalkResult
FillBuffer::onRetire(const RetiredUopInfo &info,
                     std::uint64_t retiredInstrs, Cycle now)
{
    SIM_AUDIT_ONLY(if (audit_.due()) auditInvariants();)
    if (!collecting_) {
        if (retiredInstrs - collectionStart_ >=
            config_.refillIntervalInstrs) {
            collecting_ = true;
            collectionStart_ = retiredInstrs;
            entries_.clear();
            activeMaskValid_ = false;
        } else {
            return {};
        }
    }

    Entry e;
    e.pc = info.pc;
    e.uop = info.uop;
    e.memWordAddr = info.memWordAddr;
    e.critical = info.seedCritical;
    e.startsBasicBlock = info.startsBasicBlock || entries_.empty();

    // Mask Cache pre-marking: when a block with a cached mask enters
    // the buffer, the mask is read into a shift register and marks
    // uops as they are inserted (accumulating cross-path chains).
    if (config_.useMaskCache) {
        if (e.startsBasicBlock) {
            auto mask = maskCache_.lookup(info.pc);
            activeMaskValid_ = mask.has_value();
            activeMask_ = mask.value_or(0);
            activeMaskOffset_ = 0;
        }
        if (activeMaskValid_ && activeMaskOffset_ < 64 &&
            (activeMask_ >> activeMaskOffset_) & 1) {
            e.critical = true;
        }
        ++activeMaskOffset_;
    }

    entries_.push_back(e);

    if (entries_.size() >= config_.capacity) {
        WalkResult r = walk(now);
        collecting_ = false;
        collectionStart_ = retiredInstrs;
        return r;
    }
    return {};
}

void
FillBuffer::auditInvariants() const
{
    SIM_ASSERT(entries_.size() <= config_.capacity,
               "fill buffer holds ", entries_.size(),
               " uops, past its capacity ", config_.capacity);
    SIM_ASSERT(!collecting_ || entries_.size() < config_.capacity,
               "fill buffer still collecting at capacity (missed walk)");
    SIM_ASSERT(entries_.empty() || entries_.front().startsBasicBlock,
               "fill buffer window does not start a basic block");
    SIM_ASSERT(config_.useMaskCache ||
                   (!activeMaskValid_ && activeMask_ == 0 &&
                    activeMaskOffset_ == 0),
               "mask shift register live with the Mask Cache off");
}

void
FillBuffer::markChains()
{
    std::bitset<kNumArchRegs> neededRegs;
    std::unordered_set<Addr> neededMem;

    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        Entry &e = *it;
        bool mark = e.critical;

        if (!mark && e.uop.writesReg() && neededRegs[e.uop.dst])
            mark = true;
        if (!mark && e.uop.isStore() && neededMem.count(e.memWordAddr))
            mark = true;

        if (!mark)
            continue;

        e.critical = true;
        if (e.uop.writesReg())
            neededRegs[e.uop.dst] = false;
        if (e.uop.src1 != kInvalidReg)
            neededRegs[e.uop.src1] = true;
        if (e.uop.src2 != kInvalidReg)
            neededRegs[e.uop.src2] = true;
        if (e.uop.isLoad())
            neededMem.insert(e.memWordAddr);
        if (e.uop.isStore())
            neededMem.erase(e.memWordAddr);
    }
}

WalkResult
FillBuffer::walk(Cycle now)
{
    ++walks_;
    markChains();
    return harvest(now);
}

WalkResult
FillBuffer::harvest(Cycle now)
{
    WalkResult result;
    result.performed = true;

    unsigned marked = 0;
    for (const Entry &e : entries_) {
        if (e.critical)
            ++marked;
    }
    result.marked = marked;
    result.density =
        static_cast<double>(marked) / static_cast<double>(entries_.size());

    // Basic-block extents: [start, end) pairs; a block ends at (and
    // includes) a branch, or at the next block start.
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    std::size_t start = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const bool last = i + 1 == entries_.size();
        const bool blockEnd =
            entries_[i].uop.isBranch() ||
            (!last && entries_[i + 1].startsBasicBlock);
        if (blockEnd || last) {
            blocks.emplace_back(start, i + 1);
            start = i + 1;
        }
    }

    // Density guard: reject and scrub the observed blocks.
    if (result.density < config_.minDensity ||
        result.density > config_.maxDensity) {
        if (result.density < config_.minDensity)
            ++walksRejectedLow_;
        else
            ++walksRejectedHigh_;
        for (const auto &[b, e] : blocks) {
            maskCache_.remove(entries_[b].pc);
            uopCache_.remove(entries_[b].pc);
        }
        entries_.clear();
        return result;
    }

    result.accepted = true;
    uopsMarked_ += marked;

    // Skip the first block unless it verifiably starts a real basic
    // block (the buffer may have begun mid-block).
    std::size_t firstBlock =
        (!blocks.empty() && entries_[blocks[0].first].startsBasicBlock)
            ? 0
            : 1;

    // First pass: merge every dynamic instance's mask into the Mask
    // Cache so criticality accumulates across paths.
    if (config_.useMaskCache) {
        for (std::size_t bi = firstBlock; bi < blocks.size(); ++bi) {
            const auto [b, e] = blocks[bi];
            std::uint64_t mask = 0;
            for (std::size_t i = b; i < e && i - b < 64; ++i) {
                if (entries_[i].critical)
                    mask |= std::uint64_t{1} << (i - b);
            }
            maskCache_.merge(entries_[b].pc, mask);
        }
    }

    // Second pass: construct one trace per static basic block using
    // the fully merged masks.
    std::unordered_set<Addr> filledThisWalk;

    for (std::size_t bi = firstBlock; bi < blocks.size(); ++bi) {
        const auto [b, e] = blocks[bi];
        if (!filledThisWalk.insert(entries_[b].pc).second)
            continue;
        const bool endsInBranch = entries_[e - 1].uop.isBranch();
        // A trailing partial block (no terminating branch at the very
        // end of the buffer) is incomplete; the paper only collects
        // complete basic blocks into traces.
        if (!endsInBranch && bi + 1 == blocks.size())
            continue;

        std::uint64_t mask = 0;
        for (std::size_t i = b; i < e && i - b < 64; ++i) {
            if (entries_[i].critical)
                mask |= std::uint64_t{1} << (i - b);
        }

        if (config_.useMaskCache)
            mask = maskCache_.lookup(entries_[b].pc).value_or(mask);

        BbTrace trace;
        trace.startPc = entries_[b].pc;
        trace.blockLength = static_cast<unsigned>(e - b);
        trace.endsInBranch = endsInBranch;
        trace.branchPc = entries_[e - 1].pc;
        for (std::size_t i = b; i < e; ++i) {
            const unsigned off = static_cast<unsigned>(i - b);
            const bool inMask = off < 64 && ((mask >> off) & 1);
            if (inMask || entries_[i].critical) {
                trace.uops.push_back({entries_[i].uop, off});
            }
        }
        // Blocks with no critical uops still get a (one-line) trace:
        // it carries the block length and next-address information
        // that lets the critical fetch chain past them (Fig. 7's
        // saved-tag mechanism).
        uopCache_.insert(std::move(trace), now);
        ++tracesFilled_;
        ++result.blocksFilled;
    }

    entries_.clear();
    return result;
}

} // namespace cdfsim::cdf

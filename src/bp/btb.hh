/**
 * @file
 * Branch target buffer and return address stack.
 */

#ifndef CDFSIM_BP_BTB_HH
#define CDFSIM_BP_BTB_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::bp
{

/** Direct-mapped tagged branch target buffer. */
class Btb
{
  public:
    Btb(std::size_t entries, StatRegistry &stats)
        : entries_(entries),
          hits_(stats.counter("btb.hits")),
          misses_(stats.counter("btb.misses"))
    {
        SIM_ASSERT(entries > 0, "BTB needs entries");
    }

    /** Look up the taken target for the branch at @p pc. */
    std::optional<Addr>
    lookup(Addr pc)
    {
        const Entry &e = entries_[pc % entries_.size()];
        if (e.valid && e.tag == pc) {
            ++hits_;
            return e.target;
        }
        ++misses_;
        return std::nullopt;
    }

    /** Install/refresh the mapping pc -> target. */
    void
    update(Addr pc, Addr target)
    {
        Entry &e = entries_[pc % entries_.size()];
        e.valid = true;
        e.tag = pc;
        e.target = target;
    }

    /** Field list: all entries (capacity is config-fixed). */
    template <class Self, class Ar>
    static void
    snapFields(Self &self, Ar &ar)
    {
        for (auto &e : self.entries_)
            ar.io(e);
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;

        template <class Self, class Ar>
        static void
        snapFields(Self &e, Ar &ar)
        {
            ar.io(e.valid, e.tag, e.target);
        }

        SIM_SNAPSHOT_FIELDS(3);
    };

    SIM_SNAPSHOT_FIELDS(3);

    std::vector<Entry> entries_;
    std::uint64_t &hits_;
    std::uint64_t &misses_;
};

/** Deepest return address stack a checkpoint can hold (Table 1 uses
 *  32). Ras::Snapshot is a fixed-size value type so that taking a
 *  branch checkpoint never allocates. */
inline constexpr std::size_t kMaxRasDepth = 32;

/**
 * Return address stack. Fetch pushes on Call and pops on Ret; the
 * whole stack is checkpointed per in-flight branch (it is small) so
 * recovery is exact.
 */
class Ras
{
  public:
    /** Copyable snapshot for checkpointing: the live stack itself.
     *  Default-constructed instances sit idle inside BpCheckpoint
     *  holders that still get serialized verbatim, so every field
     *  must default to a deterministic value — an uninitialized
     *  member here would leak host garbage into checkpoint payloads
     *  and break on-disk determinism. */
    struct Snapshot
    {
        std::array<Addr, kMaxRasDepth> stack{};
        std::size_t depth = 0; //!< entries of stack in use
        std::size_t top = 0;
        std::size_t size = 0;

        /** Field list of a checkpoint copy: the depth, then the
         *  live stack. */
        template <class Self, class Ar>
        static void
        snapFields(Self &s, Ar &ar)
        {
            ar.io(s.depth);
            SIM_ASSERT(s.depth <= kMaxRasDepth, "snapshot RAS depth ",
                       s.depth, " exceeds ", kMaxRasDepth);
            liveFields(s, ar);
        }

        /** The entries in use, then top and size. */
        template <class Self, class Ar>
        static void
        liveFields(Self &s, Ar &ar)
        {
            for (std::size_t i = 0; i < s.depth; ++i)
                ar.io(s.stack[i]);
            ar.io(s.top, s.size);
        }

        SIM_SNAPSHOT_FIELDS(4);
    };

    explicit Ras(std::size_t depth)
    {
        SIM_ASSERT(depth > 0 && depth <= kMaxRasDepth, "RAS depth ",
                   depth, " exceeds the fixed checkpoint copy (max ",
                   kMaxRasDepth, ")");
        s_.depth = depth;
    }

    void
    push(Addr returnPc)
    {
        s_.stack[s_.top] = returnPc;
        s_.top = (s_.top + 1) % s_.depth;
        if (s_.size < s_.depth)
            ++s_.size;
    }

    /** Pop the predicted return target; empty stacks predict 0. */
    Addr
    pop()
    {
        if (s_.size == 0)
            return 0;
        s_.top = (s_.top + s_.depth - 1) % s_.depth;
        --s_.size;
        return s_.stack[s_.top];
    }

    const Snapshot &snapshot() const { return s_; }

    void
    restore(const Snapshot &s)
    {
        SIM_ASSERT(s.depth == s_.depth, "RAS snapshot depth ", s.depth,
                   " != configured ", s_.depth);
        s_ = s;
    }

    /** Field list: the live stack (its depth is config-fixed). */
    template <class Self, class Ar>
    static void
    snapFields(Self &self, Ar &ar)
    {
        Snapshot::liveFields(self.s_, ar);
    }

  private:
    SIM_SNAPSHOT_FIELDS(1);

    Snapshot s_;
};

} // namespace cdfsim::bp

#endif // CDFSIM_BP_BTB_HH

/**
 * @file
 * The set-associative array behind the Critical Count Tables and the
 * Mask Cache (paper Section 3.2): pc-modulo sets, tag lookup, one
 * victim rule and one structural audit. mem::Cache indexes and
 * replaces differently and does not use it.
 */

#ifndef CDFSIM_CDF_SET_ASSOC_HH
#define CDFSIM_CDF_SET_ASSOC_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim::cdf
{

/** Ways of @p Entry (fields `valid`, `tag`, `lruTick`) and the clock
 *  that stamps them. */
template <class Entry>
class SetAssocArray
{
  public:
    SetAssocArray(unsigned entries, unsigned ways, const char *what)
        : ways_(ways), sets_(ways == 0 ? 0 : entries / ways),
          entries_(entries)
    {
        if (sets_ == 0)
            fatal(what, ": zero sets");
    }

    const Entry *
    find(Addr tag) const
    {
        const Entry *base = &entries_[setOf(tag) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == tag)
                return &base[w];
        }
        return nullptr;
    }

    /** The way tagged @p tag and true, or the victim and false: the
     *  set's last invalid way, else its first least recently stamped. */
    std::pair<Entry &, bool>
    findOrVictim(Addr tag)
    {
        Entry *base = &entries_[setOf(tag) * ways_];
        Entry *victim = base;
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == tag)
                return {base[w], true};
            if (!base[w].valid ||
                (victim->valid && base[w].lruTick < victim->lruTick))
                victim = &base[w];
        }
        return {*victim, false};
    }

    void stamp(Entry &e) { e.lruTick = ++tick_; }
    std::vector<Entry> &entries() { return entries_; }

    /** Valid entries sit in the set their tag hashes to, no set holds
     *  a tag twice, and no stamp is ahead of the clock. */
    void
    auditInvariants(const char *what) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            if (!e.valid)
                continue;
            SIM_ASSERT(setOf(e.tag) == i / ways_, what,
                       " entry tag hashes outside its set");
            SIM_ASSERT(e.lruTick <= tick_, what,
                       " entry LRU stamp ahead of the clock");
            for (std::size_t v = i + 1; v % ways_ != 0; ++v) {
                SIM_ASSERT(!entries_[v].valid || entries_[v].tag != e.tag,
                           "duplicate valid ", what, " tag within a set");
            }
        }
    }

    /** Field list: the ways, then the clock (geometry is config-fixed
     *  and excluded). */
    template <class Self, class Ar>
    static void
    snapFields(Self &self, Ar &ar)
    {
        for (auto &e : self.entries_)
            ar.io(e);
        ar.io(self.tick_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(4);

    std::size_t setOf(Addr tag) const { return tag % sets_; }

    unsigned ways_;
    std::size_t sets_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;

    friend struct cdfsim::AuditPeer; //!< test-only corruption access
};

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_SET_ASSOC_HH

#include "cdf/mask_cache.hh"

#include "common/logging.hh"

namespace cdfsim::cdf
{

MaskCache::MaskCache(const MaskCacheConfig &config, StatRegistry &stats)
    : config_(config),
      table_(config.entries, config.ways, "mask cache"),
      merges_(stats.counter("mask_cache.merges")),
      hits_(stats.counter("mask_cache.hits")),
      resets_(stats.counter("mask_cache.resets"))
{
}

std::optional<std::uint64_t>
MaskCache::lookup(Addr pc) const
{
    const Entry *e = table_.find(pc);
    if (!e)
        return std::nullopt;
    ++hits_;
    return e->mask;
}

void
MaskCache::merge(Addr pc, std::uint64_t mask)
{
    ++merges_;
    SIM_AUDIT_ONLY({
        if (audit_.due())
            auditInvariants();
    });
    auto [e, hit] = table_.findOrVictim(pc);
    if (hit)
        e.mask |= mask;
    else
        e = {true, pc, mask};
    table_.stamp(e);
}

void
MaskCache::remove(Addr pc)
{
    auto [e, hit] = table_.findOrVictim(pc);
    if (hit)
        e.valid = false;
}

void
MaskCache::maybeReset(std::uint64_t retiredInstrs)
{
    if (retiredInstrs - lastReset_ >= config_.resetIntervalInstrs) {
        reset();
        lastReset_ = retiredInstrs;
    }
}

void
MaskCache::reset()
{
    ++resets_;
    for (auto &e : table_.entries())
        e.valid = false;
}

} // namespace cdfsim::cdf

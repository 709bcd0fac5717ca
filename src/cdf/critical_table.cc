#include "cdf/critical_table.hh"

#include "common/logging.hh"

namespace cdfsim::cdf
{

CriticalCountTable::CriticalCountTable(const CriticalTableConfig &config,
                                       StatRegistry &stats,
                                       const std::string &name)
    : config_(config),
      table_(config.entries, config.ways,
             ("critical count table '" + name + "'").c_str()),
      updates_(stats.counter(name + ".updates")),
      allocations_(stats.counter(name + ".allocations"))
{
    for (auto &e : table_.entries()) {
        e.strict = SatCounter(config.strictBits);
        e.permissive = SatCounter(config.permissiveBits);
    }
}

void
CriticalCountTable::update(Addr pc, bool negativeEvent)
{
    ++updates_;
    SIM_AUDIT_ONLY({
        if (audit_.due())
            auditInvariants();
    });
    auto [e, hit] = table_.findOrVictim(pc);
    if (!hit) {
        ++allocations_;
        e = {true, pc, SatCounter(config_.strictBits),
             SatCounter(config_.permissiveBits)};
    }
    table_.stamp(e);
    if (negativeEvent) {
        e.strict.increment(config_.missInc);
        e.permissive.increment(config_.missInc);
    } else {
        e.strict.decrement(config_.hitDec);
        e.permissive.decrement(config_.hitDec);
    }
}

bool
CriticalCountTable::isCritical(Addr pc) const
{
    return isCriticalUnder(pc, mode_);
}

bool
CriticalCountTable::isCriticalUnder(Addr pc, ThresholdMode mode) const
{
    const Entry *e = table_.find(pc);
    if (!e)
        return false;
    if (mode == ThresholdMode::Strict)
        return e->strict.value() >= config_.strictThreshold;
    return e->permissive.value() >= config_.permissiveThreshold;
}

} // namespace cdfsim::cdf

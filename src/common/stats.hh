/**
 * @file
 * Minimal named-statistics registry, plus a streaming mean.
 *
 * Every hardware structure in the timing model registers counters
 * here (accesses, hits, flushes, ...). The energy model consumes the
 * registry wholesale, so activity-based energy accounting follows
 * automatically from instrumentation.
 */

#ifndef CDFSIM_COMMON_STATS_HH
#define CDFSIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/serialize.hh"

namespace cdfsim
{

/**
 * A registry of named 64-bit counters and derived scalar values.
 *
 * Counter references returned by counter() remain valid for the
 * lifetime of the registry (node-based map storage), so components
 * cache them and bump through the reference on the fast path.
 */
class StatRegistry
{
  public:
    /** Get (creating if needed) the counter called @p name. */
    std::uint64_t &
    counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Read a counter, returning 0 when it was never created. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** True when a counter with @p name exists. */
    bool
    has(const std::string &name) const
    {
        return counters_.find(name) != counters_.end();
    }

    /** All counters, sorted by name (map ordering). */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Counters whose names start with @p prefix. */
    std::vector<std::pair<std::string, std::uint64_t>>
    withPrefix(const std::string &prefix) const;

    /** Reset every counter to zero (used after warmup). */
    void resetAll();

    /** Render "name = value" lines, one per counter. */
    std::string dump() const;

    /** Serialize every counter into a JSON object (sorted names). */
    Json toJson() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/** Streaming mean without storing samples. */
class RunningMean
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        ++n_;
    }

    /**
     * Account @p n samples of the same value in one step. Exactly
     * equivalent to calling add(v) n times when v and v*n are
     * integers below 2^53: integer-valued doubles add exactly, so
     * v + v + ... (n times) == v * n bit-for-bit. The idle-skip fast
     * path relies on this to bulk-apply the per-cycle MLP sample.
     */
    void
    addRepeated(double v, std::uint64_t n)
    {
        sum_ += v * static_cast<double>(n);
        n_ += n;
    }

    double mean() const { return n_ == 0 ? 0.0 : sum_ / n_; }
    std::uint64_t samples() const { return n_; }

    void
    reset()
    {
        sum_ = 0.0;
        n_ = 0;
    }

    template <class Self, class Ar>
    static void
    snapFields(Self &self, Ar &ar)
    {
        ar.io(self.sum_, self.n_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    double sum_ = 0.0;
    std::uint64_t n_ = 0;
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_STATS_HH

/**
 * @file
 * Declarative sweep descriptions (ROADMAP: "Config sweeps as data").
 *
 * Every figure/ablation sweep is the same shape of matrix —
 * (workload x mode x config overrides x run window). SweepSpec is the
 * data form of that matrix: named workload sets, variant lists,
 * config-override axes (cross-product or zipped) and run-window
 * overrides, expanded into the exact SweepCell list SweepRunner
 * consumes. The checked-in figure grids are schema-versioned JSON
 * files under `bench/specs/`, run by the `bench_sweep_spec` driver;
 * the C++ form (SweepSpec::group() filled with the plain structs
 * below) expands identically and serves tests and embedders.
 *
 * Expansion order is deterministic and part of the contract: for
 * each group in declaration order, for each axis-value combination
 * (first axis outermost; zipped axes advance in lockstep), for each
 * workload, for each variant. The figure tables walk their rows in
 * this order, so their geomeans see a fixed input order.
 *
 * Validation failures throw std::runtime_error with a message that
 * names the offending spec path (e.g. "groups[2].variants[1].mode").
 */

#ifndef CDFSIM_SIM_SWEEP_SPEC_HH
#define CDFSIM_SIM_SWEEP_SPEC_HH

#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/sweep.hh"

namespace cdfsim::sim
{

/** One dotted-key config override, e.g. {"cdf.partition.dynamic",
 *  false}. Keys are the snake_case JSON names, not C++ members. */
struct SpecOverride
{
    std::string key;
    Json value;
};

/**
 * A partial RunSpec: only fields explicitly set override the level
 * below (defaults -> group -> axis value -> variant).
 */
struct SpecWindow
{
    /** Sentinel for "keep the inherited value". */
    static constexpr std::uint64_t kKeep = ~std::uint64_t{0};

    std::uint64_t warmupInstrs = kKeep;
    std::uint64_t measureInstrs = kKeep;
    std::uint64_t maxCycles = kKeep;

    void
    applyTo(RunSpec &spec) const
    {
        if (warmupInstrs != kKeep)
            spec.warmupInstrs = warmupInstrs;
        if (measureInstrs != kKeep)
            spec.measureInstrs = measureInstrs;
        if (maxCycles != kKeep)
            spec.maxCycles = maxCycles;
    }
};

/** One point on an axis: a tag appended to variant names plus the
 *  overrides it stands for. */
struct SpecAxisValue
{
    std::string tag;
    std::vector<SpecOverride> config;
    SpecWindow window;
};

/** One config-override axis (e.g. the Fig. 17 window scale). */
struct SpecAxis
{
    std::string name;
    std::vector<SpecAxisValue> values;
};

/** One run variant within a group (e.g. "cdf_nobr"). */
struct SpecVariant
{
    std::string name;
    ooo::CoreMode mode = ooo::CoreMode::Baseline;
    std::vector<SpecOverride> config;
    SpecWindow window;
};

/** A (workloads x axes x variants) block of the matrix. */
struct SpecGroup
{
    std::vector<std::string> workloads;
    std::vector<SpecAxis> axes;
    /** Advance all axes in lockstep instead of a cross product
     *  (every axis must then have the same number of values). */
    bool zip = false;
    SpecWindow window;
    std::vector<SpecVariant> variants;
};

/**
 * A complete declarative sweep. See the README "Sweep specs" section
 * for the JSON schema (sweep_spec_schema_version 1).
 */
class SweepSpec
{
  public:
    explicit SweepSpec(std::string name) : name_(std::move(name)) {}

    /** Parse a spec document. @p where prefixes every error message
     *  (normally the file path). Throws std::runtime_error. */
    static SweepSpec fromJson(const Json &doc,
                              const std::string &where);

    /** Read + parse a spec file. Throws std::runtime_error. */
    static SweepSpec fromFile(const std::string &path);

    const std::string &name() const { return name_; }

    /** The sweep-wide RunSpec every cell starts from. */
    RunSpec &defaults() { return defaults_; }
    const RunSpec &defaults() const { return defaults_; }

    /** Define a named workload set usable as "@name" in groups. */
    void
    defineWorkloadSet(std::string name,
                      std::vector<std::string> workloads)
    {
        workloadSets_.emplace_back(std::move(name),
                                   std::move(workloads));
    }

    /**
     * Append a group. @p workloads entries may be literal workload
     * names, "@set" references, or "*" (every workload); they are
     * resolved and validated immediately. Throws on unknown names.
     */
    SpecGroup &group(std::vector<std::string> workloads);

    const std::vector<SpecGroup> &groups() const { return groups_; }

    /** Every distinct workload any group names, in first-appearance
     *  order — the "available" list for a --workloads filter. */
    std::vector<std::string> workloadUnion() const;

    /**
     * Expand to the cell list, in the documented deterministic
     * order. @p filter, when non-empty, restricts each group to the
     * filter's workloads in FILTER order (the harness's --workloads
     * semantics); entries no group names are
     * ignored here — validate them against workloadUnion() first.
     * Throws std::runtime_error on duplicate (workload, variant)
     * cells or invalid overrides, naming the spec path.
     */
    std::vector<SweepCell>
    expand(const ooo::CoreConfig &base,
           const std::vector<std::string> &filter = {}) const;

  private:
    std::string name_;
    RunSpec defaults_{};
    std::vector<std::pair<std::string, std::vector<std::string>>>
        workloadSets_;
    std::vector<SpecGroup> groups_;
};

/**
 * Apply one dotted snake_case override (see the README schema table
 * for the key registry) to @p config. "scale_window" is an action:
 * it calls CoreConfig::scaleWindow with a number, or with the string
 * "cdf_area_equivalent" meaning 1 + 4 x cdfArea / coreArea of
 * @p config as it stands (the Fig. 17 area-equivalent baseline).
 * Throws std::runtime_error
 * prefixed with @p where on unknown keys or type mismatches.
 */
void applyConfigOverride(ooo::CoreConfig &config,
                         const std::string &key, const Json &value,
                         const std::string &where);

/** Parse "baseline"/"cdf"/"pre"; throws naming @p where otherwise. */
ooo::CoreMode parseCoreMode(const std::string &text,
                            const std::string &where);

} // namespace cdfsim::sim

#endif // CDFSIM_SIM_SWEEP_SPEC_HH

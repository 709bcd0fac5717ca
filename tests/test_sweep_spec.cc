/**
 * @file
 * Unit tests for sim::SweepSpec: deterministic expansion order
 * (groups -> axis combinations -> workloads -> variants), product vs
 * zipped axes, --workloads filter semantics, C++/JSON equivalence,
 * the config-override registry, the validation errors
 * that must name the offending spec path, and the checked-in specs'
 * literals that copy CoreConfig defaults.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "energy/energy_model.hh"
#include "ooo/core_config.hh"
#include "sim/sweep_spec.hh"
#include "workloads/workloads.hh"

using cdfsim::Json;
using cdfsim::ooo::CoreConfig;
using cdfsim::ooo::CoreMode;
using cdfsim::sim::SweepCell;
using cdfsim::sim::SweepSpec;

namespace
{

std::vector<std::string>
cellIds(const std::vector<SweepCell> &cells)
{
    std::vector<std::string> ids;
    for (const SweepCell &c : cells)
        ids.push_back(c.workload + "/" + c.variant);
    return ids;
}

Json
parseOrDie(const std::string &text)
{
    std::string error;
    Json doc = Json::parse(text, &error);
    EXPECT_TRUE(!doc.isNull()) << error;
    return doc;
}

/** The spec of a JSON document; its error paths start at "spec". */
SweepSpec
specFrom(const std::string &text)
{
    return SweepSpec::fromJson(parseOrDie(text), "spec");
}

/** EXPECT that @p fn throws std::runtime_error whose message
 *  contains @p needle (the spec path naming the offense). */
template <typename Fn>
void
expectSpecError(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected a spec error mentioning '" << needle
               << "'";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "error message '" << e.what()
            << "' does not mention '" << needle << "'";
    }
}

TEST(SweepSpec, ExpansionOrderIsWorkloadOuterVariantInner)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar", "mcf"], "variants": [
            {"name": "base", "mode": "baseline"},
            {"name": "cdf", "mode": "cdf"}]}]})");

    const auto cells = spec.expand(CoreConfig{});
    EXPECT_EQ(cellIds(cells),
              (std::vector<std::string>{"astar/base", "astar/cdf",
                                        "mcf/base", "mcf/cdf"}));
    EXPECT_EQ(cells[1].mode, CoreMode::Cdf);
    EXPECT_EQ(cells[1].config.mode, CoreMode::Cdf);
}

TEST(SweepSpec, GroupsExpandInDeclarationOrder)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [
            {"workloads": ["mcf"],
             "variants": [{"name": "cdf", "mode": "cdf"}]},
            {"workloads": ["astar"],
             "variants": [{"name": "base", "mode": "baseline"}]}]})");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"mcf/cdf", "astar/base"}));
}

TEST(SweepSpec, ProductAxesFirstAxisOutermost)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"],
            "axes": [
                {"name": "outer", "values": [{"tag": "o1"},
                                             {"tag": "o2"}]},
                {"name": "inner", "values": [{"tag": "i1"},
                                             {"tag": "i2"}]}],
            "variants": [{"name": "v", "mode": "baseline"}]}]})");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{
                  "astar/v@o1@i1", "astar/v@o1@i2", "astar/v@o2@i1",
                  "astar/v@o2@i2"}));
}

TEST(SweepSpec, ZippedAxesAdvanceInLockstep)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"], "zip": true,
            "axes": [
                {"name": "a", "values": [{"tag": "a1"}, {"tag": "a2"}]},
                {"name": "b", "values": [{"tag": "b1"}, {"tag": "b2"}]}],
            "variants": [{"name": "v", "mode": "baseline"}]}]})");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"astar/v@a1@b1",
                                        "astar/v@a2@b2"}));
}

TEST(SweepSpec, EmptyAxisTagAddsNoSuffix)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"],
            "axes": [{"name": "a", "values": [{"tag": ""}]}],
            "variants": [{"name": "v", "mode": "baseline"}]}]})");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"astar/v"}));
}

TEST(SweepSpec, FilterRestrictsToFilterOrder)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar", "mcf", "lbm"],
            "variants": [{"name": "base", "mode": "baseline"}]}]})");

    // Filter order wins over group order, and unmatched entries in
    // the group vanish.
    const auto cells =
        spec.expand(CoreConfig{}, {"lbm", "astar"});
    EXPECT_EQ(cellIds(cells), (std::vector<std::string>{
                                  "lbm/base", "astar/base"}));
}

TEST(SweepSpec, FilterCanEmptyOutAGroup)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [
            {"workloads": ["astar"],
             "variants": [{"name": "base", "mode": "baseline"}]},
            {"workloads": ["mcf"],
             "variants": [{"name": "cdf", "mode": "cdf"}]}]})");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{}, {"mcf"})),
              (std::vector<std::string>{"mcf/cdf"}));
}

TEST(SweepSpec, WindowLayersDefaultsGroupAxisVariant)
{
    SweepSpec spec("t");
    spec.defaults().warmupInstrs = 1'000;
    spec.defaults().measureInstrs = 2'000;
    spec.defaults().maxCycles = 3'000;

    auto &g = spec.group({"astar"});
    g.window.measureInstrs = 20;
    cdfsim::sim::SpecVariant v{"v", CoreMode::Baseline, {}, {}};
    v.window.maxCycles = 30;
    g.variants = {v, {"w", CoreMode::Baseline, {}, {}}};

    const auto cells = spec.expand(CoreConfig{});
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].spec.warmupInstrs, 1'000u); // from defaults
    EXPECT_EQ(cells[0].spec.measureInstrs, 20u);   // group override
    EXPECT_EQ(cells[0].spec.maxCycles, 30u);       // variant override
    EXPECT_EQ(cells[1].spec.maxCycles, 3'000u);    // untouched
}

TEST(SweepSpec, ConfigOverridesApplyAxisThenVariant)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"],
            "axes": [{"name": "size", "values": [
                {"tag": "big", "config": {"rob_size": 512}}]}],
            "variants": [{"name": "v", "mode": "cdf", "config": {
                "rob_size": 64, "cdf.partition.dynamic": false}}]}]})");

    const auto cells = spec.expand(CoreConfig{});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].config.robSize, 64u); // variant wins
    EXPECT_FALSE(cells[0].config.cdf.partition.dynamic);
}

TEST(SweepSpec, ScaleWindowOverrideMatchesCoreConfigScaleWindow)
{
    CoreConfig direct;
    direct.scaleWindow(0.5);

    CoreConfig viaSpec;
    cdfsim::sim::applyConfigOverride(viaSpec, "scale_window",
                                     Json(0.5), "here");
    EXPECT_EQ(viaSpec.robSize, direct.robSize);
    EXPECT_EQ(viaSpec.rsSize, direct.rsSize);
    EXPECT_EQ(viaSpec.lqSize, direct.lqSize);
    EXPECT_EQ(viaSpec.sqSize, direct.sqSize);
    EXPECT_EQ(viaSpec.physRegs, direct.physRegs);
}

TEST(SweepSpec, ScaleWindowCdfAreaEquivalentMatchesAreaRatio)
{
    // The Fig. 17 area-equivalent baseline: grow the window by four
    // times CDF's structure area as a fraction of the core's.
    const CoreConfig base;
    const double cdfAreaFrac = cdfsim::energy::Model::cdfArea(base) /
                               cdfsim::energy::Model::coreArea(base);
    CoreConfig direct = base;
    direct.scaleWindow(1.0 + cdfAreaFrac * 4.0);
    ASSERT_GT(direct.robSize, base.robSize);

    CoreConfig viaSpec;
    cdfsim::sim::applyConfigOverride(viaSpec, "scale_window",
                                     Json("cdf_area_equivalent"),
                                     "here");
    EXPECT_EQ(viaSpec.robSize, direct.robSize);
    EXPECT_EQ(viaSpec.rsSize, direct.rsSize);
    EXPECT_EQ(viaSpec.lqSize, direct.lqSize);
    EXPECT_EQ(viaSpec.sqSize, direct.sqSize);
    EXPECT_EQ(viaSpec.physRegs, direct.physRegs);

    // The checked-in Fig. 17 spec's base_big cells get that window.
    const auto cells =
        SweepSpec::fromFile(CDFSIM_SPEC_DIR "/fig17_scaling.json")
            .expand(CoreConfig{});
    unsigned bigCells = 0;
    for (const SweepCell &c : cells) {
        if (c.variant != "base_big")
            continue;
        ++bigCells;
        EXPECT_EQ(c.config.robSize, direct.robSize) << c.workload;
    }
    EXPECT_EQ(bigCells, 6u);
}

TEST(SweepSpec, ScaleWindowRejectsOtherStrings)
{
    const Json doc = parseOrDie(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"], "variants": [
            {"name": "v", "mode": "baseline",
             "config": {"scale_window": "area_equivalent"}}]}]})");
    const SweepSpec spec = SweepSpec::fromJson(doc, "bad.json");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "groups[0].variants[0].config.scale_window");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "'area_equivalent'");
}

TEST(SweepSpec, PermissiveVariantsMatchCoreConfigDefaults)
{
    // These variants copy the CCT permissive bits/thresholds into the
    // strict counters as literals; they must track CoreConfig.
    const CoreConfig defaults;
    const std::vector<std::pair<std::string, std::string>> specs = {
        {"ablation_thresholds.json", "permissive"},
        {"smoke.json", "cdf_permissive"}};
    for (const auto &[file, variant] : specs) {
        const auto cells =
            SweepSpec::fromFile(std::string(CDFSIM_SPEC_DIR "/") + file)
                .expand(CoreConfig{});
        unsigned matched = 0;
        for (const SweepCell &c : cells) {
            if (c.variant != variant)
                continue;
            ++matched;
            const auto &load = c.config.cdf.loadTable;
            const auto &branch = c.config.cdf.branchTable;
            EXPECT_EQ(load.strictBits,
                      defaults.cdf.loadTable.permissiveBits)
                << file;
            EXPECT_EQ(load.strictThreshold,
                      defaults.cdf.loadTable.permissiveThreshold)
                << file;
            EXPECT_EQ(branch.strictBits,
                      defaults.cdf.branchTable.permissiveBits)
                << file;
            EXPECT_EQ(branch.strictThreshold,
                      defaults.cdf.branchTable.permissiveThreshold)
                << file;
        }
        EXPECT_GT(matched, 0u) << file << " has no " << variant;
    }
}

TEST(SweepSpec, WorkloadSetAndStarResolve)
{
    SweepSpec spec("t");
    spec.defineWorkloadSet("pair", {"mcf", "astar"});
    spec.group({"@pair"}).variants = {{"v", CoreMode::Baseline, {}, {}}};

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"mcf/v", "astar/v"}));

    SweepSpec all("t2");
    all.group({"*"}).variants = {{"v", CoreMode::Baseline, {}, {}}};
    EXPECT_EQ(
        all.workloadUnion(),
        cdfsim::workloads::allWorkloadNames());
}

TEST(SweepSpec, JsonAndBuilderExpandIdentically)
{
    const Json doc = parseOrDie(R"({
        "sweep": "t",
        "schema_version": 1,
        "defaults": {"warmup_instrs": 10, "measure_instrs": 20,
                     "max_cycles": 30},
        "groups": [{
            "workloads": ["astar", "mcf"],
            "variants": [
                {"name": "base", "mode": "baseline"},
                {"name": "cdf_nobr", "mode": "cdf",
                 "config": {"cdf.mark_critical_branches": false}}
            ]
        }]
    })");
    const SweepSpec fromJson = SweepSpec::fromJson(doc, "spec");

    SweepSpec built("t");
    built.defaults().warmupInstrs = 10;
    built.defaults().measureInstrs = 20;
    built.defaults().maxCycles = 30;
    built.group({"astar", "mcf"}).variants = {
        {"base", CoreMode::Baseline, {}, {}},
        {"cdf_nobr", CoreMode::Cdf,
         {{"cdf.mark_critical_branches", Json(false)}}, {}}};

    const auto a = fromJson.expand(CoreConfig{});
    const auto b = built.expand(CoreConfig{});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].variant, b[i].variant);
        EXPECT_EQ(a[i].mode, b[i].mode);
        EXPECT_EQ(a[i].spec.warmupInstrs, b[i].spec.warmupInstrs);
        EXPECT_EQ(a[i].spec.measureInstrs, b[i].spec.measureInstrs);
        EXPECT_EQ(a[i].spec.maxCycles, b[i].spec.maxCycles);
        EXPECT_EQ(a[i].config.cdf.markCriticalBranches,
                  b[i].config.cdf.markCriticalBranches);
    }
}

// ------------------------------------------------- validation errors

TEST(SweepSpec, ErrorsNameTheOffendingPath)
{
    // Missing variant mode.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"],
                        "variants": [{"name": "v"}]}]})"),
                "spec");
        },
        "spec.groups[0].variants[0]");

    // Bad mode string.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"],
                        "variants": [{"name": "v",
                                      "mode": "turbo"}]}]})"),
                "spec");
        },
        "spec.groups[0].variants[0].mode");

    // Typo'd member must not silently no-op.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"],
                        "varients": [],
                        "variants": [{"name": "v",
                                      "mode": "cdf"}]}]})"),
                "spec");
        },
        "spec.groups[0].varients");

    // Unsupported schema version.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 2,
                    "groups": []})"),
                "spec");
        },
        "spec.schema_version");

    // Zipped axes of unequal length.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"], "zip": true,
                        "axes": [
                            {"name": "a", "values": [{"tag": "1"},
                                                     {"tag": "2"}]},
                            {"name": "b", "values": [{"tag": "1"}]}],
                        "variants": [{"name": "v",
                                      "mode": "cdf"}]}]})"),
                "spec");
        },
        "spec.groups[0].axes");
}

TEST(SweepSpec, UnknownWorkloadAndSetAreRejected)
{
    SweepSpec spec("t");
    expectSpecError([&] { spec.group({"no_such_workload"}); },
                    "groups[0].workloads");
    expectSpecError([&] { spec.group({"@no_such_set"}); },
                    "groups[0].workloads");
}

TEST(SweepSpec, UnknownOverrideKeyIsRejectedAtExpand)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"], "variants": [
            {"name": "v", "mode": "cdf",
             "config": {"cdf.no_such_knob": true}}]}]})");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "groups[0].variants[0].config.cdf.no_such_knob");
}

TEST(SweepSpec, OverrideTypeMismatchIsRejected)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"], "variants": [
            {"name": "v", "mode": "cdf",
             "config": {"cdf.partition.dynamic": 3}}]}]})");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "expected a boolean");
}

TEST(SweepSpec, DuplicateCellsAreRejected)
{
    const SweepSpec spec = specFrom(R"({
        "sweep": "t", "schema_version": 1,
        "groups": [{"workloads": ["astar"], "variants": [
            {"name": "v", "mode": "baseline"},
            {"name": "v", "mode": "cdf"}]}]})");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "duplicate cell astar/v");
}

TEST(SweepSpec, FromFileRejectsMissingFile)
{
    expectSpecError(
        [] { SweepSpec::fromFile("/no/such/spec.json"); },
        "/no/such/spec.json");
}

TEST(SweepSpec, FromFileRejectsDirectory)
{
    expectSpecError([] { SweepSpec::fromFile(CDFSIM_SPEC_DIR); },
                    CDFSIM_SPEC_DIR ": not a regular file");
}

} // namespace

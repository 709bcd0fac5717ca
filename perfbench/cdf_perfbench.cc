/**
 * @file
 * Host-performance benchmark driver for cdfsim.
 *
 * Runs one benchmark workload (a fixed set of sweep cells) on one
 * thread through the public sim::Simulator API, timing every call
 * into the simulator from outside, and prints the metrics named in
 * BENCHMARK.json. perfbench/README.md explains the workloads and
 * which layer metric should move which end-to-end metric.
 *
 *   cdf_perfbench --workload NAME [--seed N] [--seconds S]
 *                 [--trace 0|1] [--kernels a,b] [--max-cycles N]
 *                 [--verify-sweep-runner]
 *
 * One "sweep" is set-up (build every kernel and its pristine memory
 * image, construct every cell's Simulator) followed by running every
 * cell in order. Cells whose sim::warmupKey matches warm up once and
 * restore the rest from an in-memory snapshot, exactly as
 * sim::SweepRunner::runAll does on one thread. Sweeps repeat while
 * another one fits in --seconds.
 *
 * Other tenants of a shared host move the simulator's CPU time by tens
 * of percent for minutes at a time, by slowing its memory accesses. A
 * MemoryProbe, a fixed loop of table lookups that no change to the
 * program affects, runs before set-up and before every cell, and each
 * time is rescaled to kRefLookupNs per probe lookup (atRefMemory). A
 * sweep's CPU time is reported as the median of the rescaled sweeps,
 * set-up time as the median of the rescaled set-ups.
 *
 * --trace 1 pairs every untraced sweep with one that sets
 * CoreConfig::profileStages, checks that both give byte-identical
 * cell results, and reports per-layer metrics instead of end-to-end
 * ones. The last line of stdout is always one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Bad arguments give a
 * one-line error on stderr and exit code 2.
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace cdfsim;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 0x5EED; // makeWorkload's default
constexpr std::size_t kMinSetupSamples = 11;
constexpr std::size_t kExtraSetupsPerSweep = 2;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU time, user + system, at nanosecond resolution. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ---------------------------------------------------------------------
// Memory probe

constexpr unsigned kProbeLog2Slots = 20; // 8 MiB of 8-byte slots
constexpr std::size_t kProbeSlots = std::size_t(1) << kProbeLog2Slots;
constexpr std::size_t kProbeLookups = 150'000;
constexpr double kRefLookupNs = 60.0;

/**
 * A yardstick for the host's memory speed: lookups of pseudo-random
 * keys in an 8 MiB open-addressed table of 4 KiB pages, each with a
 * data-dependent branch and a write, like the simulator's own tables.
 * Under other tenants' load its time per lookup tracked the
 * simulator's more closely than dependent-load chains through 1, 4 or
 * 16 MiB did (README.md). Its code and data are fixed, so it runs the
 * same on every commit; only the host changes its time.
 */
class MemoryProbe
{
  public:
    MemoryProbe()
    {
        void *p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::runtime_error("memory probe: mmap failed");
        madvise(p, kBytes, MADV_NOHUGEPAGE);
        slots_ = static_cast<std::uint64_t *>(p);
        for (std::size_t i = 0; i < kProbeSlots; ++i)
            slots_[i] = nextKey();
    }

    ~MemoryProbe() { munmap(slots_, kBytes); }
    MemoryProbe(const MemoryProbe &) = delete;
    MemoryProbe &operator=(const MemoryProbe &) = delete;

    /** CPU seconds per lookup over kProbeLookups lookups. */
    double
    secondsPerLookup()
    {
        const double t0 = cpuSeconds();
        std::uint64_t acc = acc_;
        for (std::size_t i = 0; i < kProbeLookups; ++i) {
            const std::uint64_t key = nextKey();
            std::size_t h = (key * 0x9E3779B97F4A7C15ull) >>
                            (64 - kProbeLog2Slots);
            // Probe on until the low tag bits match or bits 4-5 are
            // clear: about three slots per lookup.
            while ((slots_[h] & 7) != (key & 7) && (slots_[h] & 0x30) != 0)
                h = (h + 1) & (kProbeSlots - 1);
            if (slots_[h] & 1)
                acc += slots_[h];
            else
                slots_[h] ^= acc;
        }
        acc_ = acc;
        return (cpuSeconds() - t0) / static_cast<double>(kProbeLookups);
    }

  private:
    static constexpr std::size_t kBytes = kProbeSlots * sizeof(std::uint64_t);

    std::uint64_t
    nextKey()
    {
        key_ ^= key_ << 13;
        key_ ^= key_ >> 7;
        key_ ^= key_ << 17;
        return key_;
    }

    std::uint64_t *slots_ = nullptr;
    std::uint64_t key_ = 0x9E3779B97F4A7C15ull;
    std::uint64_t acc_ = 0;
};

/** @p seconds rescaled to a host whose probe lookups take kRefLookupNs. */
double
atRefMemory(double seconds, double probeSecondsPerLookup)
{
    return seconds * ratio(kRefLookupNs * 1e-9, probeSecondsPerLookup);
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "cdf_perfbench: error: %s\n", msg.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Workloads

struct Variant
{
    const char *name;
    ooo::CoreMode mode;
    bool markCriticalBranches = true;
};

/** One figure of a workload: cells are kernel x variant, prefixed. */
struct Figure
{
    std::string prefix;
    std::vector<Variant> variants;
};

struct BenchWorkload
{
    std::string name;
    std::vector<std::string> kernels;
    std::vector<Figure> figures;
    sim::RunSpec spec;
};

const std::vector<Variant> kModes = {
    {"base", ooo::CoreMode::Baseline},
    {"cdf", ooo::CoreMode::Cdf},
    {"pre", ooo::CoreMode::Pre},
};

sim::RunSpec
runSpec(std::uint64_t warmup, std::uint64_t measure)
{
    sim::RunSpec spec;
    spec.warmupInstrs = warmup;
    spec.measureInstrs = measure;
    return spec;
}

/**
 * Why each workload exists is recorded in README.md. The windows are
 * half the figure windows (300k / 200k) so that a 30-second run holds
 * about ten sweeps, enough for a steady median.
 */
std::vector<BenchWorkload>
benchWorkloads()
{
    std::vector<Variant> fig13 = kModes;
    fig13.push_back({"cdf_nobr", ooo::CoreMode::Cdf, false});
    return {
        {"branchy", {"astar", "soplex", "omnetpp"}, {{"", kModes}},
         runSpec(150'000, 100'000)},
        {"dense", {"zeusmp", "gems", "fotonik", "lbm"}, {{"", kModes}},
         runSpec(150'000, 100'000)},
        {"figure_chain",
         {"mcf", "cactu"},
         {{"fig13.", fig13},
          {"fig14.", kModes},
          {"fig15.", kModes},
          {"fig16.", kModes}},
         runSpec(150'000, 30'000)},
    };
}

/** Cells in sweep order: figure, then kernel, then variant. */
std::vector<sim::SweepCell>
expandCells(const BenchWorkload &w, const std::vector<std::string> &kernels,
            std::optional<Cycle> maxCycles)
{
    std::vector<sim::SweepCell> cells;
    for (const Figure &fig : w.figures) {
        for (const std::string &kernel : kernels) {
            for (const Variant &v : fig.variants) {
                sim::SweepCell c;
                c.workload = kernel;
                c.variant = fig.prefix + v.name;
                c.mode = v.mode;
                c.config.mode = v.mode;
                c.config.cdf.markCriticalBranches =
                    v.markCriticalBranches;
                c.spec = w.spec;
                if (maxCycles)
                    c.spec.maxCycles = *maxCycles;
                cells.push_back(std::move(c));
            }
        }
    }
    return cells;
}

// ---------------------------------------------------------------------
// One sweep

/** Wall-clock seconds inside each call into the program. */
struct Spans
{
    double build = 0.0; //!< makeWorkload + pristine image
    double ctor = 0.0;
    double warmup = 0.0;
    double measure = 0.0;
    double save = 0.0;
    double restore = 0.0;
};

struct CellResult
{
    sim::RunResult run;
    std::string error;
    std::string json; //!< toJson(RunResult), or the error
};

struct SweepSample
{
    double setupS = 0.0;
    double setupCpuS = 0.0;
    double setupProbe = 0.0; //!< probe s/lookup just before set-up
    double cpuS = 0.0;  //!< process CPU over the cells
    double wallS = 0.0; //!< wall clock over the cells
    double cellProbe = 0.0; //!< mean probe s/lookup before the cells
    Spans spans;
    std::uint64_t simInstrs = 0;  //!< retired in simulated phases
    std::uint64_t simCycles = 0;  //!< cycles of simulated phases
    std::uint64_t skippedCycles = 0;
    std::uint64_t skipEvents = 0;
    std::uint64_t warmupsRun = 0;
    std::uint64_t warmupsShared = 0;
    std::uint64_t ckptBytes = 0;
    ooo::StageProfile profile; //!< summed over every phase
    std::vector<CellResult> cells;
};

void
addProfileDelta(ooo::StageProfile &sum, const ooo::StageProfile &after,
                const ooo::StageProfile &before)
{
    for (unsigned s = 0; s < ooo::StageProfile::kNumStages; ++s)
        sum.ns[s] += after.ns[s] - before.ns[s];
    sum.ticks += after.ticks - before.ticks;
    for (unsigned l = 0; l < mem::MemLevelProfile::kNumLevels; ++l) {
        sum.mem.ns[l] += after.mem.ns[l] - before.mem.ns[l];
        sum.mem.accesses[l] +=
            after.mem.accesses[l] - before.mem.accesses[l];
    }
}

/** Build every kernel once and construct one Simulator per cell. */
std::vector<std::unique_ptr<sim::Simulator>>
setUp(const std::vector<sim::SweepCell> &cells, std::uint64_t seed,
      bool traced, MemoryProbe &probe, SweepSample &sample)
{
    sample.setupProbe = probe.secondsPerLookup();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    std::map<std::string,
             std::pair<std::shared_ptr<const workloads::Workload>,
                       std::shared_ptr<const isa::MemoryImage>>>
        shared;
    for (const sim::SweepCell &cell : cells) {
        if (shared.count(cell.workload))
            continue;
        const auto tb = Clock::now();
        auto workload = std::make_shared<const workloads::Workload>(
            workloads::makeWorkload(cell.workload, seed));
        auto image = std::make_shared<isa::MemoryImage>();
        if (workload->init)
            workload->init(*image);
        shared[cell.workload] = {std::move(workload), std::move(image)};
        sample.spans.build += secondsSince(tb);
    }
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    for (const sim::SweepCell &cell : cells) {
        ooo::CoreConfig config = cell.config;
        config.mode = cell.mode;
        config.profileStages = traced;
        const auto &[workload, pristine] = shared.at(cell.workload);
        const auto tc = Clock::now();
        sims.push_back(
            std::make_unique<sim::Simulator>(config, workload, pristine));
        sample.spans.ctor += secondsSince(tc);
    }
    sample.setupS = secondsSince(t0);
    sample.setupCpuS = cpuSeconds() - cpu0;
    return sims;
}

struct WarmupGroup
{
    std::size_t members = 0;
    bool ready = false;
    sim::Checkpoint ckpt;
};

SweepSample
runSweep(const std::vector<sim::SweepCell> &cells, std::uint64_t seed,
         bool traced, MemoryProbe &probe)
{
    SweepSample s;
    auto sims = setUp(cells, seed, traced, probe, s);

    std::vector<std::uint64_t> keys(cells.size(), 0);
    std::unordered_map<std::uint64_t, WarmupGroup> groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].spec.warmupInstrs == 0)
            continue;
        ooo::CoreConfig keyConfig = cells[i].config;
        keyConfig.mode = cells[i].mode;
        keys[i] = sim::warmupKey(cells[i].workload, keyConfig,
                                 cells[i].spec);
        ++groups[keys[i]].members;
    }

    s.cells.resize(cells.size());
    const auto wall0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::SweepCell &cell = cells[i];
        CellResult &out = s.cells[i];
        sim::Simulator &simulator = *sims[i];
        ooo::Core &core = simulator.core();
        s.cellProbe += probe.secondsPerLookup();
        const double cellCpu0 = cpuSeconds();
        try {
            WarmupGroup *group = cell.spec.warmupInstrs == 0
                                     ? nullptr
                                     : &groups.at(keys[i]);
            bool warmupTruncated = false;
            if (group && group->ready) {
                const auto t = Clock::now();
                SnapReader reader(group->ckpt.payload);
                simulator.restoreState(reader);
                s.spans.restore += secondsSince(t);
                warmupTruncated = group->ckpt.warmupTruncated;
                ++s.warmupsShared;
            } else {
                const ooo::StageProfile before = core.profile();
                const auto t = Clock::now();
                warmupTruncated = simulator.warmup(cell.spec);
                s.spans.warmup += secondsSince(t);
                addProfileDelta(s.profile, core.profile(), before);
                s.simInstrs += core.retired();
                s.simCycles += core.cycle();
                s.skippedCycles += core.skippedCycles();
                s.skipEvents += core.skipEvents();
                if (group)
                    ++s.warmupsRun;
                if (group && group->members > 1) {
                    const auto ts = Clock::now();
                    SnapWriter writer;
                    simulator.saveState(writer);
                    group->ckpt.payload = writer.take();
                    s.spans.save += secondsSince(ts);
                    group->ckpt.warmupTruncated = warmupTruncated;
                    group->ready = true;
                    s.ckptBytes += group->ckpt.payload.size();
                }
            }
            const ooo::StageProfile before = core.profile();
            const auto t = Clock::now();
            out.run = simulator.measure(cell.spec, warmupTruncated);
            s.spans.measure += secondsSince(t);
            addProfileDelta(s.profile, out.run.profile, before);
            s.simInstrs += out.run.core.retiredInstrs;
            s.simCycles += out.run.core.cycles;
            s.skippedCycles += out.run.skippedCycles;
            s.skipEvents += out.run.skipEvents;
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        out.run.workload = cell.workload;
        out.run.mode = cell.mode;
        out.json = out.error.empty() ? sim::toJson(out.run).dump(-1)
                                     : "error: " + out.error;
        sims[i].reset();
        s.cpuS += cpuSeconds() - cellCpu0;
    }
    s.cellProbe /= static_cast<double>(cells.size());
    s.wallS = secondsSince(wall0);
    return s;
}

/** Why a cell's result is unusable, or "" when it is fine. */
std::string
cellFailure(const CellResult &r)
{
    if (!r.error.empty())
        return r.error;
    if (!r.run.ok())
        return r.run.status();
    if (r.run.stats.get("core.retired_instrs") != r.run.core.retiredInstrs)
        return "retired-instruction count disagrees with the stats";
    return "";
}

std::uint64_t
fingerprint(const SweepSample &s)
{
    std::uint64_t h = fnv1a64("");
    for (const CellResult &c : s.cells)
        h = fnv1a64(c.json + "\n", h);
    return h >> 11; // 53 bits: exact as a JSON number
}

/** CPU seconds of one sweep: the median of @p sweeps, each rescaled. */
double
sweepCpuAtRef(const std::vector<SweepSample> &sweeps)
{
    std::vector<double> xs;
    for (const SweepSample &s : sweeps)
        xs.push_back(atRefMemory(s.cpuS, s.cellProbe));
    return median(std::move(xs));
}

// ---------------------------------------------------------------------
// Host fingerprint

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    const unsigned maxLeaf = __get_cpuid_max(0x80000000, nullptr);
    if (maxLeaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

Json
hostFingerprint()
{
    Json j = Json::object();
    j["cpu"] = cpuModel();
    j["nproc"] = std::thread::hardware_concurrency();
#if defined(__clang__)
    j["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    j["compiler"] = std::string("gcc ") + __VERSION__;
#else
    j["compiler"] = "unknown";
#endif
    j["build_type"] = PERFBENCH_BUILD_TYPE;
    return j;
}

// ---------------------------------------------------------------------
// Metrics

struct MetricSet
{
    Json json = Json::object();

    void
    add(const std::string &name, Json value, const char *unit)
    {
        Json m = Json::object();
        m["value"] = std::move(value);
        m["unit"] = unit;
        json[name] = std::move(m);
    }
};

/** Sum of counter @p name over the cells, optionally one mode only. */
std::uint64_t
statSum(const std::vector<sim::SweepCell> &cells, const SweepSample &s,
        const std::string &name,
        std::optional<ooo::CoreMode> mode = std::nullopt)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!mode || cells[i].mode == *mode)
            sum += s.cells[i].run.stats.get(name);
    }
    return sum;
}

/**
 * Geomean over kernels of IPC(variant)/IPC(base), taking each
 * kernel's first cell named "@p variant" (fig13's on figure_chain).
 */
double
speedup(const std::vector<sim::SweepCell> &cells, const SweepSample &s,
        const std::string &variant)
{
    std::map<std::string, double> base, other;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string &v = cells[i].variant;
        const std::string leaf = v.substr(v.find('.') + 1);
        auto &into = leaf == "base" ? base : other;
        if ((leaf == "base" || leaf == variant) &&
            !into.count(cells[i].workload))
            into[cells[i].workload] = s.cells[i].run.core.ipc;
    }
    std::vector<double> ratios;
    for (const auto &[kernel, ipc] : other) {
        if (base.count(kernel))
            ratios.push_back(ratio(ipc, base[kernel]));
    }
    return sim::geomeanPositive(ratios);
}

/** @p num / @p den as a fraction, 0 when nothing was attempted. */
double
frac(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

void
addLayerMetrics(MetricSet &m, const std::vector<sim::SweepCell> &cells,
                const std::vector<SweepSample> &untraced,
                const std::vector<SweepSample> &traced)
{
    using ooo::StageProfile;
    using mem::MemLevelProfile;
    const SweepSample &t = traced.front();
    auto med = [](const std::vector<SweepSample> &v, auto field) {
        std::vector<double> xs;
        for (const SweepSample &s : v)
            xs.push_back(field(s));
        return median(std::move(xs));
    };
    auto span = [&](double Spans::*field) {
        return med(untraced,
                   [field](const SweepSample &s) { return s.spans.*field; });
    };
    auto stageS = [&](unsigned stage) {
        return med(traced, [stage](const SweepSample &s) {
            return static_cast<double>(s.profile.ns[stage]) * 1e-9;
        });
    };
    auto memS = [&](unsigned level) {
        return med(traced, [level](const SweepSample &s) {
            return static_cast<double>(s.profile.mem.ns[level]) * 1e-9;
        });
    };
    auto stat = [&](const std::string &name,
                    std::optional<ooo::CoreMode> mode = std::nullopt) {
        return statSum(cells, t, name, mode);
    };
    const auto cdf = ooo::CoreMode::Cdf;
    const auto pre = ooo::CoreMode::Pre;

    // workloads and sim: spans timed around the calls, untraced.
    m.add("workloads.build_s", span(&Spans::build), "s");
    m.add("sim.ctor_s", span(&Spans::ctor), "s");
    m.add("sim.warmup_s", span(&Spans::warmup), "s");
    m.add("sim.measure_s", span(&Spans::measure), "s");
    m.add("sim.save_state_s", span(&Spans::save), "s");
    m.add("sim.restore_state_s", span(&Spans::restore), "s");
    m.add("sim.ckpt_bytes", t.ckptBytes, "bytes");
    m.add("sim.warmups_run", t.warmupsRun, "count");
    m.add("sim.warmups_shared", t.warmupsShared, "count");

    // sim: the exact simulated results of the measure phases.
    std::uint64_t retired = 0, cycles = 0;
    for (const CellResult &c : t.cells) {
        retired += c.run.core.retiredInstrs;
        cycles += c.run.core.cycles;
    }
    m.add("sim.retired_instrs", retired, "count");
    m.add("sim.cycles", cycles, "count");
    m.add("sim.cdf_speedup", speedup(cells, t, "cdf"), "ratio");
    m.add("sim.pre_speedup", speedup(cells, t, "pre"), "ratio");
    m.add("sim.stats_fingerprint", fingerprint(t), "hash");

    // ooo: stage host time from CoreConfig::profileStages, counts
    // from the stat registry (measure phases only).
    m.add("ooo.fetch_s", stageS(StageProfile::Fetch), "s");
    m.add("ooo.rename_s", stageS(StageProfile::Rename), "s");
    m.add("ooo.execute_s", stageS(StageProfile::Execute), "s");
    m.add("ooo.completion_s", stageS(StageProfile::Completion), "s");
    m.add("ooo.retire_s", stageS(StageProfile::Retire), "s");
    m.add("ooo.stats_s", stageS(StageProfile::Stats), "s");
    m.add("ooo.skip_s", stageS(StageProfile::Skip), "s");
    m.add("ooo.ticks", t.profile.ticks, "count");
    m.add("ooo.fetched_uops", stat("core.fetched_uops"), "count");
    m.add("ooo.wrongpath_uops", stat("core.fetched_wrongpath_uops"),
          "count");
    m.add("ooo.fetch_useful_frac",
          frac(stat("core.retired_instrs"), stat("core.fetched_uops")),
          "frac");
    m.add("ooo.skipped_cycles", t.skippedCycles, "count");
    m.add("ooo.skip_events", t.skipEvents, "count");
    m.add("ooo.skipped_cycle_frac", frac(t.skippedCycles, t.simCycles),
          "frac");
    m.add("ooo.pre_runahead_episodes", stat("core.runahead_episodes"),
          "count");
    m.add("ooo.pre_runahead_uops", stat("core.runahead_uops"), "count");
    m.add("ooo.pre_runahead_dram_frac",
          frac(stat("dram.runahead_reads", pre), stat("dram.reads", pre)),
          "frac");

    // bp
    m.add("bp.lookups", stat("bp.cond_predictions"), "count");
    m.add("bp.mispredicts", stat("core.mispredicts"), "count");
    m.add("bp.mispredict_frac",
          frac(stat("core.mispredicts"), stat("bp.cond_predictions")),
          "frac");

    // mem
    m.add("mem.l1_s", memS(MemLevelProfile::L1), "s");
    m.add("mem.llc_s", memS(MemLevelProfile::Llc), "s");
    m.add("mem.dram_s", memS(MemLevelProfile::Dram), "s");
    m.add("mem.l1d_accesses", stat("l1d.accesses"), "count");
    m.add("mem.l1d_miss_frac", frac(stat("l1d.misses"), stat("l1d.accesses")),
          "frac");
    m.add("mem.llc_miss_frac", frac(stat("llc.misses"), stat("llc.accesses")),
          "frac");
    m.add("mem.dram_reads", stat("dram.reads"), "count");
    m.add("mem.dram_row_hit_frac",
          frac(stat("dram.row_hits"),
               stat("dram.row_hits") + stat("dram.row_misses") +
                   stat("dram.row_conflicts")),
          "frac");
    m.add("mem.wrongpath_dram_frac",
          frac(stat("dram.wrongpath_reads"), stat("dram.reads")), "frac");
    m.add("mem.prefetch_useful_frac",
          frac(stat("l1d.pref_useful") + stat("llc.pref_useful"),
               stat("l1d.pref_fills") + stat("llc.pref_fills")),
          "frac");

    // cdf: CDF-mode cells only.
    double cdfCycles = 0.0, cdfModeCycles = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].mode != cdf)
            continue;
        const ooo::CoreResult &r = t.cells[i].run.core;
        cdfCycles += static_cast<double>(r.cycles);
        cdfModeCycles += r.cdfModeFraction * static_cast<double>(r.cycles);
    }
    m.add("cdf.mode_frac", ratio(cdfModeCycles, cdfCycles), "frac");
    m.add("cdf.critical_uop_frac",
          frac(stat("core.renamed_critical_uops", cdf),
               stat("core.renamed_uops", cdf)),
          "frac");
    m.add("cdf.uop_cache_hit_frac",
          frac(stat("uop_cache.hits"),
               stat("uop_cache.hits") + stat("uop_cache.misses") +
                   stat("uop_cache.misses_not_ready")),
          "frac");
    m.add("cdf.mask_cache_hits", stat("mask_cache.hits"), "count");
    m.add("cdf.fill_buffer_walks", stat("fill_buffer.walks"), "count");
    m.add("cdf.dependence_violations", stat("core.dependence_violations"),
          "count");

    // bench: what tracing costs and how much of it the spans explain.
    m.add("bench.trace_overhead_frac",
          ratio(sweepCpuAtRef(traced), sweepCpuAtRef(untraced)) - 1.0,
          "frac");
    m.add("bench.sweep_cpu_median_s",
          med(untraced, [](const SweepSample &s) { return s.cpuS; }), "s");
    m.add("bench.probe_lookup_ns",
          med(untraced,
              [](const SweepSample &s) { return s.cellProbe * 1e9; }),
          "ns");
    m.add("bench.trace_coverage_frac",
          med(traced,
              [](const SweepSample &s) {
                  const Spans &p = s.spans;
                  return ratio(p.build + p.ctor + p.warmup + p.measure +
                                   p.save + p.restore,
                               s.setupS + s.wallS);
              }),
          "frac");
}

// ---------------------------------------------------------------------
// Command line

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::optional<std::vector<std::string>> kernels;
    std::optional<Cycle> maxCycles;
    bool verifySweepRunner = false;
};

std::uint64_t
parseUint(const std::string &flag, const char *text, int base = 10)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, base);
    if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
        errno != 0)
        usageError(flag + " needs a non-negative integer, got '" + text +
                   "'");
    return v;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = s.find(',', start);
        out.push_back(s.substr(start, comma - start));
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--verify-sweep-runner") {
            o.verifySweepRunner = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("unknown flag or missing value: " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = parseUint(flag, value, 0);
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUint(flag, value);
            if (s == 0 || s > 3600)
                usageError("--seconds must be in 1..3600");
            o.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUint(flag, value);
            if (t > 1)
                usageError("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (flag == "--kernels") {
            o.kernels = splitCommas(value);
        } else if (flag == "--max-cycles") {
            o.maxCycles = parseUint(flag, value);
            if (*o.maxCycles == 0)
                usageError("--max-cycles must be positive");
        } else {
            usageError("unknown flag: " + flag);
        }
    }
    if (!haveWorkload)
        usageError("--workload is required (branchy, dense or "
                   "figure_chain)");
    return o;
}

/** Compare every cell with sim::SweepRunner on one thread. */
std::size_t
countSweepRunnerMismatches(const std::vector<sim::SweepCell> &cells,
                           const SweepSample &s)
{
    sim::SweepRunner runner(1);
    const std::vector<sim::SweepOutcome> ref = runner.runAll(cells);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string want =
            ref[i].error.empty() ? sim::toJson(ref[i].run).dump(-1)
                                 : "error: " + ref[i].error;
        if (want != s.cells[i].json) {
            ++mismatches;
            std::fprintf(stderr, "cell %s/%s: differs from SweepRunner\n",
                         cells[i].workload.c_str(),
                         cells[i].variant.c_str());
        }
    }
    return mismatches;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    std::optional<BenchWorkload> workload;
    for (BenchWorkload &w : benchWorkloads()) {
        if (w.name == opt.workload)
            workload = std::move(w);
    }
    if (!workload)
        usageError("unknown workload '" + opt.workload +
                   "' (branchy, dense or figure_chain)");
    const std::vector<std::string> known = workloads::allWorkloadNames();
    const std::vector<std::string> kernels =
        opt.kernels.value_or(workload->kernels);
    for (const std::string &k : kernels) {
        if (std::find(known.begin(), known.end(), k) == known.end())
            usageError("unknown kernel '" + k + "'");
    }
    if (opt.verifySweepRunner && opt.seed != kDefaultSeed)
        usageError("--verify-sweep-runner needs the default seed, which "
                   "is the one SweepRunner uses");
    const std::vector<sim::SweepCell> cells =
        expandCells(*workload, kernels, opt.maxCycles);

    Json header = Json::object();
    header["workload"] = workload->name;
    header["seed"] = opt.seed;
    header["trace"] = opt.trace;
    header["cells"] = static_cast<std::uint64_t>(cells.size());
    header["warmup_instrs"] = workload->spec.warmupInstrs;
    header["measure_instrs"] = workload->spec.measureInstrs;
    header["host"] = hostFingerprint();
    std::printf("%s\n", header.dump(-1).c_str());
    std::fflush(stdout);

    // Repeat rounds while the next one should end within half a round
    // of the time budget. A round is a sweep, then a traced sweep under
    // --trace 1 or, since set-up is short, extra set-ups alone.
    MemoryProbe probe;
    std::vector<SweepSample> untraced, traced, setups;
    auto extraSetUp = [&] {
        SweepSample s;
        setUp(cells, opt.seed, false, probe, s);
        setups.push_back(s);
    };
    const auto start = Clock::now();
    double roundS = 0.0;
    do {
        const auto t0 = Clock::now();
        untraced.push_back(runSweep(cells, opt.seed, false, probe));
        if (opt.trace) {
            traced.push_back(runSweep(cells, opt.seed, true, probe));
        } else {
            for (std::size_t i = 0; i < kExtraSetupsPerSweep; ++i)
                extraSetUp();
        }
        roundS = secondsSince(t0);
    } while (secondsSince(start) + 0.5 * roundS <= opt.seconds);
    while (!opt.trace && untraced.size() + setups.size() < kMinSetupSamples)
        extraSetUp();

    // Failures: per cell, and traced cells that differ from untraced.
    std::uint64_t attempted = 0, failed = 0;
    std::set<std::string> messages;
    auto account = [&](const SweepSample &s, const SweepSample *ref) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++attempted;
            std::string why = cellFailure(s.cells[i]);
            if (why.empty() && ref && s.cells[i].json != ref->cells[i].json)
                why = "traced and untraced stats differ";
            if (!why.empty()) {
                ++failed;
                messages.insert("cell " + cells[i].workload + "/" +
                                cells[i].variant + ": " + why);
            }
        }
    };
    for (const SweepSample &s : untraced)
        account(s, nullptr);
    for (const SweepSample &s : traced)
        account(s, &untraced.front());

    bool correct = failed == 0;
    for (const SweepSample &s : untraced) {
        if (fingerprint(s) != fingerprint(untraced.front())) {
            correct = false;
            messages.insert("repeated sweeps gave different results");
        }
    }
    if (opt.verifySweepRunner) {
        const std::size_t bad =
            countSweepRunnerMismatches(cells, untraced.front());
        std::printf("sweep_runner_identical: %zu/%zu cells\n",
                    cells.size() - bad, cells.size());
        if (bad != 0)
            correct = false;
    }
    for (const std::string &msg : messages)
        std::fprintf(stderr, "%s\n", msg.c_str());

    MetricSet m;
    std::vector<double> setupS, setupCpuS, sweepRawS, probeNs;
    for (const auto *samples : {&untraced, &setups}) {
        for (const SweepSample &s : *samples) {
            setupS.push_back(atRefMemory(s.setupCpuS, s.setupProbe));
            setupCpuS.push_back(s.setupCpuS);
        }
    }
    for (const SweepSample &s : untraced) {
        sweepRawS.push_back(s.cpuS);
        probeNs.push_back(s.cellProbe * 1e9);
    }
    if (opt.trace) {
        addLayerMetrics(m, cells, untraced, traced);
    } else {
        const double cpu = sweepCpuAtRef(untraced);
        m.add("setup_s", median(setupS), "s");
        m.add("sweep_cpu_s", cpu, "s");
        m.add("sim_kips",
              ratio(static_cast<double>(untraced.front().simInstrs) / 1e3,
                    cpu),
              "kinstr/s");
        m.add("peak_rss_mib", peakRssMib(), "MiB");
    }

    std::printf("sweeps: %zu, setups: %zu\n", untraced.size(),
                setupS.size());
    std::printf("as measured (medians): sweep cpu %.4f s, set-up cpu "
                "%.4f s, probe lookup %.2f ns\n",
                median(sweepRawS), median(setupCpuS), median(probeNs));
    for (const auto &[name, metric] : m.json.members()) {
        std::printf("%-28s %s %s\n", name.c_str(),
                    metric.find("value")->dump(-1).c_str(),
                    metric.find("unit")->asString().c_str());
    }
    Json result = Json::object();
    result["correct"] = correct;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = std::move(m.json);
    std::printf("%s\n", result.dump(-1).c_str());
    return 0;
}

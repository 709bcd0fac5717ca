/**
 * @file
 * The figure tables: one printer per checked-in sweep spec, keyed by
 * the spec's "sweep" name. bench_sweep_spec calls the matching
 * printer after Harness::run(); it prints the paper figure's table to
 * stdout and records the figure's aggregates in Harness::derived().
 *
 * Rows walk the workloads in the spec's expansion order (the
 * --workloads filter order when one is given), so every geomean sees
 * the same inputs in the same order on every run. Each figure keeps
 * its own floors and exclusions; they differ on purpose (Fig. 14
 * drops rows with base MLP <= 0.05, Fig. 15 floors base traffic at
 * one byte) and are not normalised here.
 *
 * A printer that reads a cell its spec lacks reaches
 * Harness::outcome, which throws FatalError naming the cell.
 */

#ifndef CDFSIM_BENCH_FIGURE_TABLES_HH
#define CDFSIM_BENCH_FIGURE_TABLES_HH

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace cdfsim::bench
{

/** Prints one sweep's table and records its derived aggregates. */
using TablePrinter = void (*)(Harness &h);

namespace tables
{

/** Distinct workloads in cell order: the table rows. */
inline std::vector<std::string>
rowWorkloads(const Harness &h)
{
    std::vector<std::string> rows;
    for (const auto &o : h.outcomes()) {
        if (std::find(rows.begin(), rows.end(), o.cell.workload) ==
            rows.end())
            rows.push_back(o.cell.workload);
    }
    return rows;
}

/** True when every listed cell of row @p wl can feed the figure;
 *  otherwise prints the row as halted across @p cols columns. */
inline bool
rowOk(const Harness &h, const std::string &wl,
      std::initializer_list<const char *> variants, std::size_t cols)
{
    for (const char *v : variants) {
        if (!h.ok(wl, v)) {
            printStatusRow(wl, cols, "halted");
            return false;
        }
    }
    return true;
}

/** Fig. 1: ROB contents during full-window stalls, on a baseline
 *  core training CDF's criticality marking in observation mode. */
inline void
fig01(Harness &h)
{
    printHeader("Fig. 1: ROB contents during full-window stalls",
                {"stall_frac", "crit_frac", "noncrit_frac"});

    double sum = 0.0;
    unsigned counted = 0;
    for (const auto &name : rowWorkloads(h)) {
        if (!rowOk(h, name, {"observe"}, 3))
            continue;
        const auto &r = h.get(name, "observe");
        const double crit = r.core.robCriticalFraction;
        printRow(name, {r.core.fullWindowStallFraction, crit,
                        1.0 - crit});
        if (r.core.fullWindowStallFraction > 0.01) {
            sum += crit;
            ++counted;
        }
    }
    if (counted > 0) {
        std::printf("%-12s %12s %12.3f %12.3f\n", "mean(stalling)",
                    "", sum / counted, 1.0 - sum / counted);
        h.derived()["mean_critical_fraction_stalling"] =
            sum / counted;
    }
    std::printf("\npaper: critical instructions are 10%%-40%% of the "
                "footprint;\nthe stalled ROB holds more non-critical "
                "than critical instructions\n");
}

/** Fig. 13: % IPC improvement of CDF and PRE over the baseline, plus
 *  the Section 4.2 ablation without critical-branch marking. */
inline void
fig13(Harness &h)
{
    printHeader("Fig. 13: % IPC improvement over baseline",
                {"base_ipc", "cdf_%", "pre_%", "cdf_nobr_%"});

    std::vector<double> cdfRatios, preRatios, nobrRatios;
    for (const auto &name : rowWorkloads(h)) {
        if (!rowOk(h, name, {"base", "cdf", "pre", "cdf_nobr"}, 4))
            continue;
        const double b = h.get(name, "base").core.ipc;
        const double rc = h.get(name, "cdf").core.ipc / b;
        const double rp = h.get(name, "pre").core.ipc / b;
        const double rn = h.get(name, "cdf_nobr").core.ipc / b;
        cdfRatios.push_back(rc);
        preRatios.push_back(rp);
        nobrRatios.push_back(rn);
        printRow(name, {b, (rc - 1.0) * 100.0, (rp - 1.0) * 100.0,
                        (rn - 1.0) * 100.0});
    }

    const double gc = geomeanWarn(cdfRatios, "cdf");
    const double gp = geomeanWarn(preRatios, "pre");
    const double gn = geomeanWarn(nobrRatios, "cdf_nobr");
    std::printf("%-12s %12s %11.1f%% %11.1f%% %11.1f%%\n", "geomean",
                "", (gc - 1.0) * 100.0, (gp - 1.0) * 100.0,
                (gn - 1.0) * 100.0);
    std::printf("\npaper: CDF +6.1%% geomean, PRE +2.6%%, "
                "CDF w/o critical branches +3.8%%\n");

    h.derived()["geomean_cdf_speedup"] = gc;
    h.derived()["geomean_pre_speedup"] = gp;
    h.derived()["geomean_cdf_nobr_speedup"] = gn;
}

/** Fig. 14: MLP relative to the baseline, with the share of PRE's
 *  outstanding misses that are wrong-path or dead-runahead. */
inline void
fig14(Harness &h)
{
    printHeader("Fig. 14: MLP relative to baseline",
                {"base_mlp", "cdf_rel", "pre_rel", "pre_useless"});

    std::vector<double> cdfRel, preRel;
    for (const auto &name : rowWorkloads(h)) {
        if (!rowOk(h, name, {"base", "cdf", "pre"}, 4))
            continue;
        const auto &base = h.get(name, "base");
        const auto &cdf = h.get(name, "cdf");
        const auto &pre = h.get(name, "pre");

        const double b = std::max(base.core.mlp, 1e-9);
        const double rc = std::max(cdf.core.mlp, 1e-9) / b;
        const double rp = std::max(pre.core.mlp, 1e-9) / b;
        if (base.core.mlp > 0.05) {
            cdfRel.push_back(rc);
            preRel.push_back(rp);
        }
        printRow(name, {base.core.mlp, rc, rp,
                        pre.core.mlp > 0
                            ? pre.core.uselessMlp / pre.core.mlp
                            : 0.0});
    }
    const double gc = geomeanWarn(cdfRel, "cdf MLP");
    const double gp = geomeanWarn(preRel, "pre MLP");
    std::printf("%-12s %12s %12.3f %12.3f\n", "geomean", "", gc, gp);
    std::printf("\npaper: CDF's MLP gain is almost entirely useful "
                "(correct addresses);\na large share of PRE's MLP "
                "increase is wrong-path or incorrect chains\n");

    h.derived()["geomean_cdf_mlp_rel"] = gc;
    h.derived()["geomean_pre_mlp_rel"] = gp;
}

/** Fig. 15: DRAM traffic relative to the baseline. */
inline void
fig15(Harness &h)
{
    printHeader("Fig. 15: DRAM traffic relative to baseline",
                {"base_MB", "cdf_rel", "pre_rel", "pre_ra_reads"});

    std::vector<double> cdfRel, preRel;
    for (const auto &name : rowWorkloads(h)) {
        if (!rowOk(h, name, {"base", "cdf", "pre"}, 4))
            continue;
        const auto &base = h.get(name, "base");
        const auto &cdf = h.get(name, "cdf");
        const auto &pre = h.get(name, "pre");

        const double b = std::max<double>(
            static_cast<double>(base.core.dramBytes), 1.0);
        const double rc = static_cast<double>(cdf.core.dramBytes) / b;
        const double rp = static_cast<double>(pre.core.dramBytes) / b;
        cdfRel.push_back(std::max(rc, 1e-9));
        preRel.push_back(std::max(rp, 1e-9));
        printRow(name, {b / (1024.0 * 1024.0), rc, rp,
                        static_cast<double>(
                            pre.stats.get("dram.runahead_reads"))});
    }
    const double gc = geomeanWarn(cdfRel, "cdf traffic");
    const double gp = geomeanWarn(preRel, "pre traffic");
    std::printf("%-12s %12s %12.3f %12.3f\n", "geomean", "", gc, gp);
    std::printf("\nCDF traffic vs PRE traffic: %.1f%% (paper: CDF is "
                "~4%% lower than PRE)\n",
                gp > 0 ? (gc / gp - 1.0) * 100.0 : 0.0);

    h.derived()["geomean_cdf_traffic_rel"] = gc;
    h.derived()["geomean_pre_traffic_rel"] = gp;
}

/** Fig. 16: total energy relative to the baseline. */
inline void
fig16(Harness &h)
{
    printHeader("Fig. 16: energy relative to baseline",
                {"base_uJ", "cdf_rel", "pre_rel", "cdf_dram_rel"});

    std::vector<double> cdfRel, preRel;
    for (const auto &name : rowWorkloads(h)) {
        if (!rowOk(h, name, {"base", "cdf", "pre"}, 4))
            continue;
        const auto &base = h.get(name, "base");
        const auto &cdf = h.get(name, "cdf");
        const auto &pre = h.get(name, "pre");

        const double b = std::max(base.energy.totalUj, 1e-9);
        const double rc = cdf.energy.totalUj / b;
        const double rp = pre.energy.totalUj / b;
        cdfRel.push_back(rc);
        preRel.push_back(rp);
        printRow(name, {base.energy.totalUj, rc, rp,
                        cdf.energy.dramUj /
                            std::max(base.energy.dramUj, 1e-9)});
    }
    const double gc = geomeanWarn(cdfRel, "cdf energy");
    const double gp = geomeanWarn(preRel, "pre energy");
    std::printf("%-12s %12s %12.3f %12.3f\n", "geomean", "", gc, gp);
    std::printf("\npaper: CDF -3.5%% energy, PRE +3.7%%\n");

    h.derived()["geomean_cdf_energy_rel"] = gc;
    h.derived()["geomean_pre_energy_rel"] = gp;
}

/** Fig. 17: IPC and energy of baseline and CDF cores per window
 *  scale, then the area-equivalent scaled baseline against CDF. */
inline void
fig17(Harness &h)
{
    const auto rows = rowWorkloads(h);
    // The scale tags in axis order, read back from the "base@<tag>"
    // cells; each tag's ROB size comes from that cell's config.
    std::vector<std::string> tags;
    for (const auto &o : h.outcomes()) {
        if (o.cell.variant.compare(0, 5, "base@") != 0)
            continue;
        const std::string tag = o.cell.variant.substr(5);
        if (std::find(tags.begin(), tags.end(), tag) == tags.end())
            tags.push_back(tag);
    }

    std::printf("\n== Fig. 17: IPC and energy vs window size ==\n");
    std::printf("%-8s %8s %12s %12s %12s %12s\n", "scale", "rob",
                "base_ipc", "cdf_ipc", "base_uJ", "cdf_uJ");
    for (const auto &tag : tags) {
        const std::string bv = "base@" + tag;
        const std::string cv = "cdf@" + tag;
        std::vector<double> baseIpc, cdfIpc, baseUj, cdfUj;
        for (const auto &name : rows) {
            if (!h.ok(name, bv) || !h.ok(name, cv))
                continue;
            const auto &b = h.get(name, bv);
            const auto &c = h.get(name, cv);
            baseIpc.push_back(std::max(b.core.ipc, 1e-9));
            cdfIpc.push_back(std::max(c.core.ipc, 1e-9));
            baseUj.push_back(std::max(b.energy.totalUj, 1e-9));
            cdfUj.push_back(std::max(c.energy.totalUj, 1e-9));
        }
        const double gbi = geomeanWarn(baseIpc, "base IPC");
        const double gci = geomeanWarn(cdfIpc, "cdf IPC");
        const double gbe = geomeanWarn(baseUj, "base energy");
        const double gce = geomeanWarn(cdfUj, "cdf energy");
        std::printf("%-8s %8u %12.3f %12.3f %12.1f %12.1f\n",
                    tag.c_str(),
                    h.outcome(rows.front(), bv).cell.config.robSize,
                    gbi, gci, gbe, gce);
    }

    std::printf("\nArea-equivalent scaled baseline (ROB %u):\n",
                h.outcome(rows.front(), "base_big").cell.config.robSize);
    std::vector<double> bigRel, cdfRel;
    for (const auto &name : rows) {
        if (!h.ok(name, "base@1.00") || !h.ok(name, "base_big") ||
            !h.ok(name, "cdf@1.00"))
            continue;
        const double b =
            std::max(h.get(name, "base@1.00").core.ipc, 1e-9);
        bigRel.push_back(h.get(name, "base_big").core.ipc / b);
        cdfRel.push_back(h.get(name, "cdf@1.00").core.ipc / b);
    }
    const double gb = geomeanWarn(bigRel, "scaled baseline");
    const double gc = geomeanWarn(cdfRel, "cdf");
    std::printf("scaled baseline IPC: %+.1f%%, CDF IPC: %+.1f%% "
                "(paper: +3.7%% vs +6.1%%)\n",
                (gb - 1.0) * 100.0, (gc - 1.0) * 100.0);

    h.derived()["area_equiv_baseline_speedup"] = gb;
    h.derived()["cdf_speedup"] = gc;
}

/** §3.2: strict-only, permissive-only and the dual-threshold
 *  Critical Count Table. */
inline void
ablationThresholds(Harness &h)
{
    printHeader("Ablation: Critical Count Table thresholds",
                {"dual_%", "strict_%", "permissive_%"});

    std::vector<double> d, st, pe;
    for (const auto &wl : rowWorkloads(h)) {
        if (!rowOk(h, wl, {"base", "dual", "strict", "permissive"}, 3))
            continue;
        const double b = std::max(h.get(wl, "base").core.ipc, 1e-9);
        const double rd = h.get(wl, "dual").core.ipc / b;
        const double rs = h.get(wl, "strict").core.ipc / b;
        const double rp = h.get(wl, "permissive").core.ipc / b;
        d.push_back(rd);
        st.push_back(rs);
        pe.push_back(rp);
        printRow(wl, {(rd - 1) * 100, (rs - 1) * 100, (rp - 1) * 100});
    }
    const double gd = geomeanWarn(d, "dual");
    const double gs = geomeanWarn(st, "strict");
    const double gp = geomeanWarn(pe, "permissive");
    std::printf("%-12s %11.1f%% %11.1f%% %11.1f%%\n", "geomean",
                (gd - 1) * 100, (gs - 1) * 100, (gp - 1) * 100);
    std::printf("\npaper: stricter thresholds are usually better "
                "(sparser critical stream),\nbut some benchmarks "
                "need the permissive counters; the dual scheme "
                "picks dynamically\n");
}

/** §3.5: dynamic vs static ROB/LQ/SQ partitioning. */
inline void
ablationPartition(Harness &h)
{
    printHeader("Ablation: dynamic vs static window partitioning",
                {"dynamic_%", "static50_%", "static75_%",
                 "static90_%"});

    const std::vector<const char *> variants = {
        "dynamic", "static50", "static75", "static90"};
    std::vector<std::vector<double>> cols(variants.size());
    for (const auto &wl : rowWorkloads(h)) {
        if (!rowOk(h, wl,
                   {"base", "dynamic", "static50", "static75",
                    "static90"},
                   variants.size()))
            continue;
        const double b = std::max(h.get(wl, "base").core.ipc, 1e-9);
        std::vector<double> pct;
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const double r = h.get(wl, variants[i]).core.ipc / b;
            cols[i].push_back(std::max(r, 1e-9));
            pct.push_back((r - 1) * 100);
        }
        printRow(wl, pct);
    }
    std::printf("%-12s", "geomean");
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::printf(" %11.1f%%",
                    (geomeanWarn(cols[i], variants[i]) - 1) * 100);
    std::printf("\n\npaper: dynamic partitioning beats any static "
                "split (phase-dependent optimum)\n");
}

/** §3.2: Mask Cache on/off and the dependence violations it saves. */
inline void
ablationMaskcache(Harness &h)
{
    printHeader("Ablation: Mask Cache on/off",
                {"on_%", "on_viol", "off_%", "off_viol"});

    for (const auto &wl : rowWorkloads(h)) {
        if (!rowOk(h, wl, {"base", "mask_on", "mask_off"}, 4))
            continue;
        const double b = std::max(h.get(wl, "base").core.ipc, 1e-9);
        const auto &ron = h.get(wl, "mask_on");
        const auto &roff = h.get(wl, "mask_off");
        printRow(wl, {(ron.core.ipc / b - 1) * 100,
                      static_cast<double>(
                          ron.stats.get("core.dependence_violations")),
                      (roff.core.ipc / b - 1) * 100,
                      static_cast<double>(roff.stats.get(
                          "core.dependence_violations"))});
    }
    std::printf("\npaper: the mask cache reduces dependence "
                "violations significantly;\nviolation overhead stays "
                "under 2%% of cycles\n");
}

/** Not a paper figure: mechanism-level counters (CDF episodes,
 *  violations, uop-cache and fill-buffer activity, runahead) per
 *  workload and mode, to explain why the figures look as they do. */
inline void
diagnostics(Harness &h)
{
    for (const auto &name : rowWorkloads(h)) {
        std::printf("\n=== %s ===\n", name.c_str());
        for (const char *m : {"base", "cdf", "pre"}) {
            const auto &o = h.outcome(name, m);
            const auto &r = o.run;
            if (o.failed()) {
                std::printf("%-4s status=%s %s\n", m,
                            o.error.empty() ? r.status() : "error",
                            o.error.c_str());
                continue;
            }
            const auto &s = r.stats;
            std::printf(
                "%-4s ipc=%.3f mlp=%.2f llcMPKI=%.1f brMPKI=%.1f "
                "fws=%.2f\n",
                m, r.core.ipc, r.core.mlp, r.core.llcMpki,
                r.core.branchMpki, r.core.fullWindowStallFraction);
            if (r.mode == ooo::CoreMode::Cdf) {
                std::printf(
                    "     episodes=%lu exitsUopMiss=%lu critRenamed=%lu"
                    " depViol=%lu memViol=%lu cdfFrac=%.2f\n",
                    s.get("core.cdf_episodes"),
                    s.get("core.cdf_exits_uop_miss"),
                    s.get("core.renamed_critical_uops"),
                    s.get("core.dependence_violations"),
                    s.get("core.memory_order_violations"),
                    r.core.cdfModeFraction);
                std::printf(
                    "     walks=%lu rejLo=%lu rejHi=%lu marked=%lu "
                    "traces=%lu uopHit=%lu uopMiss=%lu grows=%lu "
                    "shrinks=%lu\n",
                    s.get("fill_buffer.walks"),
                    s.get("fill_buffer.walks_rejected_low"),
                    s.get("fill_buffer.walks_rejected_high"),
                    s.get("fill_buffer.uops_marked"),
                    s.get("fill_buffer.traces_filled"),
                    s.get("uop_cache.hits"), s.get("uop_cache.misses"),
                    s.get("rob.partition_grows"),
                    s.get("rob.partition_shrinks"));
            }
            if (r.mode == ooo::CoreMode::Pre) {
                std::printf(
                    "     raEpisodes=%lu raUops=%lu raLoads=%lu "
                    "walks=%lu traces=%lu dramRA=%lu\n",
                    s.get("core.runahead_episodes"),
                    s.get("core.runahead_uops"),
                    s.get("core.runahead_loads"),
                    s.get("fill_buffer.walks"),
                    s.get("fill_buffer.traces_filled"),
                    s.get("dram.runahead_reads"));
            }
        }
    }
}

/** CI smoke sweep: one line per failed cell, then the tally. */
inline void
smoke(Harness &h)
{
    for (const auto &o : h.outcomes()) {
        if (!o.failed())
            continue;
        std::printf("FAIL %-12s %-8s %s%s\n", o.cell.workload.c_str(),
                    o.cell.variant.c_str(),
                    o.error.empty() ? o.run.status() : "error: ",
                    o.error.c_str());
    }
    std::printf("smoke sweep: %zu runs, %zu failed (%u threads)\n",
                h.outcomes().size(), h.failures(), h.threads());
}

} // namespace tables

/** The table printer for sweep @p name, or nullptr when the sweep
 *  has none (the driver then prints its generic per-cell table). */
inline TablePrinter
findTablePrinter(const std::string &name)
{
    static const std::map<std::string, TablePrinter> printers = {
        {"bench_fig01_rob_occupancy", tables::fig01},
        {"bench_fig13_speedup", tables::fig13},
        {"bench_fig14_mlp", tables::fig14},
        {"bench_fig15_memtraffic", tables::fig15},
        {"bench_fig16_energy", tables::fig16},
        {"bench_fig17_scaling", tables::fig17},
        {"bench_ablation_thresholds", tables::ablationThresholds},
        {"bench_ablation_partition", tables::ablationPartition},
        {"bench_ablation_maskcache", tables::ablationMaskcache},
        {"bench_diagnostics", tables::diagnostics},
        {"bench_smoke_sweep", tables::smoke},
    };
    const auto it = printers.find(name);
    return it == printers.end() ? nullptr : it->second;
}

} // namespace cdfsim::bench

#endif // CDFSIM_BENCH_FIGURE_TABLES_HH

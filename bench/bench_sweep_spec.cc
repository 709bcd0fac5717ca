/**
 * @file
 * The sweep driver: runs a declarative sweep spec (bench/specs/<name>.json)
 * through the shared bench harness, so every harness layer — thread
 * pool, --shard, --ckpt-dir, idle-skip, --json artifacts — works on a
 * grid described purely as data. Every paper figure and ablation is
 * one spec run through this binary:
 *
 *   bench_sweep_spec --spec bench/specs/fig13_speedup.json \
 *       [any bench::Harness flag]
 *
 * After the run it prints the figure table registered for the spec's
 * "sweep" name (figure_tables.hh), or a generic per-cell table for a
 * spec with none.
 *
 * Exit status: 0 when every cell this process ran is ok; 1 when any
 * ran cell halted, truncated or errored (the table and artifact are
 * still written, with those rows marked) or the artifact could not
 * be written; 2 for a bad command line, an invalid spec, or a table
 * that needs a cell the spec does not declare.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "figure_tables.hh"
#include "sim/sweep_spec.hh"

using namespace cdfsim;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::fprintf(stderr,
                 "usage: bench_sweep_spec --spec FILE.json "
                 "[bench::Harness flags]\n"
                 "  (--threads/--workloads/--json/--shard/--ckpt-dir/"
                 "... all apply)\n");
    std::exit(code);
}

/** The table for a spec with no figure printer: one row per cell. */
void
printCellTable(const bench::Harness &h, const std::string &title)
{
    bench::printHeader(title, {"variant", "status", "ipc", "mlp",
                               "energy_uj"});
    for (const auto &o : h.outcomes()) {
        if (o.skipped)
            continue;
        if (o.failed()) {
            std::printf("%-12s %12s %12s\n", o.cell.workload.c_str(),
                        o.cell.variant.c_str(),
                        o.error.empty() ? o.run.status() : "error");
            continue;
        }
        std::printf("%-12s %12s %12s %12.3f %12.2f %12.1f\n",
                    o.cell.workload.c_str(), o.cell.variant.c_str(),
                    o.run.status(), o.run.core.ipc, o.run.core.mlp,
                    o.run.energy.totalUj);
    }
    std::printf("\n%zu cell(s), %zu failed (%u threads)\n",
                h.outcomes().size(), h.failures(), h.threads());
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull --spec out before the harness sees the argument list; the
    // rest of the CLI is the standard harness surface.
    std::string specPath;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spec") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "bench_sweep_spec: --spec needs a "
                             "value\n");
                usage(2);
            }
            specPath = argv[i];
        } else if (std::strncmp(argv[i], "--spec=", 7) == 0) {
            specPath = argv[i] + 7;
        } else {
            rest.push_back(argv[i]);
        }
    }
    if (specPath.empty()) {
        std::fprintf(stderr,
                     "bench_sweep_spec: --spec is required\n");
        usage(2);
    }

    sim::SweepSpec spec("unloaded");
    std::vector<sim::SweepCell> cells;
    try {
        spec = sim::SweepSpec::fromFile(specPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_sweep_spec: %s\n", e.what());
        return 2;
    }

    bench::Harness h(spec.name(), static_cast<int>(rest.size()),
                     rest.data());
    // Validate --workloads against everything the spec names (exits
    // with the usual unknown-workload diagnostic); expansion then
    // applies the filter per group, in filter order.
    h.checkWorkloads(spec.workloadUnion());
    try {
        cells = spec.expand(ooo::CoreConfig{}, h.workloadFilter());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_sweep_spec: %s\n", e.what());
        return 2;
    }
    if (cells.empty()) {
        std::fprintf(stderr,
                     "bench_sweep_spec: %s expands to no cells "
                     "(over-restrictive --workloads?)\n",
                     specPath.c_str());
        return 2;
    }
    h.addCells(std::move(cells));
    h.run();

    try {
        if (const bench::TablePrinter print =
                bench::findTablePrinter(spec.name()))
            print(h);
        else
            printCellTable(h, spec.name() + " (" + specPath + ")");
    } catch (const FatalError &e) {
        std::fprintf(stderr,
                     "bench_sweep_spec: %s: the %s table needs a cell "
                     "the spec lacks (%s)\n",
                     specPath.c_str(), spec.name().c_str(), e.what());
        return 2;
    }

    const int rc = h.finish();
    if (rc != 0)
        return rc;
    return h.failures() > 0 ? 1 : 0;
}

/**
 * @file
 * Tests for the parallel sweep runner: matrix expansion order, the seed
 * chain, and the determinism contract — the same 2-benchmark x 2-seed
 * matrix emits identical rows at --jobs 1 and --jobs 4, and identical
 * JSON, regardless of completion order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

#include "sim/json_stats.hpp"
#include "sim/sweep.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean"),
                     &benchmarkByName("barnes")};
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 2;
    spec.baseSeed = 20050609;
    spec.opts.opsPerCpu = 4000;
    spec.opts.warmupOps = 0;
    spec.baseConfig = makeDefaultConfig();
    return spec;
}

std::string
runToCsv(const SweepSpec &spec, unsigned jobs)
{
    std::ostringstream os;
    writeSweepCsvHeader(os);
    SweepRunner runner(spec, jobs);
    runner.run([&os](const SweepCell &, const RunResult &r) {
        writeSweepCsvRow(os, r);
    });
    return os.str();
}

TEST(Sweep, ExpansionOrderAndSeeds)
{
    const SweepSpec spec = smallSpec();
    const std::vector<SweepCell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 8u); // 2 benchmarks x 2 regions x 2 seeds.

    // Profile-major, then region, then seed.
    EXPECT_EQ(cells[0].profile->name, "ocean");
    EXPECT_EQ(cells[0].regionBytes, 0u);
    EXPECT_EQ(cells[3].profile->name, "ocean");
    EXPECT_EQ(cells[3].regionBytes, 512u);
    EXPECT_EQ(cells[4].profile->name, "barnes");

    // The seed chain restarts from the base seed per cell group and is
    // derived at expansion time, independent of execution.
    const std::uint64_t s0 = nextSweepSeed(spec.baseSeed);
    const std::uint64_t s1 = nextSweepSeed(s0);
    EXPECT_EQ(cells[0].seed, s0);
    EXPECT_EQ(cells[1].seed, s1);
    EXPECT_EQ(cells[2].seed, s0);
    EXPECT_EQ(cells[6].seed, s0);

    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(Sweep, ByteIdenticalCsvAcrossJobCounts)
{
    const SweepSpec spec = smallSpec();
    const std::string serial = runToCsv(spec, 1);
    const std::string parallel = runToCsv(spec, 4);
    EXPECT_EQ(serial, parallel);
    // Sanity: header + 8 rows.
    EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 9);
}

TEST(Sweep, ByteIdenticalJsonAcrossJobCounts)
{
    const SweepSpec spec = smallSpec();
    const std::string a = toJson(SweepRunner(spec, 1).run());
    const std::string b = toJson(SweepRunner(spec, 4).run());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"seed\": "), std::string::npos);
}

TEST(Sweep, ResultsCarryCellMetadata)
{
    const SweepSpec spec = smallSpec();
    SweepRunner runner(spec, 2);
    const std::vector<RunResult> results = runner.run();
    ASSERT_EQ(results.size(), runner.cells().size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].workload, runner.cells()[i].profile->name);
        EXPECT_EQ(results[i].regionBytes, runner.cells()[i].regionBytes);
        EXPECT_EQ(results[i].seed, runner.cells()[i].seed);
    }
}

TEST(Sweep, ProgressCoversEveryCell)
{
    const SweepSpec spec = smallSpec();
    SweepRunner runner(spec, 4);
    std::atomic<std::size_t> events{0};
    std::atomic<std::size_t> max_done{0};
    runner.run({}, [&](std::size_t done, std::size_t total,
                       const SweepCell &) {
        events.fetch_add(1);
        std::size_t prev = max_done.load();
        while (done > prev && !max_done.compare_exchange_weak(prev, done))
            ;
        EXPECT_EQ(total, 8u);
    });
    EXPECT_EQ(events.load(), 8u);
    EXPECT_EQ(max_done.load(), 8u);
}

TEST(Sweep, CellKeepsBaseRcaGeometry)
{
    // A CGCT cell switches CGCT on at its region size and changes
    // nothing else: a half-size RCA in the base config stays half size.
    SweepSpec spec = smallSpec();
    spec.profiles = {&benchmarkByName("tpc-w")};
    spec.regionSizes = {512};
    spec.seedsPerCell = 1;
    spec.baseConfig.cgct.rcaSets = 4096;
    const std::vector<RunResult> results = SweepRunner(spec, 1).run();
    ASSERT_EQ(results.size(), 1u);

    RunOptions opts = spec.opts;
    opts.seed = nextSweepSeed(spec.baseSeed);
    const RunResult half = simulateOnce(
        makeDefaultConfig().withCgct(512, 4096, 2), *spec.profiles[0],
        opts);
    const RunResult full = simulateOnce(makeDefaultConfig().withCgct(512),
                                        *spec.profiles[0], opts);
    EXPECT_EQ(toJson(results[0]), toJson(half));
    // The probe can tell the two geometries apart.
    EXPECT_NE(toJson(half), toJson(full));
}

} // namespace
} // namespace cgct

/**
 * @file
 * Tests for the named experiment matrices (sim/experiments.hpp): every
 * arm carries the configuration its experiment changes, matrix cells
 * equal direct runs on the seed chain's first link, shared cells run
 * once, results do not depend on the job count, and the report prints
 * one row per benchmark plus the summary rows. Named Sweep.* so the
 * thread-sanitizer preset runs them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "sim/experiments.hpp"
#include "sim/json_stats.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

SweepSpec
baseSpec(unsigned seeds = 3)
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean"), &benchmarkByName("tpc-w")};
    spec.seedsPerCell = seeds;
    spec.baseSeed = 20050609;
    spec.opts.opsPerCpu = 2000;
    spec.opts.warmupOps = 400;
    spec.baseConfig = makeDefaultConfig();
    return spec;
}

/** The config arm @p a of @p m runs (its one region applied). */
SystemConfig
armConfig(const Matrix &m, std::size_t a)
{
    const SweepSpec &spec = m.arms[a].spec;
    return spec.cellConfig(spec.expand().front());
}

TEST(Sweep, MatrixRegistryBuildsEveryMatrix)
{
    const SweepSpec base = baseSpec();
    ASSERT_EQ(matrixNames().size(), 12u);
    for (const std::string &name : matrixNames()) {
        const Matrix m = makeMatrix(name, base);
        EXPECT_EQ(m.name, name);
        EXPECT_FALSE(m.columns.empty()) << name;
        EXPECT_FALSE(m.paper.empty()) << name;
        // fig8 and fig9 report a CI over --seeds; the rest run the
        // chain's first seed once.
        const bool ci = name == "fig8" || name == "fig9";
        for (const MatrixArm &a : m.arms) {
            EXPECT_EQ(a.spec.regionSizes.size(), 1u) << name;
            EXPECT_EQ(a.spec.profiles, base.profiles) << name;
            EXPECT_EQ(a.spec.seedsPerCell, ci ? 3u : 1u) << name;
            EXPECT_EQ(a.spec.baseSeed, base.baseSeed) << name;
        }
        for (const MatrixColumn &c : m.columns) {
            EXPECT_LT(c.ratioNum, static_cast<int>(m.columns.size()));
            EXPECT_LT(c.ratioDen, static_cast<int>(m.columns.size()));
        }
    }
}

TEST(Sweep, MatrixAblationArmsCarryTheirSetting)
{
    const SweepSpec base = baseSpec();
    const SystemConfig cgct512 = makeDefaultConfig().withCgct(512);

    Matrix m = makeMatrix("selfinval", base);
    EXPECT_FALSE(armConfig(m, 0).cgct.enabled);
    EXPECT_TRUE(armConfig(m, 1).cgct.selfInvalidation);
    EXPECT_FALSE(armConfig(m, 2).cgct.selfInvalidation);
    EXPECT_EQ(armConfig(m, 2).cgct.regionBytes, 512u);

    m = makeMatrix("replacement", base);
    EXPECT_TRUE(armConfig(m, 0).cgct.favorEmptyRegions);
    EXPECT_FALSE(armConfig(m, 1).cgct.favorEmptyRegions);

    m = makeMatrix("threestate", base);
    EXPECT_FALSE(armConfig(m, 1).cgct.threeStateProtocol);
    EXPECT_TRUE(armConfig(m, 2).cgct.threeStateProtocol);

    m = makeMatrix("prefetch", base);
    EXPECT_FALSE(armConfig(m, 1).cgct.regionPrefetchHints);
    EXPECT_TRUE(armConfig(m, 2).cgct.regionPrefetchHints);

    m = makeMatrix("dma", base);
    for (std::size_t a = 0; a < 2; ++a) {
        EXPECT_TRUE(armConfig(m, a).dma.enabled);
        EXPECT_EQ(armConfig(m, a).dma.meanInterval, 4000u);
    }
    EXPECT_FALSE(armConfig(m, 0).cgct.enabled);
    EXPECT_TRUE(armConfig(m, 1).cgct.enabled);

    // Every CGCT arm above is otherwise the paper's 512 B, 8192x2 RCA.
    for (const char *name : {"selfinval", "replacement", "threestate",
                             "prefetch"}) {
        const SystemConfig c = armConfig(makeMatrix(name, base), 1);
        EXPECT_TRUE(c.cgct.enabled) << name;
        EXPECT_EQ(c.cgct.rcaSets, cgct512.cgct.rcaSets) << name;
        EXPECT_EQ(c.cgct.rcaWays, cgct512.cgct.rcaWays) << name;
    }
}

TEST(Sweep, MatrixGeometryAndHalfRca)
{
    const SweepSpec base = baseSpec();
    const Matrix geo = makeMatrix("geometry", base);
    const std::pair<unsigned, unsigned> want[] = {
        {1024, 2}, {2048, 2}, {4096, 2}, {8192, 2}, {4096, 4}};
    ASSERT_EQ(geo.arms.size(), 5u);
    for (std::size_t a = 0; a < 5; ++a) {
        EXPECT_EQ(armConfig(geo, a).cgct.rcaSets, want[a].first);
        EXPECT_EQ(armConfig(geo, a).cgct.rcaWays, want[a].second);
        EXPECT_EQ(armConfig(geo, a).cgct.regionBytes, 512u);
    }

    const Matrix fig9 = makeMatrix("fig9", base);
    ASSERT_EQ(fig9.arms.size(), 3u);
    EXPECT_FALSE(armConfig(fig9, 0).cgct.enabled);
    EXPECT_EQ(armConfig(fig9, 1).cgct.rcaSets, 8192u);
    EXPECT_EQ(armConfig(fig9, 2).cgct.rcaSets, 4096u);
    EXPECT_EQ(armConfig(fig9, 2).cgct.rcaWays, 2u);
}

TEST(Sweep, MatrixSec32RunsFourTimesLonger)
{
    const SweepSpec base = baseSpec();
    const Matrix m = makeMatrix("sec32", base);
    for (const MatrixArm &a : m.arms) {
        EXPECT_EQ(a.spec.opts.opsPerCpu, 4 * base.opts.opsPerCpu);
        EXPECT_EQ(a.spec.opts.warmupOps, 4 * base.opts.warmupOps);
    }
}

TEST(Sweep, MatrixCellsMatchDirectRuns)
{
    // fig9's half-size arm at one seed is exactly a direct run of the
    // half-size RCA on the seed chain's first link.
    const SweepSpec base = baseSpec(1);
    const std::vector<Matrix> ms = {makeMatrix("fig9", base)};
    const auto rows = runMatrices(ms, 2);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), base.profiles.size());
    RunOptions opts = base.opts;
    opts.seed = nextSweepSeed(base.baseSeed);
    for (std::size_t p = 0; p < base.profiles.size(); ++p) {
        EXPECT_EQ(rows[0][p].profile, base.profiles[p]);
        ASSERT_EQ(rows[0][p].runs[2].size(), 1u);
        const RunResult direct = simulateOnce(
            makeDefaultConfig().withCgct(512, 4096, 2), *base.profiles[p],
            opts);
        EXPECT_EQ(toJson(rows[0][p].first(2)), toJson(direct));
    }
}

TEST(Sweep, MatrixSharedCellsRunOnceAndAnyJobCount)
{
    // fig10's two arms are fig7's baseline and 512 B arms: running both
    // matrices simulates fig7's four arms only.
    const SweepSpec base = baseSpec();
    const std::vector<Matrix> ms = {makeMatrix("fig7", base),
                                    makeMatrix("fig10", base)};
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> total{0};
    const auto serial =
        runMatrices(ms, 1, [&](std::size_t, std::size_t t) {
            calls.fetch_add(1);
            total.store(t);
        });
    EXPECT_EQ(total.load(), 4 * base.profiles.size());
    EXPECT_EQ(calls.load(), total.load());

    const auto parallel = runMatrices(ms, 3);
    for (std::size_t m = 0; m < ms.size(); ++m) {
        std::ostringstream a, b;
        printMatrixReport(a, ms[m], serial[m]);
        printMatrixReport(b, ms[m], parallel[m]);
        EXPECT_EQ(a.str(), b.str()) << ms[m].name;
    }
    for (std::size_t p = 0; p < base.profiles.size(); ++p)
        EXPECT_EQ(toJson(serial[1][p].first(1)),
                  toJson(serial[0][p].first(2)));
}

TEST(Sweep, MatrixReportRowsAndSummaries)
{
    const SweepSpec base = baseSpec(2);
    const std::vector<Matrix> ms = {makeMatrix("fig8", base)};
    const auto rows = runMatrices(ms, 2);
    std::ostringstream os;
    printMatrixReport(os, ms[0], rows[0]);
    const std::string out = os.str();
    EXPECT_EQ(out.rfind("[fig8] Figure 8", 0), 0u) << out;
    EXPECT_NE(out.find("seeds=2"), std::string::npos);
    EXPECT_NE(out.find("\nocean "), std::string::npos);
    EXPECT_NE(out.find("\ntpc-w "), std::string::npos);
    EXPECT_NE(out.find("\nmean "), std::string::npos);
    EXPECT_NE(out.find("\ncommercial mean "), std::string::npos);
    EXPECT_NE(out.find("\npaper: 8.8%"), std::string::npos);
    // The CI columns stay blank in the summary rows.
    const std::size_t mean = out.find("\nmean ");
    const std::string mean_line =
        out.substr(mean + 1, out.find('\n', mean + 1) - mean - 1);
    std::istringstream words(mean_line);
    std::string w;
    int blanks = 0;
    while (words >> w)
        blanks += w == "-";
    EXPECT_EQ(blanks, 3) << mean_line;
}

} // namespace
} // namespace cgct

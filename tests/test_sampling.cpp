/**
 * @file
 * Tests for the statistical-sampling engine (docs/SAMPLING.md):
 * determinism across job counts, peak memory flat in the window count,
 * agreement with full-detail runs, geometry validation, warm-state
 * invariants, journal persistence of the sampling tail, and the sampled
 * sweep CSV columns.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sampling.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

RunOptions
smallRun()
{
    RunOptions opts;
    opts.opsPerCpu = 12000;
    opts.warmupOps = 2400;
    opts.seed = 7;
    return opts;
}

SamplingOptions
smallSampling()
{
    SamplingOptions sopts;
    sopts.windows = 4;
    sopts.windowOps = 500;
    return sopts;
}

/** Canonical byte encoding of a result (the journal's), for equality. */
std::vector<std::uint8_t>
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return {s.buffer().data(), s.buffer().data() + s.size()};
}

TEST(Sampling, ParseWarmMode)
{
    WarmMode m = WarmMode::Detailed;
    EXPECT_TRUE(parseWarmMode("functional", &m));
    EXPECT_EQ(m, WarmMode::Functional);
    EXPECT_TRUE(parseWarmMode("detailed", &m));
    EXPECT_EQ(m, WarmMode::Detailed);
    EXPECT_FALSE(parseWarmMode("warm", &m));
    EXPECT_FALSE(parseWarmMode("", &m));
    EXPECT_STREQ(warmModeName(WarmMode::Functional), "functional");
    EXPECT_STREQ(warmModeName(WarmMode::Detailed), "detailed");
}

TEST(Sampling, InfoGeometry)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), smallSampling());
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 4u);
    EXPECT_EQ(r.sampling->windowOps, 500u);
    EXPECT_EQ(r.sampling->warmMode, "functional");
    EXPECT_EQ(r.sampling->spanOps, 12000u - 2400u);
    EXPECT_EQ(r.sampling->sampledOps, 4u * 500u);
    EXPECT_DOUBLE_EQ(r.sampling->scale, 9600.0 / 2000.0);
    EXPECT_EQ(r.sampling->cycles.count, 4u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.requestsTotal, 0u);
}

TEST(Sampling, ByteIdenticalAcrossJobs)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");

    // K == jobs; K > jobs, so the warm pass blocks on the oldest window
    // once every worker has one in flight; K < jobs.
    const struct {
        std::uint64_t windows;
        unsigned jobs;
    } cases[] = {{4, 4}, {8, 2}, {2, 4}};
    for (const auto &c : cases) {
        SamplingOptions serial = smallSampling();
        serial.windows = c.windows;
        serial.jobs = 1;
        SamplingOptions parallel = serial;
        parallel.jobs = c.jobs;

        const RunResult a =
            simulateSampled(config, profile, smallRun(), serial);
        const RunResult b =
            simulateSampled(config, profile, smallRun(), parallel);
        EXPECT_EQ(encoded(a), encoded(b))
            << c.windows << " windows on " << c.jobs << " jobs";
    }
}

/** Peak RSS (KiB) of a forked child that runs one sampled run; -1 if
 *  the child failed. */
long
childPeakRssKb(const SystemConfig &config, const RunOptions &opts,
               const SamplingOptions &sopts)
{
    const pid_t pid = fork();
    if (pid == 0) {
        simulateSampled(config, benchmarkByName("tpc-w"), opts, sopts);
        _exit(0);
    }
    int status = 0;
    rusage ru{};
    if (pid < 0 || wait4(pid, &status, 0, &ru) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1;
    return ru.ru_maxrss;
}

/**
 * Each warm snapshot goes to its window as soon as it is taken, so a
 * sweep cell's peak memory does not grow with the window count. A warm
 * pass that held all K images until it ended would peak at about 4x the
 * K=2 figure here (each 16-node image is ~25 MB).
 */
TEST(Sampling, PeakMemoryFlatInWindowCount)
{
#if defined(__SANITIZE_ADDRESS__)
    // ASan's quarantine keeps up to 256 MB of freed blocks resident, so
    // RSS there counts freed images too (213 vs 363 MB at K=2 vs K=16).
    GTEST_SKIP() << "RSS under ASan includes the quarantine of freed "
                    "blocks, not only live ones";
#endif
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.topology.numCpus = 16;
    config.interconnect.topology = TopologyKind::Hier;
    config.validate();

    SamplingOptions sopts = smallSampling();
    sopts.jobs = 1; // as in a sweep cell
    sopts.windows = 2;
    const long k2 = childPeakRssKb(config, smallRun(), sopts);
    sopts.windows = 16;
    const long k16 = childPeakRssKb(config, smallRun(), sopts);
    ASSERT_GT(k2, 0);
    ASSERT_GT(k16, 0);
    EXPECT_LE(static_cast<double>(k16), 1.5 * static_cast<double>(k2))
        << "peak RSS " << k2 / 1024 << " MB at K=2, " << k16 / 1024
        << " MB at K=16";
}

TEST(Sampling, ZeroWindowsFallsBackToFullDetail)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    SamplingOptions off;
    off.windows = 0;
    const RunResult sampled =
        simulateSampled(config, profile, smallRun(), off);
    const RunResult full = simulateOnce(config, profile, smallRun());
    EXPECT_EQ(sampled.sampling, nullptr);
    EXPECT_EQ(encoded(sampled), encoded(full));
}

TEST(Sampling, FunctionalEstimatesTrackFullDetail)
{
    // The sampled headline ratios must land near the full-detail run —
    // within the larger of the reported CI and a small absolute slack
    // (one run of one seed is itself noisy).
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    RunOptions opts;
    opts.opsPerCpu = 60000;
    opts.warmupOps = 12000;
    opts.seed = 7;
    SamplingOptions sopts;
    sopts.windows = 8;
    sopts.windowOps = 1000;

    const RunResult full = simulateOnce(config, profile, opts);
    const RunResult sampled =
        simulateSampled(config, profile, opts, sopts);
    ASSERT_NE(sampled.sampling, nullptr);

    const SamplingInfo &s = *sampled.sampling;
    EXPECT_NEAR(sampled.avoidedFraction(), full.avoidedFraction(),
                std::max(2.0 * s.avoidedFraction.ci95Half, 0.05));
    EXPECT_NEAR(sampled.l2MissRatio, full.l2MissRatio,
                std::max(2.0 * s.l2MissRatio.ci95Half, 0.05));
    EXPECT_NEAR(sampled.avgMissLatency, full.avgMissLatency,
                std::max(2.0 * s.avgMissLatency.ci95Half,
                         0.1 * full.avgMissLatency));
    // Scaled totals should be the right order of magnitude.
    EXPECT_GT(sampled.requestsTotal, full.requestsTotal / 2);
    EXPECT_LT(sampled.requestsTotal, full.requestsTotal * 2);
}

TEST(Sampling, DetailedWarmingMatchesGeometry)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts = smallSampling();
    sopts.warmMode = WarmMode::Detailed;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->warmMode, "detailed");
    EXPECT_EQ(r.sampling->cycles.count, 4u);
    EXPECT_GT(r.requestsTotal, 0u);
}

TEST(Sampling, BaselineConfigWorks)
{
    // CGCT off: the warm path must run without a region tracker.
    const SystemConfig config = makeDefaultConfig();
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), smallSampling());
    EXPECT_EQ(r.directs, 0u);
    EXPECT_EQ(r.locals, 0u);
    EXPECT_GT(r.broadcasts, 0u);
}

TEST(Sampling, WarmStateSatisfiesInvariants)
{
    // The end-of-window invariant sweep (collectRunResult -> checkAll)
    // cross-checks RCA state against cache contents, so a sampled run
    // with the checker on validates the functionally-warmed state.
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.obs.checkInvariants = true;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), smallSampling());
    EXPECT_GT(r.requestsTotal, 0u);
}

/**
 * Golden rows for functional warming: one sampled run per cell of a
 * matrix that covers every functional-warming path — the flat bus with
 * and without CGCT, the 16-node hierarchy and directory (presence and
 * sharer maps), a chip-shared RCA, and region prefetch hints. The CGCT
 * cells other than the first use a 512-entry RCA so region evictions
 * (and their inclusion flushes) happen during warming. Each cell's full
 * sweep-CSV row, CI columns included, must match
 * tests/data/functional_warm_rows.csv byte for byte. On a mismatch the
 * actual rows are written next to the test's temp files for inspection.
 */
TEST(Sampling, FunctionalWarmGoldenRows)
{
    struct Cell {
        const char *name;
        SystemConfig config;
    };
    const auto topo = [](unsigned nodes, TopologyKind kind) {
        SystemConfig c = makeDefaultConfig().withCgct(512, 256, 2);
        c.topology.numCpus = nodes;
        c.interconnect.topology = kind;
        return c;
    };
    std::vector<Cell> cells;
    cells.push_back({"bus4-cgct512", makeDefaultConfig().withCgct(512)});
    cells.push_back({"bus4-baseline", makeDefaultConfig()});
    cells.push_back({"hier16", topo(16, TopologyKind::Hier)});
    cells.push_back({"dir16", topo(16, TopologyKind::Dir)});
    {
        SystemConfig c = topo(4, TopologyKind::Bus);
        c.cgct.sharedPerChip = true;
        cells.push_back({"bus4-shared-rca", c});
    }
    {
        SystemConfig c = topo(4, TopologyKind::Bus);
        c.cgct.regionPrefetchHints = true;
        cells.push_back({"bus4-prefetch-hints", c});
    }

    std::ostringstream actual;
    writeSweepCsvHeader(actual, true, true);
    for (Cell &cell : cells) {
        cell.config.validate();
        const RunResult r = simulateSampled(
            cell.config, benchmarkByName("tpc-w"), smallRun(),
            smallSampling());
        writeSweepCsvRow(actual, r, true, true);
    }

    const std::string path =
        std::string(CGCT_TESTS_DIR) + "/data/functional_warm_rows.csv";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::stringstream expected;
    expected << in.rdbuf();

    if (expected.str() != actual.str()) {
        const std::string out =
            ::testing::TempDir() + "functional_warm_rows.actual.csv";
        std::ofstream(out) << actual.str();
        ADD_FAILURE() << "functional-warming rows differ from " << path
                      << "; actual rows written to " << out;
    }
    const auto lines = [](const std::string &text) {
        std::vector<std::string> out;
        std::istringstream is(text);
        for (std::string line; std::getline(is, line);)
            out.push_back(line);
        return out;
    };
    const std::vector<std::string> exp_rows = lines(expected.str());
    const std::vector<std::string> act_rows = lines(actual.str());
    ASSERT_EQ(exp_rows.size(), act_rows.size());
    for (std::size_t i = 0; i < act_rows.size(); ++i)
        EXPECT_EQ(exp_rows[i], act_rows[i])
            << (i == 0 ? "header" : cells[i - 1].name);
}

TEST(Sampling, FunctionalWarmingClaimsNoControllerSlots)
{
    // A 512-entry RCA evicts regions throughout warming, and each
    // eviction flushes the region's dirty lines straight to memory.
    // Functional mode models no controller timing, so those write-backs
    // (like every other functional write-back) must claim no slot: at
    // warm tick t the event clock is still 0, and a claim there would
    // leave a backlog for the first measurement window.
    SystemConfig config = makeDefaultConfig().withCgct(512, 256, 2);
    config.validate();
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(benchmarkByName("tpc-w"), n_cpus, 12000,
                               7);
    System sys(config, workload);
    sys.setFunctional(true);

    Tick tick = 0;
    for (bool drew = true; drew;) {
        drew = false;
        for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
            CpuOp op;
            if (!workload.next(static_cast<CpuId>(cpu), op))
                continue;
            drew = true;
            Tick ready;
            sys.node(cpu).access(op.kind, op.addr, ++tick, ready,
                                 Node::CompletionFn{});
        }
    }

    std::uint64_t flushed_dirty = 0;
    for (unsigned cpu = 0; cpu < n_cpus; ++cpu)
        flushed_dirty += sys.node(cpu).stats().directsByCat[
            static_cast<std::size_t>(RequestCategory::Writeback)];
    EXPECT_GT(flushed_dirty, 0u) << "no dirty region flush was warmed";
    for (unsigned i = 0; i < sys.numMemCtrls(); ++i) {
        EXPECT_EQ(sys.memCtrl(i).stats().writebacks, 0u) << "memctrl" << i;
        EXPECT_EQ(sys.memCtrl(i).stats().queuedCycles, 0u)
            << "memctrl" << i;
    }
    EXPECT_TRUE(sys.eq().empty());
}

TEST(Sampling, AdaptiveGrowsWindowsToCap)
{
    // An unreachable precision target doubles K until the hard cap.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts = smallSampling();
    sopts.windows = 2;
    sopts.ciTarget = 1e-9;
    sopts.maxWindows = 8;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 8u);
}

TEST(Sampling, AdaptiveStopsWhenTargetMet)
{
    // A trivially loose target is met by the starting window count.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts = smallSampling();
    sopts.windows = 2;
    sopts.ciTarget = 1e9;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 2u);
}

TEST(Sampling, AdaptiveRespectsWindowGeometry)
{
    // Span 9600, 2000 ops per window: at most 4 windows fit, whatever
    // maxWindows allows.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts;
    sopts.windows = 2;
    sopts.windowOps = 2000;
    sopts.ciTarget = 1e-9;
    sopts.maxWindows = 64;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 4u);
}

TEST(Sampling, AdaptiveFinalRoundMatchesFixedRun)
{
    // The adaptive loop's last round is a plain fixed-K run: pinning
    // start == cap reproduces the non-adaptive result byte for byte.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions fixed = smallSampling(); // 4 windows, no target.
    SamplingOptions adaptive = smallSampling();
    adaptive.ciTarget = 1e-9;
    adaptive.maxWindows = 4;
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    const RunResult a =
        simulateSampled(config, profile, smallRun(), fixed);
    const RunResult b =
        simulateSampled(config, profile, smallRun(), adaptive);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(SamplingDeathTest, RejectsOversizedWindows)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    RunOptions opts = smallRun(); // span 9600, 4 windows -> max 2400
    SamplingOptions sopts = smallSampling();
    sopts.windowOps = 3000;
    EXPECT_DEATH(simulateSampled(config, benchmarkByName("tpc-w"), opts,
                                 sopts),
                 "do not fit");
}

TEST(SamplingDeathTest, RejectsWarmupPastEnd)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    RunOptions opts = smallRun();
    opts.warmupOps = opts.opsPerCpu;
    EXPECT_DEATH(simulateSampled(config, benchmarkByName("tpc-w"), opts,
                                 smallSampling()),
                 "warmup");
}

TEST(SamplingDeathTest, RejectsDma)
{
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.dma.enabled = true;
    EXPECT_DEATH(simulateSampled(config, benchmarkByName("tpc-w"),
                                 smallRun(), smallSampling()),
                 "DMA");
}

TEST(Sampling, JournalRoundTripsSamplingTail)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const RunResult in = simulateSampled(config, benchmarkByName("tpc-w"),
                                         smallRun(), smallSampling());
    ASSERT_NE(in.sampling, nullptr);

    Serializer s;
    encodeRunResult(s, in);
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(),
                    "roundtrip");
    const RunResult out = decodeRunResult(r);
    ASSERT_NE(out.sampling, nullptr);
    EXPECT_EQ(out.sampling->windows, in.sampling->windows);
    EXPECT_EQ(out.sampling->warmMode, in.sampling->warmMode);
    EXPECT_DOUBLE_EQ(out.sampling->scale, in.sampling->scale);
    EXPECT_DOUBLE_EQ(out.sampling->cycles.ci95Half,
                     in.sampling->cycles.ci95Half);
    EXPECT_EQ(encoded(in), encoded(out));
}

TEST(Sampling, JournalDecodeAcceptsRecordsWithoutTail)
{
    // Records journaled by a full-detail sweep end at the distribution
    // list; the decoder must not read past them.
    RunResult in;
    in.workload = "tpc-w";
    in.cycles = 123;
    Serializer s;
    encodeRunResult(s, in);
    // Strip the "no sampling" marker and the topology tail to mimic an
    // old record that ends at the distribution list.
    Serializer tail;
    tail.b(false);
    tail.str(in.topology);
    tail.u32(in.nodes);
    tail.u64(in.localResolves);
    tail.u64(in.interChipBroadcasts);
    SectionReader r(s.buffer().data(),
                    s.buffer().data() + s.size() - tail.size(),
                    "old-record");
    const RunResult out = decodeRunResult(r);
    EXPECT_EQ(out.cycles, 123u);
    EXPECT_EQ(out.sampling, nullptr);
    EXPECT_EQ(out.topology, "bus");
    EXPECT_EQ(out.nodes, 4u);
}

TEST(Sampling, SweepEmitsCiColumns)
{
    SweepSpec spec;
    spec.profiles.push_back(&benchmarkByName("tpc-w"));
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 1;
    spec.opts = smallRun();
    spec.baseConfig = makeDefaultConfig();
    spec.sampled = true;
    spec.sampling = smallSampling();

    std::ostringstream os;
    writeSweepCsvHeader(os, true);
    SweepRunner runner(spec, 2);
    const std::vector<RunResult> results = runner.run(
        [&os](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(os, r, true);
        });
    ASSERT_EQ(results.size(), 2u);

    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line);
    EXPECT_NE(line.find(",windows,window_ops,warm_mode,"),
              std::string::npos);
    const auto columns = [](const std::string &row) {
        return 1 + static_cast<int>(
                       std::count(row.begin(), row.end(), ','));
    };
    const int header_cols = columns(line);
    while (std::getline(is, line)) {
        EXPECT_EQ(columns(line), header_cols);
        EXPECT_NE(line.find(",functional,"), std::string::npos);
    }
}

TEST(Sampling, SweepCsvIdenticalAcrossJobs)
{
    SweepSpec spec;
    spec.profiles.push_back(&benchmarkByName("tpc-w"));
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 1;
    spec.opts = smallRun();
    spec.baseConfig = makeDefaultConfig();
    spec.sampled = true;
    spec.sampling = smallSampling();

    const auto sweepCsv = [&spec](unsigned jobs) {
        std::ostringstream os;
        writeSweepCsvHeader(os, true);
        SweepRunner runner(spec, jobs);
        runner.run([&os](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(os, r, true);
        });
        return os.str();
    };
    EXPECT_EQ(sweepCsv(1), sweepCsv(4));
}

} // namespace
} // namespace cgct

/**
 * @file
 * Determinism of one simulation on the sequential event kernel: the
 * same configuration, workload and seed give byte-identical results
 * and byte-identical drained state on every run, through periodic
 * checkpoint drains and a mid-run restore, on multi-chip, single-chip
 * and CGCT configurations. Also pins the run-loop contract of System:
 * a finished run leaves the event queue empty, and the runaway guard
 * stops short without draining.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

/** 16 processors on 8 chips: every level of the address map in use. */
SystemConfig
bigTopology()
{
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = 16;
    config.topology.cpusPerChip = 2;
    config.validate();
    return config;
}

RunOptions
smallRun(std::uint64_t seed = 7)
{
    RunOptions opts;
    opts.opsPerCpu = 12000;
    opts.warmupOps = 2400;
    opts.seed = seed;
    return opts;
}

/** Canonical byte encoding of a result (the journal's), for equality. */
std::vector<std::uint8_t>
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return {s.buffer().data(), s.buffer().data() + s.size()};
}

/** Full serialized state of a system run to completion. */
std::vector<std::uint8_t>
drainedState(const SystemConfig &config, const WorkloadProfile &profile)
{
    SyntheticWorkload w(profile, config.topology.numCpus, 4000, 7);
    System sys(config, w);
    sys.start();
    sys.run(UINT64_MAX);
    Serializer s;
    sys.serializeState(s);
    return {s.buffer().data(), s.buffer().data() + s.size()};
}

TEST(RunDeterminism, RepeatedRunsAreByteIdentical)
{
    const SystemConfig config = bigTopology();
    const WorkloadProfile profile = benchmarkByName("specint2000rate");
    const RunResult a = simulateOnce(config, profile, smallRun());
    const RunResult b = simulateOnce(config, profile, smallRun());
    EXPECT_GT(a.cycles, 0u);
    EXPECT_GT(a.broadcasts, 0u);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(RunDeterminism, SeedChangesTheResult)
{
    // Guards the comparisons above against an encoding that ignores
    // the simulation.
    const SystemConfig config = bigTopology();
    const WorkloadProfile profile = benchmarkByName("specint2000rate");
    const RunResult a = simulateOnce(config, profile, smallRun(7));
    const RunResult b = simulateOnce(config, profile, smallRun(8));
    EXPECT_NE(encoded(a), encoded(b));
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(RunDeterminism, DrainedStateIsByteIdenticalAcrossRuns)
{
    // Not just the statistics: caches, workload cursors, clocks and the
    // executed-event count of a drained system repeat exactly.
    const SystemConfig config = bigTopology();
    const WorkloadProfile profile = benchmarkByName("specint2000rate");
    const std::vector<std::uint8_t> first = drainedState(config, profile);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, drainedState(config, profile));
}

TEST(RunDeterminism, FinishedRunLeavesTheQueueEmpty)
{
    const SystemConfig config = bigTopology();
    SyntheticWorkload w(benchmarkByName("specint2000rate"),
                        config.topology.numCpus, 3000, 7);
    System sys(config, w);
    sys.start();
    const std::uint64_t ran = sys.run(UINT64_MAX);
    EXPECT_GT(ran, 0u);
    EXPECT_EQ(ran, sys.eq().executed());
    EXPECT_TRUE(sys.eq().empty());
    EXPECT_TRUE(sys.allCoresFinished());
    for (unsigned c = 0; c < config.topology.numCpus; ++c)
        EXPECT_EQ(w.opsDrawn(static_cast<CpuId>(c)), 3000u);
}

TEST(RunDeterminism, EventCapStopsWithoutDraining)
{
    const SystemConfig config = bigTopology();
    SyntheticWorkload w(benchmarkByName("specint2000rate"),
                        config.topology.numCpus, 3000, 7);
    System sys(config, w);
    sys.start();
    EXPECT_EQ(sys.run(500), 500u);
    EXPECT_FALSE(sys.eq().empty());
    EXPECT_FALSE(sys.allCoresFinished());
    // The rest of the run continues from where the cap stopped it.
    sys.run(UINT64_MAX);
    EXPECT_TRUE(sys.allCoresFinished());
}

TEST(RunDeterminism, CheckpointedRunIsRepeatable)
{
    // Periodic drains change the schedule by design, so a paused run is
    // compared with a paused run.
    const SystemConfig config = bigTopology();
    const WorkloadProfile profile = benchmarkByName("specint2000rate");
    CheckpointOptions every;
    every.everyOps = 4000; // Two pauses inside 12000 ops.
    const RunResult a =
        simulateCheckpointed(config, profile, smallRun(), every);
    const RunResult b =
        simulateCheckpointed(config, profile, smallRun(), every);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(RunDeterminism, RestoreMidRunMatchesUninterruptedPausedRun)
{
    const SystemConfig config = bigTopology();
    const WorkloadProfile profile = benchmarkByName("specint2000rate");
    const std::string prefix =
        std::string(::testing::TempDir()) + "run_determinism_ckpt";

    CheckpointOptions writing;
    writing.everyOps = 4000;
    writing.writePrefix = prefix;
    const RunResult full =
        simulateCheckpointed(config, profile, smallRun(), writing);

    CheckpointOptions restoring;
    restoring.everyOps = 4000;
    restoring.restorePath = prefix + ".8000";
    const RunResult resumed =
        simulateCheckpointed(config, profile, smallRun(), restoring);
    EXPECT_EQ(encoded(full), encoded(resumed));
}

TEST(RunDeterminism, MigratoryCgctRunIsRepeatable)
{
    // Migratory sharing couples the CPUs' op streams through the
    // workload's ownership table; CGCT adds region state on top.
    const SystemConfig config = makeDefaultConfig().withCgct(512, 256, 2);
    const WorkloadProfile profile = benchmarkByName("tpc-w");
    const RunResult a = simulateOnce(config, profile, smallRun());
    const RunResult b = simulateOnce(config, profile, smallRun());
    EXPECT_GT(a.directs + a.locals, 0u);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(RunDeterminism, SingleChipRunIsRepeatable)
{
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = 2;
    config.topology.cpusPerChip = 2;
    config.validate();
    const WorkloadProfile profile = benchmarkByName("ocean");
    const RunResult a = simulateOnce(config, profile, smallRun());
    const RunResult b = simulateOnce(config, profile, smallRun());
    EXPECT_GT(a.cycles, 0u);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(RunDeterminism, ObservabilityDoesNotPerturbResults)
{
    // Tracing and the invariant checker only record and verify; the
    // simulated machine must not notice them.
    const SystemConfig plain = makeDefaultConfig().withCgct(512, 256, 2);
    SystemConfig observed = plain;
    observed.obs.trace = true;
    observed.obs.checkInvariants = true;
    const WorkloadProfile profile = benchmarkByName("tpc-w");
    const RunResult a = simulateOnce(plain, profile, smallRun());
    const RunResult b = simulateOnce(observed, profile, smallRun());
    ASSERT_TRUE(b.trace);
    EXPECT_FALSE(b.trace->empty());
    EXPECT_EQ(encoded(a), encoded(b));
}

} // namespace
} // namespace cgct

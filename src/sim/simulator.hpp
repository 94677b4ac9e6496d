/**
 * @file
 * Run harness: builds a System around a synthetic workload, warms it up,
 * measures, and returns a RunResult with everything the benches need to
 * reproduce the paper's figures. Multi-seed runs (the paper's
 * variability methodology: several perturbed runs, 95% confidence
 * intervals, after Alameldeen et al. [27]) go through SweepRunner
 * (sim/sweep.hpp); runtimeSummary() reduces them.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/confidence.hpp"
#include "common/trace_sink.hpp"
#include "common/types.hpp"
#include "workload/profile.hpp"

namespace cgct {

/** A named histogram copied out of the finished system. */
struct HistogramSnapshot {
    std::string name;
    std::string desc;
    std::uint64_t bucketWidth = 0;
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    /** Per-bucket counts; the last bucket is the overflow bucket. */
    std::vector<std::uint64_t> buckets;
};

/** A named distribution (moments) copied out of the finished system. */
struct DistributionSnapshot {
    std::string name;
    std::string desc;
    std::uint64_t samples = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
};

/** Knobs for one simulation. */
struct RunOptions {
    std::uint64_t opsPerCpu = 200000;
    std::uint64_t warmupOps = 40000;   ///< 0 disables warmup reset.
    std::uint64_t seed = 1;
    /** Hard event cap (runaway guard). */
    std::uint64_t maxEvents = 2000000000ULL;
    /**
     * When set, tee every op the simulation consumes into a v2 trace
     * file at this path (TraceCapture). Replaying the capture under
     * the same configuration reproduces the run's statistics
     * byte-for-byte (see docs/TRACE_FORMAT.md).
     */
    std::string capturePath;
};

/**
 * Per-window summaries of a sampled run (docs/SAMPLING.md). Attached to
 * RunResult when the run was produced by simulateSampled(); each
 * RunSummary is over the K per-window measurements, so ci95Half is the
 * 95% Student-t half-width an error bar should show.
 */
struct SamplingInfo {
    std::uint64_t windows = 0;      ///< Measurement windows (K).
    std::uint64_t windowOps = 0;    ///< Detailed ops per CPU per window.
    std::string warmMode;           ///< "functional" or "detailed".
    std::uint64_t spanOps = 0;      ///< Post-warmup ops represented.
    std::uint64_t sampledOps = 0;   ///< Ops measured in detail (K * w).
    double scale = 1.0;             ///< spanOps / sampledOps.

    // Per-window summaries (mean / stddev / 95% CI over the K windows).
    RunSummary cycles;              ///< Detailed cycles per window.
    RunSummary avgMissLatency;
    RunSummary l2MissRatio;
    RunSummary avoidedFraction;
    RunSummary avgBroadcastsPer100k;
};

/** Everything measured in one run. */
struct RunResult {
    static constexpr std::size_t kNumCat =
        static_cast<std::size_t>(RequestCategory::NumCategories);

    std::string workload;
    std::uint64_t regionBytes = 0;   ///< 0 = baseline (CGCT off).
    std::uint64_t seed = 0;          ///< Seed that produced this run.

    Tick cycles = 0;                 ///< Measured runtime.
    std::uint64_t instructions = 0;  ///< Total retired, all CPUs.

    // Request routing, summed over processors (measured window).
    std::uint64_t requestsTotal = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t directs = 0;
    std::uint64_t locals = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t broadcastsByCat[kNumCat] = {};
    std::uint64_t directsByCat[kNumCat] = {};
    std::uint64_t localsByCat[kNumCat] = {};

    // Oracle (Figure 2), from the same run.
    std::uint64_t oracleTotal = 0;
    std::uint64_t oracleUnnecessary = 0;
    std::uint64_t oracleTotalByCat[kNumCat] = {};
    std::uint64_t oracleUnnecessaryByCat[kNumCat] = {};

    // Traffic (Figure 10).
    double avgBroadcastsPer100k = 0.0;
    double peakBroadcastsPer100k = 0.0;

    // Interconnect topology (docs/TOPOLOGY.md). `topology` names the
    // organization ("bus" / "hier" / "dir"), `nodes` the processor
    // count; the two counters split the topology's requests into those
    // resolved inside the requester's snoop domain and those that
    // occupied the inter-chip level (on the flat bus every broadcast
    // does — the scaling figure's headline metric).
    std::string topology = "bus";
    unsigned nodes = 4;
    std::uint64_t localResolves = 0;
    std::uint64_t interChipBroadcasts = 0;

    // Memory behavior.
    double l2MissRatio = 0.0;
    double avgMissLatency = 0.0;
    std::uint64_t cacheToCache = 0;
    std::uint64_t memorySupplied = 0;

    // RCA behavior (Section 3.2), cumulative over the whole run.
    std::uint64_t rcaEvictedEmpty = 0;
    std::uint64_t rcaEvictedOne = 0;
    std::uint64_t rcaEvictedTwo = 0;
    std::uint64_t rcaEvictedMore = 0;
    std::uint64_t rcaSelfInvalidations = 0;
    std::uint64_t inclusionWritebacks = 0;
    double avgLinesPerEvictedRegion = 0.0;

    // Observability: histograms/distributions aggregated over the system
    // (node.miss_latency is window-reset at warmup; the rca.* entries are
    // cumulative over the whole run, like the RCA scalars above).
    std::vector<HistogramSnapshot> histograms;
    std::vector<DistributionSnapshot> distributions;

    /** Captured trace events (only when config.obs.trace was set).
     *  Shared so copying RunResult around the sweep stays cheap. */
    std::shared_ptr<const std::vector<TraceEvent>> trace;

    /** Per-window CIs when this result came from a sampled run
     *  (simulateSampled); null for full-detail runs. Shared for the
     *  same reason as the trace above. */
    std::shared_ptr<const SamplingInfo> sampling;

    /** Fraction of requests that avoided a broadcast (direct + local). */
    double
    avoidedFraction() const
    {
        return requestsTotal
                   ? static_cast<double>(directs + locals) /
                         static_cast<double>(requestsTotal)
                   : 0.0;
    }

    /** Oracle: fraction of broadcasts that were unnecessary. */
    double
    oracleUnnecessaryFraction() const
    {
        return oracleTotal
                   ? static_cast<double>(oracleUnnecessary) /
                         static_cast<double>(oracleTotal)
                   : 0.0;
    }
};

/** Run one simulation. */
RunResult simulateOnce(const SystemConfig &config,
                       const WorkloadProfile &profile,
                       const RunOptions &opts);

class System;
class SyntheticWorkload;

/**
 * Replay a recorded trace (either format version) to completion on
 * @p config and return the full RunResult, exactly as simulateOnce()
 * would for a generated workload. v2 traces stream through the mmap
 * replayer with their synchronization events re-created; v1 traces
 * load eagerly. opts.opsPerCpu is ignored (the trace defines the
 * stream); opts.warmupOps applies to v2 replays only (v1 traces have
 * no per-lane progress tracking). When @p stats_out is non-null the
 * full component statistics are dumped to it before the system is torn
 * down (the CLI's --stats).
 */
RunResult simulateReplay(const SystemConfig &config,
                         const std::string &trace_path,
                         const RunOptions &opts,
                         std::ostream *stats_out = nullptr);

/**
 * Assemble a RunResult from a finished (fully drained) system: request
 * routing, oracle verdicts, traffic, RCA behavior, histograms, the
 * end-of-run invariant sweep, and the captured trace. Shared by
 * simulateOnce(), simulateReplay() and the checkpoint harness
 * (snapshot/snapshot.hpp). @p workload_name labels the result (a
 * profile name, or "trace:<path>" for replays).
 */
RunResult collectRunResult(System &sys, const std::string &workload_name,
                           std::uint64_t seed, Tick measure_start);

/**
 * Arm the periodic warmup check: every 5000 ticks, test whether
 * @p min_ops (the fewest ops any CPU has consumed — minOpsDrawn() for
 * the generator, minOpsConsumed() for a trace replay) has reached
 * @p warmup_ops, and reset the measurement statistics (recording the
 * tick in @p measure_start) once it has. The event stops rescheduling
 * when every core is finished — at a checkpoint drain as well as at the
 * end of the run — so the checkpoint harness re-arms it each phase and
 * uses @p done (may be null) to know whether the reset already
 * happened.
 */
void scheduleWarmupCheck(System &sys,
                         std::function<std::uint64_t()> min_ops,
                         std::uint64_t warmup_ops, Tick *measure_start,
                         bool *done = nullptr);

/** Summarize the runtimes (cycles) of a batch of runs. */
RunSummary runtimeSummary(const std::vector<RunResult> &runs);

} // namespace cgct

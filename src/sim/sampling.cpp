#include "sim/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/generator.hpp"

namespace cgct {

bool
parseWarmMode(const std::string &name, WarmMode *out)
{
    if (name == "functional") {
        *out = WarmMode::Functional;
        return true;
    }
    if (name == "detailed") {
        *out = WarmMode::Detailed;
        return true;
    }
    return false;
}

const char *
warmModeName(WarmMode mode)
{
    return mode == WarmMode::Functional ? "functional" : "detailed";
}

namespace {

/** The window-start op counts: K points evenly spread over the
 *  post-warmup span, the first right at the end of warmup. */
std::vector<std::uint64_t>
windowStarts(std::uint64_t warmup, std::uint64_t span, std::uint64_t k)
{
    std::vector<std::uint64_t> starts;
    starts.reserve(static_cast<std::size_t>(k));
    for (std::uint64_t i = 0; i < k; ++i)
        starts.push_back(warmup + span * i / k);
    return starts;
}

/**
 * Serialize the quiescent warm system + workload into CGCTSNAP bytes.
 * @p last_bytes carries the previous image's size between calls: a run's
 * images are all about that size, so one allocation (with 1/8 slack,
 * never touched if unused) replaces growth by doubling.
 */
std::vector<std::uint8_t>
makeWarmSnapshot(System &sys, const SyntheticWorkload &workload,
                 std::uint64_t fingerprint, std::size_t &last_bytes)
{
    Serializer s;
    s.reserve(last_bytes + last_bytes / 8);
    beginSnapshotFile(s, fingerprint);
    s.beginSection("workload");
    workload.serialize(s);
    s.endSection();
    sys.serializeState(s);
    last_bytes = s.size();
    return s.take();
}

/** Takes each warm snapshot the moment it exists, in window order. */
using SnapshotSink = std::function<void(std::vector<std::uint8_t>)>;

/**
 * Functional warming: one serial pass over the op streams with the
 * System in functional mode, so each op drives the timed path's
 * architectural steps in place (Node::access) at a shared monotonic warm
 * tick — one tick per op, so LRU order matches program order — and at
 * every window start the cores are advanced to the warm tick and the
 * quiescent system is snapshotted into @p sink.
 */
void
warmFunctional(const SystemConfig &config, const WorkloadProfile &profile,
               const RunOptions &opts,
               const std::vector<std::uint64_t> &starts,
               std::uint64_t fingerprint, const SnapshotSink &sink)
{
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    System sys(config, workload);
    sys.setFunctional(true);

    Tick warm_tick = 0;
    std::vector<std::uint64_t> instr_delta(n_cpus, 0);
    std::vector<std::uint64_t> memop_delta(n_cpus, 0);
    std::size_t image_bytes = 0;

    for (std::uint64_t target : starts) {
        workload.setPauseAt(target);
        // Round-robin draw, one op per CPU per pass: the interleaving a
        // lock-step detailed run approximates, and fully deterministic.
        bool drew = true;
        while (drew) {
            drew = false;
            for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
                CpuOp op;
                if (!workload.next(static_cast<CpuId>(cpu), op))
                    continue;
                drew = true;
                ++warm_tick;
                instr_delta[cpu] += op.gap + 1;
                ++memop_delta[cpu];
                Tick ready;
                sys.node(cpu).access(op.kind, op.addr, warm_tick, ready,
                                     Node::CompletionFn{});
            }
        }
        for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
            sys.core(cpu).warmAdvance(warm_tick, instr_delta[cpu],
                                      memop_delta[cpu]);
            instr_delta[cpu] = 0;
            memop_delta[cpu] = 0;
        }
        sink(makeWarmSnapshot(sys, workload, fingerprint, image_bytes));
    }
}

/**
 * Detailed warming: the simulateCheckpointed drain loop with the pause
 * schedule at the window starts, snapshotting into @p sink instead of to
 * disk. The reference mode: no speedup, but the warm state is exact.
 */
void
warmDetailed(const SystemConfig &config, const WorkloadProfile &profile,
             const RunOptions &opts,
             const std::vector<std::uint64_t> &starts,
             std::uint64_t fingerprint, const SnapshotSink &sink)
{
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    System sys(config, workload);
    std::size_t image_bytes = 0;

    bool first = true;
    for (std::uint64_t target : starts) {
        workload.setPauseAt(target);
        if (first)
            sys.start();
        else
            sys.resumePhase();
        first = false;

        const std::uint64_t executed = sys.eq().run(opts.maxEvents);
        if (executed >= opts.maxEvents)
            fatal("simulateSampled: event cap hit (%llu) during detailed "
                  "warming — runaway simulation?",
                  static_cast<unsigned long long>(opts.maxEvents));
        if (!sys.allCoresFinished())
            panic("simulateSampled: event queue drained before cores "
                  "reached the window start");

        sink(makeWarmSnapshot(sys, workload, fingerprint, image_bytes));
    }
}

/**
 * Restore one window's snapshot and run windowOps per CPU in detail.
 * The image is freed as soon as the System is restored from it.
 */
RunResult
runWindow(const SystemConfig &config, const WorkloadProfile &profile,
          const RunOptions &opts, std::vector<std::uint8_t> bytes,
          std::uint64_t fingerprint, std::uint64_t window_index,
          std::uint64_t window_end)
{
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    System sys(config, workload);

    {
        Deserializer d;
        const std::string label =
            "window " + std::to_string(window_index) + " snapshot";
        const std::string err = d.openBytes(std::move(bytes), label);
        if (!err.empty())
            fatal("simulateSampled: %s", err.c_str());
        if (d.fingerprint() != fingerprint)
            panic("simulateSampled: warm snapshot fingerprint mismatch");

        SectionReader w = d.section("workload");
        workload.deserialize(w);
        sys.restoreState(d);
    }

    // The window measures only its own ops: reset everything and record
    // per-core retire baselines (instruction counters are cumulative).
    std::vector<std::uint64_t> instr_base(n_cpus);
    for (unsigned i = 0; i < n_cpus; ++i)
        instr_base[i] = sys.core(i).instructions();
    const Tick measure_start = sys.maxCoreClock();
    sys.resetStats(measure_start);

    workload.setPauseAt(window_end);
    sys.resumePhase();

    const std::uint64_t executed = sys.eq().run(opts.maxEvents);
    if (executed >= opts.maxEvents)
        fatal("simulateSampled: event cap hit (%llu) inside a "
              "measurement window — runaway simulation?",
              static_cast<unsigned long long>(opts.maxEvents));
    if (!sys.allCoresFinished())
        panic("simulateSampled: event queue drained before the window "
              "completed");

    RunResult r =
        collectRunResult(sys, profile.name, opts.seed, measure_start);
    // collectRunResult reports cumulative retire counts; the window's
    // share is the delta from the restore point.
    r.instructions = 0;
    for (unsigned i = 0; i < n_cpus; ++i)
        r.instructions += sys.core(i).instructions() - instr_base[i];
    return r;
}

std::uint64_t
scaleCount(std::uint64_t sum, double scale)
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(sum) * scale));
}

} // namespace

namespace {

/** One sampled run at a fixed window count @p k (options validated). */
RunResult
sampledAtK(const SystemConfig &config, const WorkloadProfile &profile,
           const RunOptions &opts, const SamplingOptions &sopts,
           std::uint64_t k)
{
    const std::uint64_t w = sopts.windowOps;
    const std::uint64_t span = opts.opsPerCpu - opts.warmupOps;
    if (w > span / k)
        fatal("simulateSampled: %llu windows of %llu ops do not fit in "
              "the %llu post-warmup ops (need windowOps <= span / "
              "windows = %llu)",
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(span),
              static_cast<unsigned long long>(span / k));

    // The fingerprint ties every window to this exact run identity; the
    // window geometry stands in for the checkpoint interval.
    const std::uint64_t fingerprint =
        snapshotFingerprint(config, profile.name, opts, k * 1000000 + w);

    const std::vector<std::uint64_t> starts =
        windowStarts(opts.warmupOps, span, k);

    // Measurement windows: each owns a private System restored from its
    // snapshot, and each snapshot goes to its window the moment the warm
    // pass takes it, so the live images are bounded by the job count, not
    // by k. Results land in window order, so aggregation is identical at
    // any job count.
    std::vector<RunResult> windows(static_cast<std::size_t>(k));
    std::uint64_t taken = 0; // snapshots handed to windows so far
    auto window = [&](std::uint64_t i, std::vector<std::uint8_t> bytes) {
        return runWindow(config, profile, opts, std::move(bytes),
                         fingerprint, i, starts[i] + w);
    };
    const auto warm = sopts.warmMode == WarmMode::Functional
                          ? &warmFunctional
                          : &warmDetailed;
    if (sopts.jobs == 1 || k == 1) {
        warm(config, profile, opts, starts, fingerprint,
             [&](std::vector<std::uint8_t> bytes) {
                 windows[taken] = window(taken, std::move(bytes));
                 ++taken;
             });
    } else {
        // Pipelined: windows run on the pool while warming continues.
        // Once every worker has a window in flight, the warm pass waits
        // for the oldest before handing out the next snapshot.
        ThreadPool pool(sopts.jobs);
        std::deque<std::future<RunResult>> in_flight;
        std::uint64_t landed = 0;
        auto landOldest = [&] {
            windows[landed++] = in_flight.front().get();
            in_flight.pop_front();
        };
        warm(config, profile, opts, starts, fingerprint,
             [&](std::vector<std::uint8_t> bytes) {
                 if (in_flight.size() >= pool.size())
                     landOldest();
                 in_flight.push_back(pool.submit(
                     [&window, i = taken,
                      bytes = std::move(bytes)]() mutable {
                         return window(i, std::move(bytes));
                     }));
                 ++taken;
             });
        while (!in_flight.empty())
            landOldest();
    }

    // Aggregate: counts scale up by span / (K * w); ratio and latency
    // metrics average over windows; the CI samples are per-window.
    const double scale = static_cast<double>(span) /
                         static_cast<double>(k * w);

    RunResult agg;
    agg.workload = windows.front().workload;
    agg.regionBytes = windows.front().regionBytes;
    agg.seed = windows.front().seed;
    agg.topology = windows.front().topology;
    agg.nodes = windows.front().nodes;

    std::vector<double> s_cycles, s_lat, s_miss, s_avoid, s_bcast;
    std::uint64_t cycles_sum = 0;
    double l2_sum = 0.0, lat_sum = 0.0, bcast_sum = 0.0;
    for (const RunResult &r : windows) {
        agg.requestsTotal += r.requestsTotal;
        agg.broadcasts += r.broadcasts;
        agg.directs += r.directs;
        agg.locals += r.locals;
        agg.writebacks += r.writebacks;
        for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
            agg.broadcastsByCat[c] += r.broadcastsByCat[c];
            agg.directsByCat[c] += r.directsByCat[c];
            agg.localsByCat[c] += r.localsByCat[c];
        }
        agg.oracleTotal += r.oracleTotal;
        agg.oracleUnnecessary += r.oracleUnnecessary;
        for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
            agg.oracleTotalByCat[c] += r.oracleTotalByCat[c];
            agg.oracleUnnecessaryByCat[c] += r.oracleUnnecessaryByCat[c];
        }
        agg.cacheToCache += r.cacheToCache;
        agg.memorySupplied += r.memorySupplied;
        agg.localResolves += r.localResolves;
        agg.interChipBroadcasts += r.interChipBroadcasts;
        agg.inclusionWritebacks += r.inclusionWritebacks;
        agg.instructions += r.instructions;
        cycles_sum += r.cycles;

        l2_sum += r.l2MissRatio;
        lat_sum += r.avgMissLatency;
        bcast_sum += r.avgBroadcastsPer100k;
        agg.peakBroadcastsPer100k = std::max(agg.peakBroadcastsPer100k,
                                             r.peakBroadcastsPer100k);

        s_cycles.push_back(static_cast<double>(r.cycles));
        s_lat.push_back(r.avgMissLatency);
        s_miss.push_back(r.l2MissRatio);
        s_avoid.push_back(r.avoidedFraction());
        s_bcast.push_back(r.avgBroadcastsPer100k);
    }

    const double n = static_cast<double>(windows.size());
    agg.cycles = scaleCount(cycles_sum, scale);
    agg.instructions = scaleCount(agg.instructions, scale);
    agg.requestsTotal = scaleCount(agg.requestsTotal, scale);
    agg.broadcasts = scaleCount(agg.broadcasts, scale);
    agg.directs = scaleCount(agg.directs, scale);
    agg.locals = scaleCount(agg.locals, scale);
    agg.writebacks = scaleCount(agg.writebacks, scale);
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
        agg.broadcastsByCat[c] = scaleCount(agg.broadcastsByCat[c], scale);
        agg.directsByCat[c] = scaleCount(agg.directsByCat[c], scale);
        agg.localsByCat[c] = scaleCount(agg.localsByCat[c], scale);
        agg.oracleTotalByCat[c] =
            scaleCount(agg.oracleTotalByCat[c], scale);
        agg.oracleUnnecessaryByCat[c] =
            scaleCount(agg.oracleUnnecessaryByCat[c], scale);
    }
    agg.oracleTotal = scaleCount(agg.oracleTotal, scale);
    agg.oracleUnnecessary = scaleCount(agg.oracleUnnecessary, scale);
    agg.cacheToCache = scaleCount(agg.cacheToCache, scale);
    agg.memorySupplied = scaleCount(agg.memorySupplied, scale);
    agg.localResolves = scaleCount(agg.localResolves, scale);
    agg.interChipBroadcasts = scaleCount(agg.interChipBroadcasts, scale);
    agg.inclusionWritebacks = scaleCount(agg.inclusionWritebacks, scale);

    agg.l2MissRatio = l2_sum / n;
    agg.avgMissLatency = lat_sum / n;
    agg.avgBroadcastsPer100k = bcast_sum / n;

    // RCA scalars, histograms and distributions come from the last
    // window: the RCA stats are cumulative over warm history, so the
    // final window has seen the most (see docs/SAMPLING.md). The
    // miss-latency histogram, by contrast, is window-measured and
    // merges across all windows.
    const RunResult &last = windows.back();
    agg.rcaEvictedEmpty = last.rcaEvictedEmpty;
    agg.rcaEvictedOne = last.rcaEvictedOne;
    agg.rcaEvictedTwo = last.rcaEvictedTwo;
    agg.rcaEvictedMore = last.rcaEvictedMore;
    agg.rcaSelfInvalidations = last.rcaSelfInvalidations;
    agg.avgLinesPerEvictedRegion = last.avgLinesPerEvictedRegion;
    for (const HistogramSnapshot &h : last.histograms) {
        if (h.name == "node.miss_latency")
            continue;
        agg.histograms.push_back(h);
    }
    agg.distributions = last.distributions;
    {
        HistogramSnapshot merged;
        bool have = false;
        for (const RunResult &r : windows) {
            for (const HistogramSnapshot &h : r.histograms) {
                if (h.name != "node.miss_latency")
                    continue;
                if (!have) {
                    merged = h;
                    have = true;
                } else {
                    merged.samples += h.samples;
                    merged.sum += h.sum;
                    for (std::size_t b = 0; b < merged.buckets.size(); ++b)
                        merged.buckets[b] += h.buckets[b];
                }
            }
        }
        if (have)
            agg.histograms.insert(agg.histograms.begin(),
                                  std::move(merged));
    }

    auto info = std::make_shared<SamplingInfo>();
    info->windows = k;
    info->windowOps = w;
    info->warmMode = warmModeName(sopts.warmMode);
    info->spanOps = span;
    info->sampledOps = k * w;
    info->scale = scale;
    info->cycles = summarize(s_cycles);
    info->avgMissLatency = summarize(s_lat);
    info->l2MissRatio = summarize(s_miss);
    info->avoidedFraction = summarize(s_avoid);
    info->avgBroadcastsPer100k = summarize(s_bcast);
    agg.sampling = std::move(info);
    return agg;
}

/**
 * Every headline metric's relative 95% CI half-width within @p target?
 * A zero mean with nonzero spread can never satisfy a relative target,
 * so it reports unmet (the adaptive loop then runs to its window cap).
 */
bool
ciTargetMet(const SamplingInfo &info, double target)
{
    const RunSummary *metrics[] = {
        &info.cycles, &info.avgMissLatency, &info.l2MissRatio,
        &info.avoidedFraction, &info.avgBroadcastsPer100k,
    };
    for (const RunSummary *m : metrics) {
        if (m->count < 2)
            return false;
        if (m->ci95Half == 0.0)
            continue;
        if (m->mean == 0.0 ||
            m->ci95Half / std::fabs(m->mean) > target)
            return false;
    }
    return true;
}

} // namespace

RunResult
simulateSampled(const SystemConfig &config, const WorkloadProfile &profile,
                const RunOptions &opts, const SamplingOptions &sopts)
{
    const std::uint64_t w = sopts.windowOps;
    if (sopts.windows == 0)
        return simulateOnce(config, profile, opts);
    if (w == 0)
        fatal("simulateSampled: --window-ops must be >= 1");
    if (config.dma.enabled)
        fatal("simulateSampled: sampling does not support DMA (the DMA "
              "engine is event-driven and cannot be functionally "
              "warmed) — run full-detail instead");
    if (!opts.capturePath.empty())
        fatal("simulateSampled: --capture cannot be combined with "
              "sampling (the warm phase skips the op tee); capture a "
              "full-detail run instead");
    if (opts.warmupOps >= opts.opsPerCpu)
        fatal("simulateSampled: warmup (%llu) must be smaller than ops "
              "per CPU (%llu)",
              static_cast<unsigned long long>(opts.warmupOps),
              static_cast<unsigned long long>(opts.opsPerCpu));

    if (sopts.ciTarget <= 0.0)
        return sampledAtK(config, profile, opts, sopts, sopts.windows);

    // Adaptive precision (docs/SAMPLING.md): double the window count
    // until every headline metric's relative 95% CI half-width reaches
    // the target, capped by --max-windows and by the window geometry
    // (k windows of w ops must fit in the post-warmup span). Each
    // attempt is a fresh deterministic run, so the returned result is
    // identical to a fixed --windows run at the final K.
    const std::uint64_t span = opts.opsPerCpu - opts.warmupOps;
    const std::uint64_t geom_cap = span / w;
    std::uint64_t cap = sopts.maxWindows ? sopts.maxWindows : 1;
    if (geom_cap > 0 && cap > geom_cap)
        cap = geom_cap;
    std::uint64_t k = sopts.windows < cap ? sopts.windows : cap;
    for (;;) {
        RunResult r = sampledAtK(config, profile, opts, sopts, k);
        if (k >= cap || ciTargetMet(*r.sampling, sopts.ciTarget))
            return r;
        k = k * 2 < cap ? k * 2 : cap;
    }
}

} // namespace cgct

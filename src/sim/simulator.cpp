#include "sim/simulator.hpp"

#include "common/log.hpp"
#include "sim/system.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

namespace cgct {

void
scheduleWarmupCheck(System &sys, std::function<std::uint64_t()> min_ops,
                    std::uint64_t warmup_ops, Tick *measure_start,
                    bool *done)
{
    constexpr Tick kCheckInterval = 5000;
    sys.eq().scheduleIn(kCheckInterval, [&sys, min_ops, warmup_ops,
                                         measure_start, done] {
        // A run that completed before this check has nothing left to
        // measure — resetting stats now would zero the whole result
        // and put measure_start past the final clock.
        if (sys.allCoresFinished())
            return;
        if (min_ops() >= warmup_ops) {
            *measure_start = sys.eq().now();
            sys.resetStats(sys.eq().now());
            if (done)
                *done = true;
            return; // Warmed up: stop checking.
        }
        if (!sys.allCoresFinished())
            scheduleWarmupCheck(sys, min_ops, warmup_ops, measure_start,
                                done);
    });
}

RunResult
simulateOnce(const SystemConfig &config, const WorkloadProfile &profile,
             const RunOptions &opts)
{
    SyntheticWorkload workload(profile, config.topology.numCpus,
                               opts.opsPerCpu, opts.seed);
    // With a capture path, tee every consumed op into a v2 trace; the
    // tee is transparent, so captured and plain runs are identical.
    std::unique_ptr<TraceCapture> capture;
    OpSource *source = &workload;
    if (!opts.capturePath.empty()) {
        capture = std::make_unique<TraceCapture>(
            workload, opts.capturePath, config.topology.numCpus,
            opts.opsPerCpu);
        source = capture.get();
    }
    System sys(config, *source);

    Tick measure_start = 0;
    sys.start();
    if (opts.warmupOps > 0 && opts.warmupOps < opts.opsPerCpu)
        scheduleWarmupCheck(
            sys, [&workload] { return workload.minOpsDrawn(); },
            opts.warmupOps, &measure_start);

    const std::uint64_t executed = sys.run(opts.maxEvents);
    if (executed >= opts.maxEvents)
        fatal("simulateOnce: event cap hit (%llu) — runaway simulation?",
              static_cast<unsigned long long>(opts.maxEvents));
    if (!sys.allCoresFinished())
        panic("simulateOnce: event queue drained before cores finished");

    if (capture)
        capture->finish();
    return collectRunResult(sys, profile.name, opts.seed, measure_start);
}

RunResult
simulateReplay(const SystemConfig &config, const std::string &trace_path,
               const RunOptions &opts, std::ostream *stats_out)
{
    const std::string name = "trace:" + trace_path;
    if (traceFileVersion(trace_path) == kTraceVersion1) {
        TraceReader reader(trace_path);
        if (reader.numCpus() != config.topology.numCpus)
            fatal("trace has %u CPUs but the system has %u",
                  reader.numCpus(), config.topology.numCpus);
        System sys(config, reader);
        sys.start();
        const std::uint64_t executed = sys.run(opts.maxEvents);
        if (executed >= opts.maxEvents)
            fatal("simulateReplay: event cap hit (%llu) — runaway "
                  "simulation?",
                  static_cast<unsigned long long>(opts.maxEvents));
        if (!sys.allCoresFinished())
            panic("simulateReplay: event queue drained before cores "
                  "finished");
        RunResult r = collectRunResult(sys, name, opts.seed,
                                       /*measure_start=*/0);
        if (stats_out)
            sys.dumpStats(*stats_out);
        return r;
    }

    TraceReplay replay(trace_path);
    if (replay.numLanes() != config.topology.numCpus)
        fatal("trace has %u lanes but the system has %u CPUs",
              replay.numLanes(), config.topology.numCpus);
    System sys(config, replay);

    Tick measure_start = 0;
    sys.start();
    if (opts.warmupOps > 0 && opts.warmupOps < replay.maxLaneMemOps())
        scheduleWarmupCheck(
            sys, [&replay] { return replay.minOpsConsumed(); },
            opts.warmupOps, &measure_start);

    const std::uint64_t executed = sys.run(opts.maxEvents);
    if (executed >= opts.maxEvents)
        fatal("simulateReplay: event cap hit (%llu) — runaway "
              "simulation?",
              static_cast<unsigned long long>(opts.maxEvents));
    if (!sys.allCoresFinished())
        panic("simulateReplay: event queue drained before cores "
              "finished");
    RunResult r = collectRunResult(sys, name, opts.seed, measure_start);
    if (stats_out)
        sys.dumpStats(*stats_out);
    return r;
}

RunResult
collectRunResult(System &sys, const std::string &workload_name,
                 std::uint64_t seed, Tick measure_start)
{
    const SystemConfig &config = sys.config();
    RunResult r;
    r.workload = workload_name;
    r.regionBytes = config.cgct.enabled ? config.cgct.regionBytes : 0;
    r.seed = seed;
    r.cycles = sys.maxCoreClock() - measure_start;

    for (unsigned i = 0; i < sys.numCpus(); ++i) {
        const Node::Stats &ns = sys.node(i).stats();
        r.requestsTotal += ns.requestsTotal;
        r.broadcasts += ns.broadcasts;
        r.directs += ns.directs;
        r.locals += ns.localCompletes;
        r.writebacks += ns.writebacksIssued;
        for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
            r.broadcastsByCat[c] += ns.broadcastsByCat[c];
            r.directsByCat[c] += ns.directsByCat[c];
            r.localsByCat[c] += ns.localByCat[c];
        }
        r.inclusionWritebacks += ns.inclusionWritebacks;
        r.instructions += sys.core(i).instructions();

        if (auto *tracker = sys.node(i).tracker()) {
            if (auto *cgct = dynamic_cast<CgctController *>(tracker)) {
                const auto &rs = cgct->rca().stats();
                r.rcaEvictedEmpty += rs.evictedEmpty;
                r.rcaEvictedOne += rs.evictedOneLine;
                r.rcaEvictedTwo += rs.evictedTwoLines;
                r.rcaEvictedMore += rs.evictedMoreLines;
                r.rcaSelfInvalidations += rs.selfInvalidations;
                if (rs.lineCountSamples > 0) {
                    r.avgLinesPerEvictedRegion +=
                        static_cast<double>(rs.lineCountSum) /
                        static_cast<double>(rs.lineCountSamples);
                }
            }
        }
    }

    // Convert the accumulators into proper averages.
    {
        std::uint64_t probes = 0;
        std::uint64_t lat_count = 0;
        double lat_sum = 0.0;
        double misses = 0.0;
        for (unsigned i = 0; i < sys.numCpus(); ++i) {
            const Cache::Stats &l2s = sys.node(i).l2().stats();
            probes += l2s.hits + l2s.misses;
            misses += static_cast<double>(l2s.misses);
            lat_sum += static_cast<double>(sys.node(i).stats().memLatencySum);
            lat_count += sys.node(i).stats().memLatencyCount;
        }
        r.l2MissRatio = probes ? misses / static_cast<double>(probes) : 0.0;
        r.avgMissLatency = lat_count
                               ? lat_sum / static_cast<double>(lat_count)
                               : 0.0;
        r.avgLinesPerEvictedRegion /= sys.numCpus();
    }

    const Oracle &oracle = sys.oracle();
    r.oracleTotal = oracle.total();
    r.oracleUnnecessary = oracle.unnecessary();
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
        const auto &counts =
            oracle.category(static_cast<RequestCategory>(c));
        r.oracleTotalByCat[c] = counts.total;
        r.oracleUnnecessaryByCat[c] = counts.unnecessary;
    }

    r.avgBroadcastsPer100k =
        sys.bus().traffic().averagePerWindow(sys.eq().now());
    r.peakBroadcastsPer100k =
        static_cast<double>(sys.bus().traffic().peakWindowCount());
    r.cacheToCache = sys.bus().stats().cacheToCache;
    r.memorySupplied = sys.bus().stats().memorySupplied;
    r.topology = topologyKindName(config.interconnect.topology);
    r.nodes = config.topology.numCpus;
    r.localResolves = sys.bus().localDomainResolves();
    r.interChipBroadcasts = sys.bus().interChipBroadcasts();

    // Aggregate the observability histograms/distributions system-wide.
    {
        auto snapshotHist = [](std::string name, std::string desc,
                               const Histogram &h) {
            HistogramSnapshot s;
            s.name = std::move(name);
            s.desc = std::move(desc);
            s.bucketWidth = h.bucketWidth();
            s.samples = h.samples();
            s.sum = h.sum();
            s.buckets.resize(h.numBuckets());
            for (std::size_t i = 0; i < h.numBuckets(); ++i)
                s.buckets[i] = h.bucketCount(i);
            return s;
        };

        Histogram miss(Node::kMissLatencyBucketWidth,
                       Node::kMissLatencyBuckets);
        for (unsigned i = 0; i < sys.numCpus(); ++i)
            miss.merge(sys.node(i).missLatencyHistogram());
        r.histograms.push_back(snapshotHist(
            "node.miss_latency",
            "demand miss latency distribution (cycles)", miss));

        // Dedupe trackers: with sharedPerChip the chip's cores share one
        // controller, whose histograms must be counted once.
        std::vector<const CgctController *> ctrls;
        for (unsigned i = 0; i < sys.numCpus(); ++i) {
            const auto *c = dynamic_cast<const CgctController *>(
                sys.node(i).tracker());
            if (!c)
                continue;
            bool seen = false;
            for (const auto *s : ctrls)
                seen = seen || s == c;
            if (!seen)
                ctrls.push_back(c);
        }
        if (!ctrls.empty()) {
            Histogram lines = ctrls.front()->rca().evictedLinesHistogram();
            Distribution life = ctrls.front()->rca().regionLifetime();
            for (std::size_t i = 1; i < ctrls.size(); ++i) {
                lines.merge(ctrls[i]->rca().evictedLinesHistogram());
                life.merge(ctrls[i]->rca().regionLifetime());
            }
            r.histograms.push_back(snapshotHist(
                "rca.lines_at_eviction",
                "lines cached per region at eviction", lines));
            DistributionSnapshot d;
            d.name = "rca.region_lifetime";
            d.desc = "allocation-to-eviction region lifetime (cycles)";
            d.samples = life.samples();
            d.min = life.min();
            d.max = life.max();
            d.mean = life.mean();
            d.stddev = life.stddev();
            r.distributions.push_back(std::move(d));
        }
    }

    // End-of-run invariant sweep over every region still live anywhere.
    if (InvariantChecker *checker = sys.invariantChecker()) {
        const std::string err = checker->checkAll();
        if (!err.empty())
            fatal("end-of-run region invariant violation: %s",
                  err.c_str());
    }

    if (sys.traceSink().enabled()) {
        r.trace = std::make_shared<const std::vector<TraceEvent>>(
            sys.traceSink().takeEvents());
    }
    return r;
}

RunSummary
runtimeSummary(const std::vector<RunResult> &runs)
{
    std::vector<double> cycles;
    cycles.reserve(runs.size());
    for (const auto &r : runs)
        cycles.push_back(static_cast<double>(r.cycles));
    return summarize(cycles);
}

} // namespace cgct

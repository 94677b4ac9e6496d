/**
 * @file
 * perfbench — the workload program behind `python3 perfbench/run.py`
 * (perfbench/README.md). Runs one named workload against the simulator
 * library for a fixed measuring time and prints one JSON object of raw
 * measurements on stdout: per-pass host wall and CPU time, simulated op
 * counts and the CSV rows every pass produced. With `--trace 1` it also
 * runs traced passes that rebuild every cell from public calls (System,
 * OpSource, collectRunResult, ...) and times each layer from outside.
 * run.py turns the raw numbers into metrics and checks the rows.
 *
 *   perfbench --workload paper-sweep --seed 1 --seconds 40 --trace 0 \
 *             --work-dir .bench_build/work
 *
 * It drives the stable entry points — SweepRunner/SweepSpec,
 * simulateSampled, simulateReplay, collectRunResult, System, OpSource,
 * SyntheticWorkload and TraceReplay — plus the helpers they need:
 * scheduleWarmupCheck, captureTrace, the snapshot serializer, and
 * CacheArray/RegionCoherenceArray for the lookup probe. It never uses
 * PDES shards or the Node::warm* functions.
 */

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/argparse.hpp"
#include "common/config.hpp"
#include "common/thread_pool.hpp"
#include "core/rca.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

using namespace cgct;

namespace {

using Clock = std::chrono::steady_clock;

/** `--seed 1` reproduces cgct_sweep's default base seed (20050609), the
 *  one the frozen sweep digest was recorded with. */
constexpr std::uint64_t kSeedOffset = 20050608;

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = "unknown";
#endif

constexpr std::uint64_t kSweepOps = 120000;
constexpr std::uint64_t kSampledOps = 1200000;
constexpr std::uint64_t kReplayOps = 40000;
constexpr unsigned kReplayCpus = 16;
/** Set-up repetitions before each pass. The run reports their median,
 *  so set-up is sampled across the whole measuring time, as the passes
 *  are, and not only at its start. */
constexpr int kSweepSetupReps = 25;
constexpr int kRecordReps = 3;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU time of every thread of this process. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Restart the process's peak resident set (VmHWM) from its current
 *  resident set, after handing the allocator's free memory back to the
 *  kernel, so a pass's peak does not include what earlier passes freed.
 *  Where the kernel does not allow the restart, the peak keeps counting
 *  from the process start. */
void
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last resetPeakRss(), or since the process
 *  started when it was never reset (kB). */
double
peakRssKb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
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

// ------------------------------------------------------------------ JSON

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jnum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jarr(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += jnum(v[i]);
    }
    return out + "]";
}

/** A JSON object built field by field, in insertion order. */
class JObj
{
  public:
    JObj &
    raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += jstr(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    JObj &num(const std::string &key, double v) { return raw(key, jnum(v)); }
    JObj &str(const std::string &key, const std::string &v)
    {
        return raw(key, jstr(v));
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ----------------------------------------------------------------- spans

/**
 * Spans at the layer boundaries the benchmark calls into: name, start,
 * end (seconds since the log was created) and parent span id. Kept in
 * memory and written out once, when the run ends.
 */
class SpanLog
{
  public:
    int
    open(const std::string &name, int parent)
    {
        const double t = since(epoch_);
        std::lock_guard<std::mutex> g(mu_);
        spans_.push_back(Span{name, parent, t, -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        const double t = since(epoch_);
        std::lock_guard<std::mutex> g(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    /** One JSON object per line. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        std::lock_guard<std::mutex> g(mu_);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << JObj()
                      .num("id", static_cast<double>(i))
                      .num("parent", s.parent)
                      .str("name", s.name)
                      .num("start", s.start)
                      .num("end", s.end)
                      .text()
               << "\n";
        }
    }

  private:
    struct Span {
        std::string name;
        int parent;
        double start;
        double end;
    };

    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Opens a span for its scope and reports the scope's duration. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int parent,
               double *seconds = nullptr)
        : log_(log), id_(log.open(name, parent)), seconds_(seconds)
    {
    }
    ~ScopedSpan()
    {
        log_.close(id_);
        if (seconds_)
            *seconds_ += since(t0_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
    double *seconds_;
    Clock::time_point t0_ = Clock::now();
};

// ------------------------------------------------------ frontend timing

/**
 * Timing OpSource decorator: forwards every call to the wrapped source
 * and accumulates the host time spent inside fetches (two clock reads
 * per op, so it runs only in traced passes). Optionally records each
 * fetched (cpu, address) pair for the lookup-cost probe.
 */
class TimedSource : public OpSource
{
  public:
    using Stream = std::vector<std::pair<CpuId, Addr>>;

    TimedSource(OpSource &inner, Stream *capture)
        : inner_(inner), capture_(capture)
    {
    }

    bool
    next(CpuId cpu, CpuOp &op) override
    {
        const auto t0 = Clock::now();
        const bool ok = inner_.next(cpu, op);
        ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        if (ok)
            note(cpu, op);
        return ok;
    }

    OpFetch
    fetch(CpuId cpu, Tick &now, CpuOp &op) override
    {
        const auto t0 = Clock::now();
        const OpFetch f = inner_.fetch(cpu, now, op);
        ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        if (f == OpFetch::Op)
            note(cpu, op);
        return f;
    }

    void attach(EventQueue &eq) override { inner_.attach(eq); }

    void
    bindWaiter(CpuId cpu, std::function<void(Tick)> wake) override
    {
        inner_.bindWaiter(cpu, std::move(wake));
    }

    bool drawsIndependent() const override
    {
        return inner_.drawsIndependent();
    }

    std::uint64_t ops() const { return ops_; }
    double seconds() const { return static_cast<double>(ns_) * 1e-9; }

  private:
    void
    note(CpuId cpu, const CpuOp &op)
    {
        ++ops_;
        if (capture_)
            capture_->emplace_back(cpu, op.addr);
    }

    OpSource &inner_;
    Stream *capture_;
    std::uint64_t ns_ = 0;
    std::uint64_t ops_ = 0;
};

// --------------------------------------------------------- layer counts

using Counters = std::map<std::string, double>;

/**
 * Sum System::dumpStats scalars over CPUs and memory controllers: the
 * group prefix ("cpu3.", "system.") is dropped and "mc<i>." folds into
 * "mc.", so "cpu0.l2.misses" and "cpu1.l2.misses" add into "l2.misses".
 * Histogram and distribution lines have no numeric second field and are
 * skipped.
 */
void
addDumpedStats(const System &sys, Counters &out)
{
    std::ostringstream os;
    sys.dumpStats(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name, value;
        if (!(ls >> name >> value))
            continue;
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            continue;
        const std::size_t dot = name.find('.');
        if (dot == std::string::npos)
            continue;
        std::string key = name.substr(dot + 1);
        if (key.rfind("mc", 0) == 0) {
            const std::size_t d = key.find('.');
            if (d != std::string::npos)
                key = "mc" + key.substr(d);
        }
        out[key] += v;
    }
}

/** Everything one traced cell measured. */
struct CellProbe {
    RunResult result;
    /** Drained without hitting the event cap. */
    bool finished = false;
    double buildS = 0.0;    ///< System ctor + start (+ snapshot restore).
    double runS = 0.0;      ///< System::run.
    double collectS = 0.0;  ///< collectRunResult.
    double frontendS = 0.0; ///< Inside OpSource fetches (part of runS).
    std::uint64_t events = 0;
    std::uint64_t ops = 0;
    Counters counters;
};

/** Per-layer totals over a set of traced cells. */
struct LayerTotals {
    std::vector<double> buildS, collectS;
    double runS = 0.0, frontendS = 0.0;
    std::uint64_t events = 0, ops = 0;
    Counters counters;
    /** Request routing summed over CGCT-enabled cells only. */
    double cgctRequests = 0.0, cgctAvoided = 0.0;
    double interchip = 0.0, localResolves = 0.0;

    void
    add(const CellProbe &p)
    {
        buildS.push_back(p.buildS);
        collectS.push_back(p.collectS);
        runS += p.runS;
        frontendS += p.frontendS;
        events += p.events;
        ops += p.ops;
        for (const auto &[k, v] : p.counters)
            counters[k] += v;
        if (p.result.regionBytes) {
            cgctRequests += static_cast<double>(p.result.requestsTotal);
            cgctAvoided +=
                static_cast<double>(p.result.directs + p.result.locals);
        }
        interchip += static_cast<double>(p.result.interChipBroadcasts);
        localResolves += static_cast<double>(p.result.localResolves);
    }
};

/**
 * What every traced cell shares once its System is built and started
 * (or restored): run it to its pause point or to the end, collect the
 * result, sum its statistics and read the frontend timer.
 * @p measure_start is read after the run, which may move it.
 */
void
runAndCollect(System &sys, const TimedSource &source,
              const Tick &measure_start, const std::string &name,
              std::uint64_t seed, SpanLog &log, int parent, CellProbe &p)
{
    const std::uint64_t max_events = RunOptions{}.maxEvents;
    {
        ScopedSpan s(log, "system.run", parent, &p.runS);
        p.events = sys.run(max_events);
    }
    p.finished = p.events < max_events && sys.allCoresFinished();
    if (p.finished) {
        ScopedSpan s(log, "system.collect", parent, &p.collectS);
        p.result = collectRunResult(sys, name, seed, measure_start);
    }
    addDumpedStats(sys, p.counters);
    p.frontendS = source.seconds();
    p.ops = source.ops();
}

/**
 * Build, run and collect one cell from public calls, with the frontend
 * behind a TimedSource. Mirrors simulateOnce/simulateReplay: the same
 * construction order and warmup-reset rule, so the resulting row is
 * byte-identical to the untraced one.
 */
CellProbe
probeCell(const SystemConfig &config, OpSource &inner,
          const std::function<std::uint64_t()> &min_ops,
          std::uint64_t warmup_ops, std::uint64_t warmup_limit,
          const std::string &name, std::uint64_t seed, SpanLog &log,
          int parent, TimedSource::Stream *capture)
{
    CellProbe p;
    TimedSource source(inner, capture);
    Tick measure_start = 0;
    std::unique_ptr<System> sys;
    {
        ScopedSpan s(log, "system.build", parent, &p.buildS);
        sys = std::make_unique<System>(config, source);
        sys->start();
        if (warmup_ops > 0 && warmup_ops < warmup_limit)
            scheduleWarmupCheck(*sys, min_ops, warmup_ops,
                                &measure_start);
    }
    runAndCollect(*sys, source, measure_start, name, seed, log, parent, p);
    return p;
}

/**
 * Host cost of one L2 tag lookup and one RCA lookup, measured from
 * outside the timed path: the captured per-CPU address stream is fed
 * through one CacheArray and one RegionCoherenceArray per CPU with the
 * cell's geometry (find, allocate on a miss). The first pass warms the
 * arrays; the median of the next five is reported.
 */
std::pair<double, double>
lookupCosts(const TimedSource::Stream &stream, const SystemConfig &config,
            unsigned n_cpus, std::uint64_t *sink)
{
    if (stream.empty())
        return {0.0, 0.0};
    std::vector<CacheArray> l2;
    std::vector<RegionCoherenceArray> rca;
    l2.reserve(n_cpus);
    rca.reserve(n_cpus);
    for (unsigned i = 0; i < n_cpus; ++i) {
        l2.emplace_back(config.l2.numSets(), config.l2.associativity,
                        config.l2.lineBytes);
        rca.emplace_back(config.cgct.rcaSets, config.cgct.rcaWays,
                         config.cgct.regionBytes,
                         config.cgct.favorEmptyRegions);
    }
    auto timePasses = [&](auto &&lookup) {
        std::vector<double> ns;
        for (int pass = 0; pass < 6; ++pass) {
            const auto t0 = Clock::now();
            Tick tick = 0;
            for (const auto &[cpu, addr] : stream)
                *sink += lookup(static_cast<unsigned>(cpu), addr, ++tick);
            if (pass > 0)
                ns.push_back(since(t0) * 1e9 /
                             static_cast<double>(stream.size()));
        }
        return median(ns);
    };
    const double l2_ns =
        timePasses([&](unsigned cpu, Addr addr, Tick tick) -> unsigned {
            CacheLine *line = l2[cpu].find(addr);
            const unsigned hit = line != nullptr;
            if (!line) {
                Eviction ev;
                line = l2[cpu].allocate(addr, ev);
                line->state = LineState::Shared;
            }
            l2[cpu].touch(*line, tick);
            return hit;
        });
    const double rca_ns =
        timePasses([&](unsigned cpu, Addr addr, Tick tick) -> unsigned {
            RegionEntry *entry = rca[cpu].find(addr);
            const unsigned hit = entry != nullptr;
            if (!entry) {
                RegionEviction ev;
                entry = rca[cpu].allocate(addr, tick, ev);
                entry->state = RegionState::CleanInvalid;
            }
            rca[cpu].touch(*entry, tick);
            return hit;
        });
    return {l2_ns, rca_ns};
}

/**
 * Run fn(i) for every i in [0, n) on a ThreadPool of @p jobs workers, the
 * pool SweepRunner uses. Rethrows the first task exception; the pool
 * drains the remaining tasks before this returns.
 */
void
forEachCell(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    ThreadPool pool(jobs);
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < n; ++i)
        done.push_back(pool.submit([&fn, i] { fn(i); }));
    for (auto &f : done)
        f.get();
}

// --------------------------------------------------------------- passes

/** The first 512 B cell: its address stream feeds the lookup probe. */
std::size_t
firstCgctCell(const std::vector<SweepCell> &cells)
{
    for (const SweepCell &c : cells)
        if (c.regionBytes == 512)
            return c.index;
    return cells.size();
}

/** One untraced pass over the workload. */
struct Pass {
    double wallS = 0.0;
    double cpuS = 0.0;
    double simOps = 0.0;
    std::string rows;
    /** Host seconds per cell (sweep layer). */
    std::vector<double> cellS;
    double busyFrac = 0.0;
    double tailS = 0.0;
    /** Peak resident set of the pass (kB). */
    double peakRssKb = 0.0;

    std::string
    json() const
    {
        return JObj()
            .num("wall_s", wallS)
            .num("cpu_s", cpuS)
            .num("peak_rss_kb", peakRssKb)
            .num("sim_ops", simOps)
            .raw("cell_s", jarr(cellS))
            .num("busy_frac", busyFrac)
            .num("tail_s", tailS)
            .str("rows", rows)
            .text();
    }
};

/** Simulated memory ops a result covers, summed over CPUs: the whole
 *  stream of a full-detail cell; the functionally warmed prefix (up to
 *  the last window start) plus the detailed windows of a sampled one. */
double
simulatedOps(const RunResult &r, const RunOptions &opts)
{
    const double cpus = r.nodes;
    if (!r.sampling)
        return cpus * static_cast<double>(opts.opsPerCpu);
    const SamplingInfo &s = *r.sampling;
    const std::uint64_t warmed =
        opts.warmupOps + s.spanOps * (s.windows - 1) / s.windows;
    return cpus * static_cast<double>(warmed + s.windows * s.windowOps);
}

/**
 * One untraced SweepRunner pass. Wall time runs from the pass start to
 * the last emitted row. Cell times come from completion stamps: a pool
 * worker takes its next cell as soon as it finishes one, so a cell
 * started when the previous cell on the same thread ended (the first
 * at the pass start).
 */
Pass
sweepPass(const SweepSpec &spec, unsigned jobs)
{
    Pass p;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    SweepRunner runner(spec, jobs);
    std::ostringstream csv;
    writeSweepCsvHeader(csv, spec.sampled);
    std::mutex mu;
    std::map<std::thread::id, std::vector<double>> stamps;
    runner.run(
        [&](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(csv, r, spec.sampled);
            p.simOps += simulatedOps(r, spec.opts);
            p.wallS = since(t0);
        },
        [&](std::size_t, std::size_t, const SweepCell &) {
            const double t = since(t0);
            std::lock_guard<std::mutex> g(mu);
            stamps[std::this_thread::get_id()].push_back(t);
        });
    p.cpuS = cpuSeconds() - cpu0;
    p.rows = csv.str();

    double first_idle = stamps.size() < runner.jobs() ? 0.0 : p.wallS;
    double busy = 0.0;
    for (auto &[id, ts] : stamps) {
        std::sort(ts.begin(), ts.end());
        double prev = 0.0;
        for (double t : ts) {
            p.cellS.push_back(t - prev);
            busy += t - prev;
            prev = t;
        }
        first_idle = std::min(first_idle, ts.back());
    }
    p.busyFrac = busy / (runner.jobs() * p.wallS);
    p.tailS = p.wallS - first_idle;
    return p;
}

/**
 * A sweep's set-up, kSweepSetupReps times into @p reps: building the
 * spec, expanding the matrix (the SweepRunner constructor) and building
 * and starting the first cell's System. The worker pool's start-up is
 * left out: on a shared VM the wake-up latency of idle threads swings
 * threefold from one minute to the next, and it would swamp the rest.
 */
void
sweepSetup(const std::function<SweepSpec()> &make_spec, unsigned jobs,
           std::vector<double> &reps)
{
    for (int i = 0; i < kSweepSetupReps; ++i) {
        const auto t0 = Clock::now();
        const SweepSpec spec = make_spec();
        SweepRunner runner(spec, jobs);
        const SweepCell &cell = runner.cells().front();
        const SystemConfig config =
            cell.regionBytes ? spec.baseConfig.withCgct(cell.regionBytes)
                             : spec.baseConfig;
        SyntheticWorkload workload(*cell.profile, config.topology.numCpus,
                                   spec.opts.opsPerCpu, cell.seed);
        System sys(config, workload);
        sys.start();
        reps.push_back(since(t0));
    }
}

SweepSpec
sweepSpec(const std::vector<std::string> &profiles,
          std::vector<std::uint64_t> regions, std::uint64_t ops,
          std::uint64_t seed)
{
    SweepSpec spec;
    for (const auto &name : profiles)
        spec.profiles.push_back(&benchmarkByName(name));
    spec.regionSizes = std::move(regions);
    spec.seedsPerCell = 3;
    spec.baseSeed = kSeedOffset + seed;
    spec.opts.opsPerCpu = ops;
    spec.opts.warmupOps = ops / 5;
    spec.baseConfig = makeDefaultConfig();
    spec.baseConfig.validate();
    return spec;
}

/** The default cgct_sweep matrix: 9 profiles x {0,256,512,1024} x 3
 *  seeds at 120 K ops/CPU on the 4-node bus. */
SweepSpec
paperSweepSpec(std::uint64_t seed)
{
    std::vector<std::string> names;
    for (const auto &p : standardBenchmarks())
        names.push_back(p.name);
    return sweepSpec(names, {0, 256, 512, 1024}, kSweepOps, seed);
}

/** The EXPERIMENTS.md sampled Figure 8 recipe (8 windows x 2000 ops,
 *  functional warming, 1.2 M ops/CPU), widened from tpc-w alone to four
 *  profiles so the pass keeps four workers busy; longest cells first,
 *  so the pass does not end on one straggler. */
SweepSpec
sampledFig8Spec(std::uint64_t seed)
{
    SweepSpec spec = sweepSpec({"barnes", "tpc-w", "ocean", "specjbb2000"},
                               {0, 512}, kSampledOps, seed);
    spec.seedsPerCell = 1;
    spec.sampled = true;
    spec.sampling.windows = 8;
    spec.sampling.windowOps = 2000;
    spec.sampling.warmMode = WarmMode::Functional;
    return spec;
}

/** The per-layer fields every workload reports from its traced cells. */
void
layerJson(JObj &out, const LayerTotals &t)
{
    const Counters &c = t.counters;
    auto get = [&c](const std::string &k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(t.ops);
    const double events = static_cast<double>(t.events);
    const double l2_acc = get("l2.hits") + get("l2.misses");
    out.num("system.build_s", median(t.buildS))
        .num("system.collect_s", median(t.collectS))
        .num("event.dispatched", events)
        .num("event.per_op", ops ? events / ops : 0.0)
        .num("event.ns_per_event",
             events ? (t.runS - t.frontendS) * 1e9 / events : 0.0)
        .num("workload.frontend_frac", t.runS ? t.frontendS / t.runS : 0.0)
        .num("cache.l1d.accesses", get("l1d.hits") + get("l1d.misses"))
        .num("cache.l2.accesses", l2_acc)
        .num("cache.l2.miss_ratio", l2_acc ? get("l2.misses") / l2_acc : 0.0)
        .num("core.rca.hits", get("rca.hits"))
        .num("core.rca.misses", get("rca.misses"))
        .num("core.avoided_frac",
             t.cgctRequests ? t.cgctAvoided / t.cgctRequests : 0.0)
        .num("node.broadcasts", get("broadcasts"))
        .num("node.directs", get("directs"))
        .num("node.snoops_received", get("snoops_received"))
        .num("node.stall_cycles", get("tag_wait_cycles"))
        .num("interconnect.queue_cycles", get("bus.queue_cycles") +
                                              get("hier.queue_cycles") +
                                              get("dir.queue_cycles"))
        .num("interconnect.interchip", t.interchip)
        .num("interconnect.local_resolves", t.localResolves)
        .num("data_net.link_wait_cycles", get("data_net.link_wait_cycles"))
        .num("mem.queued_cycles", get("mc.queued_cycles"));
}

/** What one workload run prints. */
struct Output {
    std::vector<double> setupS;
    std::vector<Pass> passes;
    /** Traced passes: wall seconds and rows. */
    std::vector<double> tracedWallS;
    std::vector<std::string> tracedRows;
    JObj layers;
    /** Sampled-window rebuilds attempted, and those that hit the event
     *  cap or failed to restore. */
    std::size_t probes = 0;
    std::size_t probeFailures = 0;
    /** Folded lookup results, printed so the probe loops stay live. */
    std::uint64_t lookupSink = 0;
};

/** Repeat set-up, an untraced pass and (with @p traced) a traced pass
 *  while one more round, as long as the last, still ends within
 *  @p seconds, so a slow host never stretches a run past them. At least
 *  two passes of the kind that the run reports, so a run can always check
 *  itself byte-for-byte. */
void
measureLoop(double seconds, bool traced, const std::function<void()> &setup,
            const std::function<Pass()> &plain,
            const std::function<void()> &traced_pass, Output &out)
{
    const auto t0 = Clock::now();
    const std::size_t min_plain = traced ? 1 : 2;
    double round_s = 0.0;
    while (out.passes.size() < min_plain ||
           (traced && out.tracedWallS.empty()) ||
           since(t0) + round_s <= seconds) {
        const auto t1 = Clock::now();
        setup();
        resetPeakRss();
        out.passes.push_back(plain());
        out.passes.back().peakRssKb = peakRssKb();
        if (traced)
            traced_pass();
        round_s = since(t1);
    }
}

// ------------------------------------------------------------ workloads

void
runPaperSweep(std::uint64_t seed, double seconds, bool traced,
              unsigned jobs, SpanLog &log, Output &out)
{
    const SweepSpec spec = paperSweepSpec(seed);
    auto setup = [&] {
        sweepSetup([seed] { return paperSweepSpec(seed); }, jobs,
                   out.setupS);
    };

    LayerTotals totals;
    TimedSource::Stream stream;
    SystemConfig probe_config;
    const std::vector<SweepCell> cells = spec.expand();
    const std::size_t capture_cell = firstCgctCell(cells);
    auto traced_pass = [&] {
        const bool first = out.tracedWallS.empty();
        std::vector<std::string> rows(cells.size());
        std::vector<CellProbe> probes(cells.size());
        const auto t0 = Clock::now();
        ScopedSpan pass(log, "pass.traced", -1);
        forEachCell(cells.size(), jobs, [&](std::size_t i) {
            const SweepCell &cell = cells[i];
            ScopedSpan span(log, "cell", pass.id());
            const SystemConfig config =
                cell.regionBytes ? spec.baseConfig.withCgct(cell.regionBytes)
                                 : spec.baseConfig;
            SyntheticWorkload workload(*cell.profile,
                                       config.topology.numCpus,
                                       spec.opts.opsPerCpu, cell.seed);
            probes[i] = probeCell(
                config, workload,
                [&workload] { return workload.minOpsDrawn(); },
                spec.opts.warmupOps, spec.opts.opsPerCpu,
                cell.profile->name, cell.seed, log, span.id(),
                first && i == capture_cell ? &stream : nullptr);
            if (i == capture_cell)
                probe_config = config;
            std::ostringstream row;
            if (probes[i].finished)
                writeSweepCsvRow(row, probes[i].result);
            else
                row << "event cap hit in cell " << i << "\n";
            rows[i] = row.str();
        });
        out.tracedWallS.push_back(since(t0));
        std::ostringstream csv;
        writeSweepCsvHeader(csv);
        for (const auto &r : rows)
            csv << r;
        out.tracedRows.push_back(csv.str());
        if (first)
            for (const auto &p : probes)
                totals.add(p);
    };
    measureLoop(seconds, traced, setup,
                [&] { return sweepPass(spec, jobs); }, traced_pass, out);
    if (!traced)
        return;

    std::uint64_t sink = 0;
    const auto [l2_ns, rca_ns] = lookupCosts(
        stream, probe_config, probe_config.topology.numCpus, &sink);
    layerJson(out.layers, totals);
    out.layers
        .num("workload.gen_ns_per_op",
             totals.ops ? totals.frontendS * 1e9 / totals.ops : 0.0)
        .num("workload.decode_ns_per_op", 0.0)
        .num("workload.record_s", 0.0)
        .num("cache.l2_lookup_ns", l2_ns)
        .num("core.rca_lookup_ns", rca_ns);
    out.lookupSink = sink;
}

/**
 * The traced view of one sampled cell's first window, rebuilt from
 * public calls: detailed run to the window start, CGCTSNAP save,
 * restore into a fresh System behind a TimedSource, one window in
 * detail, collect.
 */
CellProbe
probeWindow(const SystemConfig &config, const WorkloadProfile &profile,
            const RunOptions &opts, const SamplingOptions &sopts,
            SpanLog &log, int parent, TimedSource::Stream *capture,
            double *save_s, double *restore_s, double *bytes)
{
    const unsigned n_cpus = config.topology.numCpus;
    const std::uint64_t start = opts.warmupOps;
    const std::uint64_t max_events = opts.maxEvents;
    std::vector<std::uint8_t> snap;
    {
        SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu,
                                   opts.seed);
        System sys(config, workload);
        workload.setPauseAt(start);
        sys.start();
        if (sys.run(max_events) >= max_events || !sys.allCoresFinished())
            return CellProbe{};
        ScopedSpan s(log, "snapshot.save", parent, save_s);
        Serializer ser;
        ser.beginSection("workload");
        workload.serialize(ser);
        ser.endSection();
        sys.serializeState(ser);
        snap = makeSnapshotFile(0, ser);
    }
    *bytes = static_cast<double>(snap.size());

    CellProbe p;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    TimedSource source(workload, capture);
    std::unique_ptr<System> sys;
    {
        ScopedSpan s(log, "system.build", parent, &p.buildS);
        sys = std::make_unique<System>(config, source);
    }
    {
        ScopedSpan s(log, "snapshot.restore", parent, restore_s);
        Deserializer d;
        const std::string err = d.openBytes(std::move(snap), "window");
        if (!err.empty())
            return p;
        SectionReader w = d.section("workload");
        workload.deserialize(w);
        sys->restoreState(d);
    }
    const Tick measure_start = sys->maxCoreClock();
    sys->resetStats(measure_start);
    workload.setPauseAt(start + sopts.windowOps);
    sys->resumePhase();
    runAndCollect(*sys, source, measure_start, profile.name, opts.seed, log,
                  parent, p);
    return p;
}

void
runSampledFig8(std::uint64_t seed, double seconds, bool traced,
               unsigned jobs, SpanLog &log, Output &out)
{
    const SweepSpec spec = sampledFig8Spec(seed);
    auto setup = [&] {
        sweepSetup([seed] { return sampledFig8Spec(seed); }, jobs,
                   out.setupS);
    };

    const std::vector<SweepCell> cells = spec.expand();
    SamplingOptions sopts = spec.sampling;
    sopts.jobs = 1;
    double cell_s = 0.0, span_ops = 0.0, detail_frac = 0.0;
    auto cellConfig = [&spec](const SweepCell &c) {
        return c.regionBytes ? spec.baseConfig.withCgct(c.regionBytes)
                             : spec.baseConfig;
    };
    auto traced_pass = [&] {
        std::vector<std::string> rows(cells.size());
        std::vector<double> secs(cells.size());
        std::vector<double> ops(cells.size());
        std::vector<double> fracs(cells.size());
        const auto t0 = Clock::now();
        ScopedSpan pass(log, "pass.traced", -1);
        forEachCell(cells.size(), jobs, [&](std::size_t i) {
            const SweepCell &cell = cells[i];
            RunOptions opts = spec.opts;
            opts.seed = cell.seed;
            RunResult r;
            {
                ScopedSpan span(log, "sampling.cell", pass.id(), &secs[i]);
                r = simulateSampled(cellConfig(cell), *cell.profile, opts,
                                    sopts);
            }
            ops[i] = simulatedOps(r, opts);
            fracs[i] = static_cast<double>(r.sampling->sampledOps) /
                       static_cast<double>(r.sampling->spanOps);
            std::ostringstream row;
            writeSweepCsvRow(row, r, true);
            rows[i] = row.str();
        });
        out.tracedWallS.push_back(since(t0));
        std::ostringstream csv;
        writeSweepCsvHeader(csv, true);
        for (const auto &r : rows)
            csv << r;
        out.tracedRows.push_back(csv.str());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            cell_s += secs[i];
            span_ops += ops[i];
            detail_frac += fracs[i] / static_cast<double>(cells.size());
        }
    };
    measureLoop(seconds, traced, setup,
                [&] { return sweepPass(spec, jobs); }, traced_pass, out);
    if (!traced)
        return;
    const double n_traced = static_cast<double>(out.tracedWallS.size());

    // One window per cell, rebuilt from public calls: the snapshot,
    // event, system and memory-system layers of the sampled path.
    LayerTotals totals;
    std::vector<CellProbe> probes(cells.size());
    std::vector<double> save(cells.size()), restore(cells.size()),
        bytes(cells.size());
    TimedSource::Stream stream;
    const std::size_t capture_cell = firstCgctCell(cells);
    {
        ScopedSpan pass(log, "pass.windows", -1);
        forEachCell(cells.size(), jobs, [&](std::size_t i) {
            RunOptions opts = spec.opts;
            opts.seed = cells[i].seed;
            ScopedSpan span(log, "window", pass.id());
            probes[i] = probeWindow(
                cellConfig(cells[i]), *cells[i].profile, opts, sopts, log,
                span.id(), i == capture_cell ? &stream : nullptr, &save[i],
                &restore[i], &bytes[i]);
        });
    }
    std::size_t bad_windows = 0;
    for (const auto &p : probes) {
        totals.add(p);
        bad_windows += !p.finished;
    }
    const SystemConfig probe_config = cellConfig(cells[capture_cell]);
    std::uint64_t sink = 0;
    const auto [l2_ns, rca_ns] = lookupCosts(
        stream, probe_config, probe_config.topology.numCpus, &sink);
    layerJson(out.layers, totals);
    out.layers
        .num("workload.gen_ns_per_op",
             totals.ops ? totals.frontendS * 1e9 / totals.ops : 0.0)
        .num("workload.decode_ns_per_op", 0.0)
        .num("workload.record_s", 0.0)
        .num("sampling.detail_frac", detail_frac / n_traced)
        .num("sampling.windows", static_cast<double>(sopts.windows))
        .num("sampling.ns_per_span_op", cell_s * 1e9 / span_ops)
        .num("snapshot.bytes", median(bytes))
        .num("snapshot.save_s", median(save))
        .num("snapshot.restore_s", median(restore))
        .num("cache.l2_lookup_ns", l2_ns)
        .num("core.rca_lookup_ns", rca_ns);
    out.probes = cells.size();
    out.probeFailures = bad_windows;
    out.lookupSink = sink;
}

/** One machine the recorded traces replay on. */
struct Machine {
    TopologyKind topology;
    std::uint64_t regionBytes; ///< 0 = CGCT off.
};

/** The 16-node flat bus without CGCT, then hier and dir at 512 B. */
const Machine kMachines[] = {
    {TopologyKind::Bus, 0},
    {TopologyKind::Hier, 512},
    {TopologyKind::Dir, 512},
};

const char *const kReplayProfiles[] = {"tpc-w", "specjbb2000", "barnes"};

SystemConfig
replayConfig(const Machine &m)
{
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = kReplayCpus;
    config.interconnect.topology = m.topology;
    config.validate();
    return m.regionBytes ? config.withCgct(m.regionBytes) : config;
}

void
runReplay16n(std::uint64_t seed, double seconds, bool traced,
             const std::string &work_dir, SpanLog &log, Output &out)
{
    // Set-up: record one trace per profile, kRecordReps times before
    // each pass (the same seed rewrites the same files).
    std::vector<std::string> paths;
    double ops_per_replay = 0.0;
    std::vector<double> per_trace;
    auto setup = [&] {
        for (int rep = 0; rep < kRecordReps; ++rep) {
            paths.clear();
            const auto t0 = Clock::now();
            for (const char *name : kReplayProfiles) {
                const auto t1 = Clock::now();
                ScopedSpan span(log, "workload.record", -1);
                const std::string path = work_dir + "/" + name + ".trace";
                SyntheticWorkload workload(benchmarkByName(name),
                                           kReplayCpus, kReplayOps,
                                           kSeedOffset + seed);
                ops_per_replay = static_cast<double>(
                    captureTrace(workload, kReplayCpus, kReplayOps, path));
                paths.push_back(path);
                per_trace.push_back(since(t1));
            }
            out.setupS.push_back(since(t0));
        }
    };

    RunOptions opts;
    opts.seed = kSeedOffset + seed;
    opts.warmupOps = kReplayOps / 5;
    const std::size_t n_runs =
        std::size(kReplayProfiles) * std::size(kMachines);
    auto name_of = [](std::size_t i) {
        return std::string(kReplayProfiles[i / std::size(kMachines)]);
    };

    auto plain = [&] {
        Pass p;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        std::ostringstream csv;
        writeSweepCsvHeader(csv, false, true);
        for (std::size_t i = 0; i < n_runs; ++i) {
            const auto t1 = Clock::now();
            RunResult r = simulateReplay(
                replayConfig(kMachines[i % std::size(kMachines)]),
                paths[i / std::size(kMachines)], opts);
            r.workload = name_of(i);
            writeSweepCsvRow(csv, r, false, true);
            p.cellS.push_back(since(t1));
            p.simOps += ops_per_replay;
        }
        p.wallS = since(t0);
        p.cpuS = cpuSeconds() - cpu0;
        p.rows = csv.str();
        double busy = 0.0;
        for (double s : p.cellS)
            busy += s;
        p.busyFrac = busy / p.wallS;
        return p;
    };

    LayerTotals totals;
    TimedSource::Stream stream;
    auto traced_pass = [&] {
        const bool first = out.tracedWallS.empty();
        const auto t0 = Clock::now();
        ScopedSpan pass(log, "pass.traced", -1);
        std::ostringstream csv;
        writeSweepCsvHeader(csv, false, true);
        for (std::size_t i = 0; i < n_runs; ++i) {
            ScopedSpan span(log, "cell", pass.id());
            const Machine &m = kMachines[i % std::size(kMachines)];
            TraceReplay replay(paths[i / std::size(kMachines)]);
            CellProbe p = probeCell(
                replayConfig(m), replay,
                [&replay] { return replay.minOpsConsumed(); },
                opts.warmupOps, replay.maxLaneMemOps(), name_of(i),
                opts.seed, log, span.id(),
                first && i == 1 ? &stream : nullptr);
            if (p.finished) {
                p.result.workload = name_of(i);
                writeSweepCsvRow(csv, p.result, false, true);
            } else {
                csv << "event cap hit in replay " << i << "\n";
            }
            if (first)
                totals.add(p);
        }
        out.tracedWallS.push_back(since(t0));
        out.tracedRows.push_back(csv.str());
    };
    measureLoop(seconds, traced, setup, plain, traced_pass, out);
    if (!traced)
        return;

    const SystemConfig probe_config = replayConfig(kMachines[1]);
    std::uint64_t sink = 0;
    const auto [l2_ns, rca_ns] =
        lookupCosts(stream, probe_config, kReplayCpus, &sink);
    layerJson(out.layers, totals);
    out.layers.num("workload.gen_ns_per_op", 0.0)
        .num("workload.decode_ns_per_op",
             totals.ops ? totals.frontendS * 1e9 / totals.ops : 0.0)
        .num("workload.record_s", median(per_trace))
        .num("cache.l2_lookup_ns", l2_ns)
        .num("core.rca_lookup_ns", rca_ns);
    out.lookupSink = sink;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 20;
    std::uint64_t trace = 0;
    std::uint64_t jobs = 0;
    std::string work_dir = ".bench_build/work";

    ArgParser parser("perfbench",
                     "Run one benchmark workload and print its raw "
                     "measurements as one JSON object (see "
                     "perfbench/README.md; run.py is the entry point).");
    parser.addString("workload", &workload,
                     "paper-sweep, sampled-fig8 or replay-16n");
    parser.addU64("seed", &seed, "workload seed (1 = the pinned inputs)");
    parser.addU64("seconds", &seconds, "measuring time");
    parser.addU64("trace", &trace, "1 = add traced passes");
    parser.addU64("jobs", &jobs,
                  "sweep worker threads (0 = min(4, hardware threads))");
    parser.addString("work-dir", &work_dir,
                     "directory for recorded traces and the span log");
    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    if (parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }
    if (!jobs)
        jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::filesystem::create_directories(work_dir);

    SpanLog log;
    Output out;
    const bool traced = trace != 0;
    const double secs = static_cast<double>(seconds);
    const unsigned n_jobs = static_cast<unsigned>(jobs);
    if (workload == "paper-sweep") {
        runPaperSweep(seed, secs, traced, n_jobs, log, out);
    } else if (workload == "sampled-fig8") {
        runSampledFig8(seed, secs, traced, n_jobs, log, out);
    } else if (workload == "replay-16n") {
        runReplay16n(seed, secs, traced, work_dir, log, out);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    std::string passes = "[";
    for (std::size_t i = 0; i < out.passes.size(); ++i) {
        if (i)
            passes += ',';
        passes += out.passes[i].json();
    }
    passes += "]";
    std::string traced_rows = "[";
    for (std::size_t i = 0; i < out.tracedRows.size(); ++i) {
        if (i)
            traced_rows += ',';
        traced_rows += jstr(out.tracedRows[i]);
    }
    traced_rows += "]";

    const std::string span_path = work_dir + "/spans-" + workload + ".jsonl";
    if (traced)
        log.write(span_path);

    JObj result;
    result.str("workload", workload)
        .num("seed", static_cast<double>(seed))
        .num("jobs", n_jobs)
        .str("compiler", kCompiler)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .raw("setup_s", jarr(out.setupS))
        .raw("passes", passes);
    if (traced)
        result.raw("traced_wall_s", jarr(out.tracedWallS))
            .raw("traced_rows", traced_rows)
            .raw("layers", out.layers.text())
            .num("probes", static_cast<double>(out.probes))
            .num("probe_failures", static_cast<double>(out.probeFailures))
            .num("lookup_sink", static_cast<double>(out.lookupSink))
            .str("spans", span_path);
    std::cout << result.text() << "\n";
    return 0;
}

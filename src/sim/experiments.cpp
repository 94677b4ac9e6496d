#include "sim/experiments.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <ostream>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "snapshot/snapshot.hpp"

namespace cgct {

namespace {

using Value = std::optional<double>;
using Metric = Value (*)(const RunResult &);

double
pct(double x)
{
    return 100.0 * x;
}

/** @p spec at one region size (0 = baseline). */
MatrixArm
arm(std::string label, SweepSpec spec, std::uint64_t region)
{
    spec.regionSizes = {region};
    return {std::move(label), std::move(spec)};
}

/** A column reading metric @p f of arm @p a's run (its first seed). */
MatrixColumn
col(std::string header, std::string format, std::size_t a, Metric f,
    bool summarized = true)
{
    return {std::move(header), std::move(format),
            [a, f](const MatrixRow &r) { return f(r.first(a)); },
            summarized};
}

/** Percent run-time reduction of arm @p a against arm @p b (seed means). */
MatrixColumn
reduction(std::string header, std::size_t a, std::size_t b)
{
    return {std::move(header), "%.1f%%", [a, b](const MatrixRow &r) {
                return Value(pct(1.0 - runtimeSummary(r.runs[a]).mean /
                                           runtimeSummary(r.runs[b]).mean));
            }};
}

/** 95% CI of reduction(): the two arms' independent intervals combined. */
MatrixColumn
reductionCi(std::string header, std::size_t a, std::size_t b)
{
    return {std::move(header), "+-%.1f%%",
            [a, b](const MatrixRow &r) {
                const RunSummary c = runtimeSummary(r.runs[a]);
                const RunSummary base = runtimeSummary(r.runs[b]);
                return Value(pct(std::sqrt(base.ci95Half * base.ci95Half +
                                           c.ci95Half * c.ci95Half) /
                                 base.mean));
            },
            false};
}

/** Ratio of metric @p f between arm @p a and arm @p b. */
MatrixColumn
ratio(std::string header, std::size_t a, std::size_t b, Metric f)
{
    return {std::move(header), "%.2fx", [a, b, f](const MatrixRow &r) {
                return Value(*f(r.first(a)) / *f(r.first(b)));
            }};
}

const Metric avoided = [](const RunResult &r) {
    return Value(pct(r.avoidedFraction()));
};
const Metric oracle = [](const RunResult &r) {
    return Value(pct(r.oracleUnnecessaryFraction()));
};
const Metric avgTraffic = [](const RunResult &r) {
    return Value(r.avgBroadcastsPer100k);
};
const Metric peakTraffic = [](const RunResult &r) {
    return Value(r.peakBroadcastsPer100k);
};
const Metric flushes = [](const RunResult &r) {
    return Value(r.inclusionWritebacks);
};
const Metric missRatio = [](const RunResult &r) {
    return Value(pct(r.l2MissRatio));
};

/** Share of evicted regions with the line count in @p Count, % of all
 *  evictions; undefined without evictions. */
template <std::uint64_t RunResult::*Count>
Value
share(const RunResult &r)
{
    const std::uint64_t total = r.rcaEvictedEmpty + r.rcaEvictedOne +
                                r.rcaEvictedTwo + r.rcaEvictedMore;
    if (!total)
        return std::nullopt;
    return pct(static_cast<double>(r.*Count) / static_cast<double>(total));
}

/** Unnecessary broadcasts of one request category, % of all broadcasts. */
template <RequestCategory Cat>
Value
oracleShare(const RunResult &r)
{
    if (!r.oracleTotal)
        return std::nullopt;
    return pct(static_cast<double>(
                   r.oracleUnnecessaryByCat[static_cast<std::size_t>(Cat)]) /
               static_cast<double>(r.oracleTotal));
}

/**
 * The registry: every matrix, built on @p base. fig8 and fig9 report a
 * CI over base.seedsPerCell seeds; every other matrix runs once.
 */
std::vector<Matrix>
allMatrices(const SweepSpec &base)
{
    SweepSpec b = base;
    b.seedsPerCell = 1;
    // The variants the ablations and Figure 9 compare against b.
    SweepSpec half = base, no_self_inval = b, lru = b, three = b, hints = b;
    half.baseConfig.cgct.rcaSets = 4096;
    no_self_inval.baseConfig.cgct.selfInvalidation = false;
    lru.baseConfig.cgct.favorEmptyRegions = false;
    three.baseConfig.cgct.threeStateProtocol = true;
    hints.baseConfig.cgct.regionPrefetchHints = true;
    std::vector<Matrix> ms;
    ms.push_back({"fig2",
                  "Figure 2: unnecessary broadcasts (oracle), "
                  "four-processor baseline system",
                  {arm("base", b, 0)},
                  {col("broadcasts", "%.0f", 0,
                       [](const RunResult &r) { return Value(r.oracleTotal); },
                       false),
                   col("data-rw%", "%.1f%%", 0,
                       oracleShare<RequestCategory::DataReadWrite>),
                   col("wrback%", "%.1f%%", 0,
                       oracleShare<RequestCategory::Writeback>),
                   col("ifetch%", "%.1f%%", 0,
                       oracleShare<RequestCategory::Ifetch>),
                   col("dcb%", "%.1f%%", 0, oracleShare<RequestCategory::DcbOp>),
                   col("total%", "%.1f%%", 0, oracle)},
                  {MatrixSummary::Mean},
                  "paper: 15% to 94% per benchmark, 67% average"});

    MatrixColumn capture{"capture@512B", "%.2f", [](const MatrixRow &r) {
                             const double o = *oracle(r.first(0));
                             return o ? Value(*avoided(r.first(2)) / o)
                                      : Value();
                         }};
    // The summary's capture is the ratio of the 512B and oracle means.
    capture.ratioNum = 2;
    capture.ratioDen = 0;
    ms.push_back({"fig7",
                  "Figure 7: requests handled without a broadcast (% of all "
                  "system requests)",
                  {arm("base", b, 0), arm("256B", b, 256),
                   arm("512B", b, 512), arm("1KB", b, 1024)},
                  {col("oracle%", "%.1f%%", 0, oracle),
                   col("256B%", "%.1f%%", 1, avoided),
                   col("512B%", "%.1f%%", 2, avoided),
                   col("1KB%", "%.1f%%", 3, avoided), capture},
                  {MatrixSummary::Mean},
                  "paper: CGCT eliminates 55-97% of the unnecessary "
                  "broadcasts; Barnes sees only a 21-22% broadcast\n"
                  "reduction and TPC-H 9-12% (best case 15%)"});

    ms.push_back({"fig8",
                  "Figure 8: run-time reduction vs baseline (95% CI over "
                  "seeds)",
                  {arm("base", base, 0), arm("256B", base, 256),
                   arm("512B", base, 512), arm("1KB", base, 1024)},
                  {reduction("256B", 1, 0), reductionCi("ci-256B", 1, 0),
                   reduction("512B", 2, 0), reductionCi("ci-512B", 2, 0),
                   reduction("1KB", 3, 0), reductionCi("ci-1KB", 3, 0)},
                  {MatrixSummary::Mean, MatrixSummary::CommercialMean},
                  "paper: 8.8% average (10.4% commercial) at 512B; max 21.7% "
                  "(TPC-W @ 512B)"});

    ms.push_back({"fig9",
                  "Figure 9: run-time reduction, full vs half-size RCA (512B "
                  "regions)",
                  {arm("base", base, 0), arm("16K-entry", base, 512),
                   arm("8K-entry", half, 512)},
                  {reduction("16K-entry", 1, 0), reductionCi("ci-16K", 1, 0),
                   reduction("8K-entry", 2, 0), reductionCi("ci-8K", 2, 0)},
                  {MatrixSummary::Mean, MatrixSummary::CommercialMean},
                  "paper: 8.8% -> 7.8% overall (10.4% -> 9.1% commercial): "
                  "about a 1% loss for half the storage"});

    ms.push_back({"fig10",
                  "Figure 10: broadcasts per 100K cycles, baseline vs 512B "
                  "regions",
                  {arm("base", b, 0), arm("512B", b, 512)},
                  {col("base-avg", "%.0f", 0, avgTraffic),
                   col("cgct-avg", "%.0f", 1, avgTraffic),
                   col("base-peak", "%.0f", 0, peakTraffic),
                   col("cgct-peak", "%.0f", 1, peakTraffic),
                   ratio("avg-x", 1, 0, avgTraffic),
                   ratio("peak-x", 1, 0, peakTraffic)},
                  {MatrixSummary::Max, MatrixSummary::Mean},
                  "paper: highest average 2573 -> 1103; peak 7365 -> 2683; "
                  "both cut to less than half"});

    // The eviction statistics need a warm, full RCA: four times the run.
    SweepSpec longer = b;
    longer.opts.opsPerCpu *= 4;
    longer.opts.warmupOps *= 4;
    ms.push_back({"sec32",
                  "Section 3.2: RCA eviction behavior (512B regions, "
                  "favor-empty replacement, 4x ops)",
                  {arm("base", longer, 0), arm("512B", longer, 512)},
                  {col("empty%", "%.1f%%", 1,
                       share<&RunResult::rcaEvictedEmpty>),
                   col("1-line%", "%.1f%%", 1, share<&RunResult::rcaEvictedOne>),
                   col("2-line%", "%.1f%%", 1, share<&RunResult::rcaEvictedTwo>),
                   col("3+%", "%.1f%%", 1, share<&RunResult::rcaEvictedMore>),
                   // Like the shares, undefined without evictions.
                   col("lines/reg", "%.2f", 1,
                       [](const RunResult &r) {
                           return share<&RunResult::rcaEvictedOne>(r)
                                      ? Value(r.avgLinesPerEvictedRegion)
                                      : Value();
                       }),
                   col("flush-lines", "%.0f", 1, flushes, false),
                   {"miss-delta%", "%.2f%%",
                    [](const MatrixRow &r) {
                        const double base = r.first(0).l2MissRatio;
                        return Value(
                            base > 0.0
                                ? pct(r.first(1).l2MissRatio / base - 1.0)
                                : 0.0);
                    }}},
                  {MatrixSummary::Mean},
                  "paper: 65.1% empty, 17.2% one line, 5.1% two lines; "
                  "miss-ratio increase ~1.2%; 2.8-5 lines cached per "
                  "region"});

    ms.push_back({"selfinval",
                  "Ablation A1: region self-invalidation on/off (512B "
                  "regions)",
                  {arm("base", b, 0), arm("on", b, 512),
                   arm("off", no_self_inval, 512)},
                  {col("avoid-on%", "%.1f%%", 1, avoided),
                   col("avoid-off%", "%.1f%%", 2, avoided),
                   reduction("runtime-on", 1, 0),
                   reduction("runtime-off", 2, 0)},
                  {MatrixSummary::Mean},
                  "paper: self-invalidation 'improves performance "
                  "significantly'; expect avoid% and runtime to drop "
                  "without it"});

    ms.push_back({"replacement",
                  "Ablation A2: RCA replacement favor-empty vs plain LRU "
                  "(512B regions)",
                  {arm("favor", b, 512),
                   arm("lru", lru, 512)},
                  {col("flush-favor", "%.0f", 0, flushes),
                   col("flush-lru", "%.0f", 1, flushes),
                   col("empty%-favor", "%.1f%%", 0,
                       share<&RunResult::rcaEvictedEmpty>),
                   col("empty%-lru", "%.1f%%", 1,
                       share<&RunResult::rcaEvictedEmpty>),
                   col("miss-f%", "%.2f%%", 0, missRatio),
                   col("miss-l%", "%.2f%%", 1, missRatio)},
                  {},
                  "paper: favoring empty regions yields 65.1% empty "
                  "evictions and only ~1.2% extra cache misses"});

    ms.push_back({"threestate",
                  "Ablation A3: 7-state vs 3-state region protocol (512B "
                  "regions)",
                  {arm("base", b, 0), arm("7-state", b, 512),
                   arm("3-state", three, 512)},
                  {col("avoid-7%", "%.1f%%", 1, avoided),
                   col("avoid-3%", "%.1f%%", 2, avoided),
                   reduction("runtime-7", 1, 0),
                   reduction("runtime-3", 2, 0)},
                  {MatrixSummary::Mean},
                  "paper: the scaled-back protocol needs only one response "
                  "bit but gives up the externally-clean states"});

    ms.push_back({"geometry",
                  "Ablation A5: RCA geometry sweep (512B regions; reach = "
                  "entries x 512B)",
                  {}, {}, {},
                  "(avoided broadcasts; reach in MB of memory covered: the "
                  "paper's full array covers 8MB, half covers 4MB)"});
    const std::pair<unsigned, unsigned> geometries[] = {
        {1024, 2}, {2048, 2}, {4096, 2}, {8192, 2}, {4096, 4}};
    for (const auto &[sets, ways] : geometries) {
        char label[32];
        std::snprintf(label, sizeof(label), "%ux%u/%uMB", sets, ways,
                      sets * ways * 512 / (1024 * 1024));
        SweepSpec g = b;
        g.baseConfig.cgct.rcaSets = sets;
        g.baseConfig.cgct.rcaWays = ways;
        ms.back().arms.push_back(arm(label, g, 512));
        ms.back().columns.push_back(
            col(label, "%.1f%%", ms.back().arms.size() - 1, avoided));
    }

    // Data reads/writes (prefetches included) sent to the system.
    const Metric data = [](const RunResult &r) {
        return Value(r.broadcastsByCat[0] + r.directsByCat[0]);
    };
    ms.push_back({"prefetch",
                  "Ablation A6: region-aware prefetch hints (Section 6 "
                  "extension)",
                  {arm("base", b, 0), arm("plain", b, 512),
                   arm("hinted", hints, 512)},
                  {col("data-plain", "%.0f", 1, data, false),
                   col("data-hinted", "%.0f", 2, data, false),
                   reduction("time-plain", 1, 0),
                   reduction("time-hinted", 2, 0)},
                  {MatrixSummary::Mean},
                  "(hints mainly help sharing-heavy workloads by not "
                  "prefetching lines that would be stolen or stale)"});

    SweepSpec busy = b;
    busy.baseConfig.dma.enabled = true;
    busy.baseConfig.dma.meanInterval = 4000; // Busy I/O subsystem.
    ms.push_back({"dma",
                  "Ablation A7: DMA/I/O traffic (512B buffers every ~4K "
                  "cycles)",
                  {arm("base", busy, 0), arm("512B", busy, 512)},
                  {col("base-avg", "%.0f", 0, avgTraffic),
                   col("cgct-avg", "%.0f", 1, avgTraffic),
                   col("base-time", "%.0f", 0,
                       [](const RunResult &r) { return Value(r.cycles); }),
                   reduction("cgct-time", 1, 0)},
                  {},
                  "(DMA requests themselves always broadcast - the I/O "
                  "bridge has no RCA - so the floor under 'cgct-avg' is the "
                  "DMA rate)"});
    return ms;
}

const char *const kSummaryLabels[] = {"mean", "commercial mean", "max"};

/** Aggregate column @p c over the defined cells of the benchmark rows. */
Value
aggregate(MatrixSummary s, const std::vector<std::vector<Value>> &values,
          const std::vector<MatrixRow> &rows, std::size_t c)
{
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const Value v = values[r][c];
        if (!v || (s == MatrixSummary::CommercialMean &&
                   !rows[r].profile->commercial))
            continue;
        acc = s == MatrixSummary::Max && n ? std::max(acc, *v) : acc + *v;
        ++n;
    }
    if (!n)
        return std::nullopt;
    return s == MatrixSummary::Max ? acc : acc / static_cast<double>(n);
}

} // namespace

const std::vector<std::string> &
matrixNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Matrix &m : allMatrices(SweepSpec{}))
            v.push_back(m.name);
        return v;
    }();
    return names;
}

Matrix
makeMatrix(const std::string &name, const SweepSpec &base)
{
    for (Matrix &m : allMatrices(base))
        if (m.name == name)
            return std::move(m);
    std::string known;
    for (const std::string &n : matrixNames())
        known += " " + n;
    fatal("unknown experiment matrix '%s' (known:%s)", name.c_str(),
          known.c_str());
}

std::vector<std::vector<MatrixRow>>
runMatrices(const std::vector<Matrix> &matrices, unsigned jobs,
            const std::function<void(std::size_t, std::size_t)> &on_progress)
{
    // Every cell of every arm, keyed by its snapshot fingerprint (config,
    // benchmark, ops, warmup, seed), so a cell several arms share runs
    // once.
    const auto key = [](const SweepSpec &spec, const SweepCell &cell) {
        RunOptions opts = spec.opts;
        opts.seed = cell.seed;
        return snapshotFingerprint(spec.cellConfig(cell), cell.profile->name,
                                   opts, 0);
    };
    std::map<std::uint64_t, std::pair<const SweepSpec *, SweepCell>> cells;
    for (const Matrix &m : matrices)
        for (const MatrixArm &a : m.arms)
            for (const SweepCell &cell : a.spec.expand())
                cells.try_emplace(key(a.spec, cell), &a.spec, cell);

    std::atomic<std::size_t> done{0};
    ThreadPool pool(jobs);
    std::map<std::uint64_t, std::future<RunResult>> futures;
    for (const auto &[k, job] : cells)
        futures.emplace(k, pool.submit([job = job, &done, &on_progress,
                                        total = cells.size()] {
            RunResult r = job.first->runCell(job.second);
            if (on_progress)
                on_progress(done.fetch_add(1) + 1, total);
            return r;
        }));
    std::map<std::uint64_t, RunResult> results;
    for (auto &[k, f] : futures)
        results.emplace(k, f.get());

    std::vector<std::vector<MatrixRow>> out(matrices.size());
    for (std::size_t m = 0; m < matrices.size(); ++m) {
        const std::vector<MatrixArm> &arms = matrices[m].arms;
        for (const WorkloadProfile *p : arms.front().spec.profiles)
            out[m].push_back({p, std::vector<std::vector<RunResult>>(
                                     arms.size())});
        for (std::size_t a = 0; a < arms.size(); ++a)
            for (const SweepCell &cell : arms[a].spec.expand())
                out[m][cell.index / arms[a].spec.seedsPerCell]
                    .runs[a]
                    .push_back(results.at(key(arms[a].spec, cell)));
    }
    return out;
}

void
printMatrixReport(std::ostream &os, const Matrix &matrix,
                  const std::vector<MatrixRow> &rows)
{
    const std::vector<MatrixColumn> &cols = matrix.columns;
    const SweepSpec &spec = matrix.arms.front().spec;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ops/cpu=%llu warmup=%llu seeds=%u base seed=%llu",
                  static_cast<unsigned long long>(spec.opts.opsPerCpu),
                  static_cast<unsigned long long>(spec.opts.warmupOps),
                  spec.seedsPerCell,
                  static_cast<unsigned long long>(spec.baseSeed));
    os << "[" << matrix.name << "] " << matrix.title << "\n" << buf
       << "\narms:";
    for (const MatrixArm &a : matrix.arms)
        os << " " << a.label;
    os << "\n\n";

    // values[r][c]: column c of benchmark row r, then of each summary.
    std::vector<std::vector<Value>> values;
    for (const MatrixRow &row : rows) {
        values.emplace_back();
        for (const MatrixColumn &c : cols)
            values.back().push_back(c.value(row));
    }
    for (MatrixSummary s : matrix.summaries) {
        std::vector<Value> sum;
        for (std::size_t c = 0; c < cols.size(); ++c)
            sum.push_back(cols[c].summarized ? aggregate(s, values, rows, c)
                                             : std::nullopt);
        for (std::size_t c = 0; c < cols.size(); ++c) {
            if (cols[c].ratioNum < 0)
                continue;
            const Value num = sum[static_cast<std::size_t>(cols[c].ratioNum)];
            const Value den = sum[static_cast<std::size_t>(cols[c].ratioDen)];
            sum[c] = num && den && *den ? Value(*num / *den) : std::nullopt;
        }
        values.push_back(std::move(sum));
    }

    std::string rule(18, '-');
    std::vector<int> width;
    for (const MatrixColumn &c : cols) {
        width.push_back(std::max<int>(static_cast<int>(c.header.size()), 9));
        rule.append(static_cast<std::size_t>(width.back()) + 1, '-');
    }
    // One line of the table; r = npos prints the column headers.
    const auto line = [&](const std::string &label, std::size_t r) {
        std::snprintf(buf, sizeof(buf), "%-18s", label.c_str());
        os << buf;
        for (std::size_t c = 0; c < cols.size(); ++c) {
            char cell[64] = "-";
            if (r == std::string::npos)
                std::snprintf(cell, sizeof(cell), "%s",
                              cols[c].header.c_str());
            else if (values[r][c])
                std::snprintf(cell, sizeof(cell), cols[c].format.c_str(),
                              *values[r][c]);
            std::snprintf(buf, sizeof(buf), " %*s", width[c], cell);
            os << buf;
        }
        os << "\n";
    };
    line("benchmark", std::string::npos);
    os << rule << "\n";
    for (std::size_t r = 0; r < rows.size(); ++r)
        line(rows[r].profile->name, r);
    os << rule << "\n";
    for (std::size_t i = 0; i < matrix.summaries.size(); ++i)
        line(kSummaryLabels[static_cast<int>(matrix.summaries[i])],
             rows.size() + i);
    os << "\n" << matrix.paper << "\n";
}

} // namespace cgct

/**
 * @file
 * Tests for the structured trace sink: the disabled sink is a no-op,
 * enabled runs produce schema-valid JSONL and Chrome trace output, and
 * the captured trace is identical whether seeds run serially or on the
 * thread pool (docs/SWEEP.md determinism model extended to traces).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "common/trace_sink.hpp"
#include "core/region_protocol.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

SystemConfig
tracedConfig()
{
    SystemConfig c = makeDefaultConfig();
    // Small caches so evictions, write-backs, and RCA pressure all show
    // up in a short run.
    c.l1i = CacheParams{4 * 1024, 2, 64, 1};
    c.l1d = CacheParams{8 * 1024, 2, 64, 1};
    c.l2 = CacheParams{64 * 1024, 2, 64, 12};
    c = c.withCgct(512, 256, 2);
    c.obs.trace = true;
    c.validate();
    return c;
}

RunOptions
shortRun()
{
    RunOptions opts;
    opts.opsPerCpu = 5000;
    opts.warmupOps = 1000;
    opts.seed = 99;
    return opts;
}

TEST(TraceSink, DisabledSinkIsNoOp)
{
    TraceSink sink;
    EXPECT_FALSE(sink.enabled());
    TraceSink *p = &sink;
    CGCT_TRACE(p, route(10, 0, RequestType::Read, 0x1000,
                        RouteKind::Broadcast, RegionState::Invalid));
    EXPECT_TRUE(sink.events().empty());

    // Null sink pointer is fine too: the macro tests the pointer first.
    TraceSink *null_sink = nullptr;
    CGCT_TRACE(null_sink, route(10, 0, RequestType::Read, 0x1000,
                                RouteKind::Broadcast,
                                RegionState::Invalid));
}

TEST(TraceSink, UntracedRunCapturesNothing)
{
    SystemConfig c = tracedConfig();
    c.obs.trace = false;
    const RunResult r =
        simulateOnce(c, benchmarkByName("tpc-w"), shortRun());
    EXPECT_EQ(r.trace, nullptr);
}

TEST(TraceSink, JsonlSchemaValid)
{
    const RunResult r =
        simulateOnce(tracedConfig(), benchmarkByName("tpc-w"), shortRun());
    ASSERT_NE(r.trace, nullptr);
    ASSERT_FALSE(r.trace->empty());

    std::ostringstream os;
    TraceSink::writeJsonl(*r.trace, os);
    const std::string out = os.str();

    const std::set<std::string> known = {
#define X(name) #name,
        CGCT_TRACE_EVENT_TYPES(X)
#undef X
    };
    std::istringstream lines(out);
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"tick\":"), std::string::npos) << line;
        const auto tpos = line.find("\"type\":\"");
        ASSERT_NE(tpos, std::string::npos) << line;
        const auto start = tpos + 8;
        const auto end = line.find('"', start);
        EXPECT_TRUE(known.count(line.substr(start, end - start)))
            << line;
    }
    EXPECT_EQ(n, r.trace->size());
}

TEST(TraceSink, TraceCoversTheProtocol)
{
    const RunResult r =
        simulateOnce(tracedConfig(), benchmarkByName("tpc-w"), shortRun());
    ASSERT_NE(r.trace, nullptr);

    // Events are buffered in emission order, which is deterministic but
    // not strictly tick-sorted (a component may record a logical arrival
    // tick earlier than the event that emits it), so only coverage is
    // asserted here; ordering determinism is covered below.
    std::size_t counts[6] = {};
    for (const TraceEvent &e : *r.trace)
        ++counts[static_cast<std::size_t>(e.type)];
    // A CGCT run exercises every event type: routing on each request,
    // transitions and evictions in the RCA, arbitration and resolution
    // on the bus, and DRAM accesses behind it.
    for (std::size_t t = 0; t < 6; ++t)
        EXPECT_GT(counts[t], 0u)
            << "no " << traceEventTypeName(static_cast<TraceEventType>(t))
            << " events";
}

TEST(TraceSink, DeterministicAcrossJobs)
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean")};
    spec.regionSizes = {512};
    spec.seedsPerCell = 3;
    spec.opts = shortRun();
    spec.baseConfig = tracedConfig();
    const auto serial = SweepRunner(spec, 1).run();
    const auto parallel = SweepRunner(spec, 3).run();
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_NE(serial[i].trace, nullptr);
        ASSERT_NE(parallel[i].trace, nullptr);
        std::ostringstream a, b;
        TraceSink::writeJsonl(*serial[i].trace, a);
        TraceSink::writeJsonl(*parallel[i].trace, b);
        EXPECT_EQ(a.str(), b.str()) << "seed index " << i;
    }
}

TEST(TraceSink, ChromeTraceWellFormed)
{
    const RunResult r =
        simulateOnce(tracedConfig(), benchmarkByName("tpc-w"), shortRun());
    ASSERT_NE(r.trace, nullptr);

    std::ostringstream os;
    TraceSink::writeChromeTrace(*r.trace, os);
    const std::string out = os.str();
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), '[');
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_NE(out.find("\"ph\""), std::string::npos);
    EXPECT_NE(out.find("\"pid\""), std::string::npos);
}

} // namespace
} // namespace cgct

/**
 * @file
 * Shared helpers for the benches that build their own runs: run options
 * from the environment, percent formatting and table rules.
 *
 * Environment knobs (all optional):
 *   CGCT_OPS     operations per processor per run   (default 120000)
 *   CGCT_WARMUP  warmup operations per processor    (default OPS/5)
 *   CGCT_SEEDS   runs per configuration             (default 3)
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

namespace cgct::bench {

inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 10) : fallback;
}

inline RunOptions
defaultRunOptions()
{
    RunOptions o;
    o.opsPerCpu = envU64("CGCT_OPS", 120000);
    o.warmupOps = envU64("CGCT_WARMUP", o.opsPerCpu / 5);
    o.seed = envU64("CGCT_SEED", 20050609); // ISCA 2005.
    return o;
}

inline unsigned
defaultSeeds()
{
    return static_cast<unsigned>(envU64("CGCT_SEEDS", 3));
}

inline double
pct(double x)
{
    return 100.0 * x;
}

inline void
printRule(int width = 100)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

} // namespace cgct::bench

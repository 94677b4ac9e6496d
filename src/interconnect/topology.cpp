#include "interconnect/topology.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

HierRouter::HierRouter(EventQueue &eq, const InterconnectParams &params,
                       const AddressMap &map, DataNetwork &data_net,
                       std::vector<MemoryController *> mem_ctrls,
                       const TopologyParams &topo,
                       std::uint64_t region_bytes)
    : Interconnect(eq, params, map, data_net, std::move(mem_ctrls)),
      topo_(topo), domainNextFree_(topo.numChips(), 0),
      presence_(topo, region_bytes)
{
    if (topo_.numCpus > 64)
        panic("HierRouter: presence masks are 64-bit; numCpus must be "
              "<= 64 (config.validate should have rejected this)");
}

void
HierRouter::broadcast(const SystemRequest &req, ResponseFn fn)
{
    const Tick enq = eq_.now();

    // I/O-bridge DMA has no snoop domain of its own: it enters at the
    // inter-chip level and snoops every processor, like on the flat bus.
    if (static_cast<unsigned>(req.cpu) >= topo_.numCpus) {
        const Tick g = std::max(globalNextFree_, enq);
        globalNextFree_ = g + params_.busSlot;
        stats_.queueCycles += g - enq;
        ++stats_.broadcasts;
        ++stats_.interChip;
        traffic_.note(g);
        CGCT_TRACE(trace_, busGrant(g, req.cpu, req.type, req.lineAddr,
                                    g - enq));
        eq_.schedule(g + params_.snoopLatency,
                     [this, req, fn = std::move(fn)]() mutable {
                         resolveRequest(req, fn, kSnoopAll);
                     },
                     EventPriority::Snoop);
        return;
    }

    // Local-domain FCFS arbitration, then the short on-chip snoop.
    const unsigned d = topo_.chipOfCpu(req.cpu);
    const Tick g = std::max(domainNextFree_[d], enq);
    domainNextFree_[d] = g + params_.busSlot;
    stats_.queueCycles += g - enq;
    ++stats_.broadcasts;
    traffic_.note(g);
    CGCT_TRACE(trace_, busGrant(g, req.cpu, req.type, req.lineAddr,
                                g - enq));
    eq_.schedule(g + params_.localSnoopLatency,
                 [this, req, fn = std::move(fn)]() mutable {
                     localStage(req, std::move(fn));
                 },
                 EventPriority::Snoop);
}

void
HierRouter::localStage(const SystemRequest &req, ResponseFn fn)
{
    const unsigned d = topo_.chipOfCpu(req.cpu);
    const std::uint64_t local = presence_.chipMask(d);
    const std::uint64_t remote = presence_.maskOf(req.lineAddr) & ~local;

    // Write-backs never need remote snoops (they are state-neutral on
    // other processors), and a request whose region has no possible
    // holder outside the chip resolves entirely inside the domain. The
    // escape check and the resolution are one atomic event, so a
    // concurrent remote acquisition either already published its
    // presence bit (we escape and snoop it) or has not resolved yet
    // (it holds nothing to snoop).
    if (req.type == RequestType::Writeback || remote == 0) {
        ++stats_.localResolves;
        resolveRequest(req, fn, local);
        return;
    }

    // Escape: bridge onto the inter-chip level, FCFS like the flat bus.
    ++stats_.interChip;
    CGCT_TRACE(trace_, hierEscape(eq_.now(), req.cpu, req.type,
                                  req.lineAddr, remote));
    const Tick now = eq_.now();
    const Tick g = std::max(globalNextFree_, now);
    globalNextFree_ = g + params_.busSlot;
    stats_.queueCycles += g - now;
    eq_.schedule(g + params_.snoopLatency,
                 [this, req, local, fn = std::move(fn)]() mutable {
                     // Recompute presence at resolution: it can only have
                     // grown, and snooping more processors is safe.
                     const std::uint64_t mask =
                         local | presence_.maskOf(req.lineAddr);
                     resolveRequest(req, fn, mask);
                 },
                 EventPriority::Snoop);
}

void
HierRouter::noteResolved(const SystemRequest &req, bool gets_exclusive)
{
    (void)gets_exclusive;
    if (static_cast<unsigned>(req.cpu) < topo_.numCpus &&
        req.type != RequestType::Writeback)
        presence_.noteChip(req.cpu, req.lineAddr);
}

void
HierRouter::addStats(StatGroup &group) const
{
    group.addScalar("hier.broadcasts",
                    "requests entering the snoop hierarchy",
                    &stats_.broadcasts);
    group.addScalar("hier.queue_cycles",
                    "total cycles requests waited for arbitration "
                    "(both levels)",
                    &stats_.queueCycles);
    group.addScalar("hier.local_resolves",
                    "requests resolved inside their chip's snoop domain",
                    &stats_.localResolves);
    group.addScalar("hier.interchip",
                    "requests escaping onto the inter-chip level",
                    &stats_.interChip);
    group.addScalar("hier.cache_to_cache",
                    "reads whose data came from another cache",
                    &stats_.cacheToCache);
    group.addScalar("hier.memory_supplied",
                    "reads whose data came from DRAM",
                    &stats_.memorySupplied);
    group.addDerived("hier.avg_per_100k",
                     "average requests per 100K cycles",
                     [this] {
                         return traffic_.averagePerWindow(eq_.now());
                     });
    group.addDerived("hier.peak_per_100k",
                     "peak requests in any 100K-cycle window",
                     [this] {
                         return static_cast<double>(
                             traffic_.peakWindowCount());
                     });
    group.addDerived("hier.bypass_fraction",
                     "fraction of requests resolved without the "
                     "inter-chip level",
                     [this] {
                         return stats_.broadcasts
                                    ? static_cast<double>(
                                          stats_.localResolves) /
                                          static_cast<double>(
                                              stats_.broadcasts)
                                    : 0.0;
                     });
}

void
HierRouter::serialize(Serializer &s) const
{
    s.u64(globalNextFree_);
    s.u32(static_cast<std::uint32_t>(domainNextFree_.size()));
    for (const Tick t : domainNextFree_)
        s.u64(t);
    s.u64(stats_.broadcasts);
    s.u64(stats_.queueCycles);
    s.u64(stats_.cacheToCache);
    s.u64(stats_.memorySupplied);
    s.u64(stats_.localResolves);
    s.u64(stats_.interChip);
    traffic_.serialize(s);
    presence_.serialize(s);
}

void
HierRouter::deserialize(SectionReader &r)
{
    globalNextFree_ = r.u64();
    const std::uint32_t n = r.u32();
    if (n != domainNextFree_.size())
        panic("HierRouter: snapshot has %u snoop domains, system has %zu",
              n, domainNextFree_.size());
    for (Tick &t : domainNextFree_)
        t = r.u64();
    stats_.broadcasts = r.u64();
    stats_.queueCycles = r.u64();
    stats_.cacheToCache = r.u64();
    stats_.memorySupplied = r.u64();
    stats_.localResolves = r.u64();
    stats_.interChip = r.u64();
    traffic_.deserialize(r);
    presence_.deserialize(r);
}

} // namespace cgct

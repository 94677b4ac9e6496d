#include "interconnect/bus.hpp"

#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

Bus::Bus(EventQueue &eq, const InterconnectParams &params,
         const AddressMap &map, DataNetwork &data_net,
         std::vector<MemoryController *> mem_ctrls)
    : Interconnect(eq, params, map, data_net, std::move(mem_ctrls))
{
}

void
Bus::broadcast(const SystemRequest &req, ResponseFn fn)
{
    queue_.push_back(Pending{req, std::move(fn), eq_.now()});
    if (!grantScheduled_)
        scheduleGrant();
}

void
Bus::scheduleGrant()
{
    grantScheduled_ = true;
    const Tick when =
        nextFreeSlot_ > eq_.now() ? nextFreeSlot_ : eq_.now();
    eq_.schedule(when, [this] { grant(); }, EventPriority::Snoop);
}

void
Bus::grant()
{
    grantScheduled_ = false;
    if (queue_.empty())
        return;
    Pending p = std::move(queue_.front());
    queue_.pop_front();

    const Tick now = eq_.now();
    stats_.queueCycles += now - p.enqueued;
    ++stats_.broadcasts;
    traffic_.note(now);
    CGCT_TRACE(trace_, busGrant(now, p.req.cpu, p.req.type, p.req.lineAddr,
                                now - p.enqueued));
    nextFreeSlot_ = now + params_.busSlot;

    // The snoop resolves a fixed latency after the broadcast slot.
    eq_.schedule(now + params_.snoopLatency,
                 [this, p = std::move(p)]() mutable {
                     resolve(p.req, std::move(p.fn));
                 },
                 EventPriority::Snoop);

    if (!queue_.empty())
        scheduleGrant();
}

void
Bus::resolve(const SystemRequest &req, ResponseFn fn)
{
    resolveRequest(req, fn, kSnoopAll);
}

void
Bus::serialize(Serializer &s) const
{
    if (!queue_.empty() || grantScheduled_)
        panic("Bus: serializing with %zu requests queued — snapshots "
              "require a drained system", queue_.size());
    s.u64(nextFreeSlot_);
    s.u64(stats_.broadcasts);
    s.u64(stats_.queueCycles);
    s.u64(stats_.cacheToCache);
    s.u64(stats_.memorySupplied);
    traffic_.serialize(s);
}

void
Bus::deserialize(SectionReader &r)
{
    nextFreeSlot_ = r.u64();
    stats_.broadcasts = r.u64();
    stats_.queueCycles = r.u64();
    stats_.cacheToCache = r.u64();
    stats_.memorySupplied = r.u64();
    traffic_.deserialize(r);
}

void
Bus::addStats(StatGroup &group) const
{
    group.addScalar("bus.broadcasts", "requests broadcast on the bus",
                    &stats_.broadcasts);
    group.addScalar("bus.queue_cycles",
                    "total cycles requests waited for arbitration",
                    &stats_.queueCycles);
    group.addScalar("bus.cache_to_cache",
                    "reads whose data came from another cache",
                    &stats_.cacheToCache);
    group.addScalar("bus.memory_supplied",
                    "reads whose data came from DRAM",
                    &stats_.memorySupplied);
    group.addDerived("bus.avg_per_100k",
                     "average broadcasts per 100K cycles",
                     [this] {
                         return traffic_.averagePerWindow(eq_.now());
                     });
    group.addDerived("bus.peak_per_100k",
                     "peak broadcasts in any 100K-cycle window",
                     [this] {
                         return static_cast<double>(
                             traffic_.peakWindowCount());
                     });
}

} // namespace cgct

#include "interconnect/interconnect.hpp"

#include "common/trace_sink.hpp"

namespace cgct {

Interconnect::Interconnect(EventQueue &eq, const InterconnectParams &params,
                           const AddressMap &map, DataNetwork &data_net,
                           std::vector<MemoryController *> mem_ctrls)
    : eq_(eq), params_(params), map_(map), dataNet_(data_net),
      memCtrls_(std::move(mem_ctrls))
{
}

SnoopResponse
Interconnect::combineSnoops(const SystemRequest &req,
                            std::uint64_t snoop_mask, Tick now,
                            bool &gets_exclusive)
{
    // Phase 1: conventional line snoop on every selected processor.
    SnoopResponse resp;
    for (SnoopClient *client : clients_) {
        if (client->cpuId() == req.cpu)
            continue;
        if (!maskHas(snoop_mask, client->cpuId()))
            continue;
        resp.line.fold(client->cpuId(), client->snoopLine(req));
    }

    // What copy will the requester end up with? DCB flush/invalidate ops
    // count as exclusive for the region downgrade: no remote copy of the
    // line survives them.
    gets_exclusive =
        wantsExclusive(req.type) || isDcbOp(req.type) ||
        ((req.type == RequestType::Read ||
          req.type == RequestType::Prefetch) && !resp.line.anyCopy);

    // Phase 2: region snoop — gather the paper's two response bits and
    // apply the Figure 5 downgrades on the other processors. Write-backs
    // need no region information and must not downgrade anyone.
    if (req.type != RequestType::Writeback) {
        for (SnoopClient *client : clients_) {
            if (client->cpuId() == req.cpu)
                continue;
            if (!maskHas(snoop_mask, client->cpuId()))
                continue;
            resp.region.merge(
                client->snoopRegion(req, gets_exclusive, now));
        }
    }

    // The snoop response identifies the owning memory controller; the
    // requester's RCA caches it for direct write-backs (Section 5.1).
    resp.memCtrl = map_.controllerOf(req.lineAddr);

    noteResolved(req, gets_exclusive);
    return resp;
}

void
Interconnect::resolveRequest(const SystemRequest &req, ResponseFn &fn,
                             std::uint64_t snoop_mask)
{
    const Tick now = eq_.now();

    // Let the oracle classify the broadcast against pre-snoop cache state.
    if (observer_)
        observer_(req);

    bool gets_exclusive = false;
    const SnoopResponse resp =
        combineSnoops(req, snoop_mask, now, gets_exclusive);
    MemoryController *mc = memCtrls_[static_cast<unsigned>(resp.memCtrl)];

    Tick data_ready = now;
    const SnoopKind kind = snoopKindOf(req.type);
    const bool needs_data = kind == SnoopKind::Read ||
                            kind == SnoopKind::ReadInvalidate;
    if (req.type == RequestType::Writeback) {
        mc->acceptWriteback(now);
    } else if (resp.line.anyWroteBack) {
        mc->acceptWriteback(now);
    }

    if (needs_data) {
        if (resp.line.cacheSupplied) {
            ++stats_.cacheToCache;
            const Distance d = map_.cpuToCpu(req.cpu, resp.line.supplier);
            data_ready = dataNet_.deliver(req.cpu, now, d, 64);
        } else {
            ++stats_.memorySupplied;
            const Tick from_mem = mc->accessOverlapped(now);
            const Distance d = map_.distanceToCtrl(req.cpu, resp.memCtrl);
            data_ready = dataNet_.deliver(req.cpu, from_mem, d, 64);
        }
    }

    CGCT_TRACE(trace_, busResolve(now, req.cpu, req.type, req.lineAddr,
                                  resp, gets_exclusive, data_ready));

    fn(resp, data_ready);

    // Response delivered and requester-side state settled: let the
    // invariant checker cross-validate region state vs cache contents.
    if (postResolve_)
        postResolve_(req);
}

} // namespace cgct

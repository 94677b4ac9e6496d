/**
 * @file
 * Two-level snoop hierarchy (docs/TOPOLOGY.md). Each processor chip is
 * its own snoop domain with a short local combining latency; an
 * inter-chip broadcast level bridges the domains with the full Fireplane
 * snoop latency. A conservative region-granular presence map — the
 * RegionScout-style filter the bridge maintains by observing every
 * traversal — decides whether a request can resolve inside its local
 * domain or must escape: a request escapes only when the map shows a
 * processor outside the requester's chip that may hold lines (or an RCA
 * entry) in the request's region.
 *
 * Presence is sticky (bits are never cleared by evictions), so it is
 * always a superset of the true holders; snooping a superset is
 * protocol-safe, and the map can only cause extra escapes, never missed
 * snoops. CGCT composes multiplicatively: region-exclusive state converts
 * broadcasts into direct requests before they reach the bridge at all.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace cgct {

/** Per-chip snoop domains bridged by an inter-chip broadcast level. */
class HierRouter : public Interconnect
{
  public:
    HierRouter(EventQueue &eq, const InterconnectParams &params,
               const AddressMap &map, DataNetwork &data_net,
               std::vector<MemoryController *> mem_ctrls,
               const TopologyParams &topo, std::uint64_t region_bytes);

    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    void addStats(StatGroup &group) const override;

    void serialize(Serializer &s) const override;
    void deserialize(SectionReader &r) override;

    const RegionPresence *presence() const override { return &presence_; }

    /** Corrupt the presence map (invariant-checker injection test). */
    void corruptPresenceForTest(Addr line, std::uint64_t mask)
    {
        presence_.setForTest(line, mask);
    }

  protected:
    /**
     * Record that the requester's chip may now hold lines (or an RCA
     * entry) in the request's region. Runs inside the resolve event,
     * before the response installs any state, so a later mask
     * computation at the same tick already sees the bits.
     */
    void noteResolved(const SystemRequest &req,
                      bool gets_exclusive) override;

  private:
    /** Local-domain stage: resolve on-chip or escape to the bridge. */
    void localStage(const SystemRequest &req, ResponseFn fn);

    TopologyParams topo_;

    /** FCFS arbitration cursor of each per-chip domain. */
    std::vector<Tick> domainNextFree_;
    /** FCFS arbitration cursor of the inter-chip level. */
    Tick globalNextFree_ = 0;

    /** Region address -> mask of processors that may hold it. */
    RegionPresence presence_;
};

} // namespace cgct

/**
 * @file
 * Full-map directory interconnect (docs/TOPOLOGY.md): the non-broadcast
 * baseline for machines where flat snooping is untenable. Every request
 * travels point-to-point to the home memory controller of its line
 * (interleave-determined, as in mem/address_map.hpp), queues FCFS at
 * that controller's directory bank, and after a tag lookup snoops only
 * the processors the directory believes may hold a copy.
 *
 * The directory keeps two structures: a per-line full-map sharer vector,
 * updated at every lookup from the combined snoop outcome (exclusive
 * grant -> {requester}, shared grant -> += requester, write-back ->
 * -= requester), and the same sticky region-granular presence map the
 * hierarchy uses — needed because CGCT direct requests legally bypass
 * the directory (their region-acquisition broadcast went through it),
 * so the sharer vector alone would under-approximate after direct
 * fills. Silent clean evictions leave stale sharer bits; both maps are
 * conservative supersets, so the snoop set is always sufficient.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace cgct {

/** Full-map directory at the home memory controllers. */
class DirectoryInterconnect : public Interconnect
{
  public:
    DirectoryInterconnect(EventQueue &eq, const InterconnectParams &params,
                          const AddressMap &map, DataNetwork &data_net,
                          std::vector<MemoryController *> mem_ctrls,
                          const TopologyParams &topo,
                          std::uint64_t region_bytes);

    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    void addStats(StatGroup &group) const override;

    void serialize(Serializer &s) const override;
    void deserialize(SectionReader &r) override;

    const RegionPresence *presence() const override { return &presence_; }
    const AddrMaskMap *sharers() const override { return &sharers_; }

    /** Corrupt directory state (invariant-checker injection test). */
    void corruptSharersForTest(Addr line, std::uint64_t mask)
    {
        sharers_[line] = mask;
        presence_.setForTest(line, mask);
    }

  protected:
    /**
     * Fold the resolved request into the sharer / presence maps. Runs
     * before the response is delivered, so the post-resolve hook (the
     * invariant checker) already sees the requester's bits.
     */
    void noteResolved(const SystemRequest &req,
                      bool gets_exclusive) override;

  private:
    /** Directory-bank tag lookup: snoop the sharer set and update it. */
    void lookup(const SystemRequest &req, ResponseFn fn);

    std::uint64_t
    sharerMask(Addr line) const
    {
        const auto it = sharers_.find(line);
        return it == sharers_.end() ? 0 : it->second;
    }

    TopologyParams topo_;

    /** FCFS arbitration cursor of each home directory bank. */
    std::vector<Tick> bankNextFree_;

    /** Line address -> full-map sharer vector. */
    AddrMaskMap sharers_;
    /** Region address -> sticky presence mask (covers direct fills). */
    RegionPresence presence_;
};

} // namespace cgct

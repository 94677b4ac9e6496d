/**
 * @file
 * Broadcast address network (Fireplane-like). The bus is the coherence
 * ordering point: requests arbitrate for a slot, are broadcast to every
 * processor, and resolve 16 system cycles later when all snoop responses
 * (line state plus the CGCT region bits) have been combined. For requests
 * served by memory, the DRAM access is started in parallel with the snoop
 * (Figure 6), so only the overlapped-extra latency remains afterwards.
 *
 * The flat bus is one Interconnect topology (docs/TOPOLOGY.md): every
 * request snoops every processor (snoop mask = all ones), so each
 * broadcast occupies the single system-wide — "inter-chip" — level.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace cgct {

/** The broadcast address bus plus snoop-response combining logic. */
class Bus : public Interconnect
{
  public:
    Bus(EventQueue &eq, const InterconnectParams &params,
        const AddressMap &map, DataNetwork &data_net,
        std::vector<MemoryController *> mem_ctrls);

    /**
     * Broadcast @p req, invoking @p fn at resolution. Must be called at
     * the issuing event's time (requests are granted FCFS).
     */
    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    /** On the flat bus every broadcast occupies the system-wide level. */
    std::uint64_t interChipBroadcasts() const override
    {
        return stats_.broadcasts;
    }

    void addStats(StatGroup &group) const override;

    /**
     * Checkpoint support. The request queue must be empty (drained
     * system); serialize() panics otherwise. Saves the arbitration
     * slot cursor, the counters and the traffic windows.
     */
    void serialize(Serializer &s) const override;
    void deserialize(SectionReader &r) override;

  private:
    struct Pending {
        SystemRequest req;
        ResponseFn fn;
        Tick enqueued;
    };

    void scheduleGrant();
    void grant();
    void resolve(const SystemRequest &req, ResponseFn fn);

    std::deque<Pending> queue_;
    bool grantScheduled_ = false;
    Tick nextFreeSlot_ = 0;
};

} // namespace cgct

/**
 * @file
 * Assembles the full simulated machine of Table 3: event queue, address
 * map, per-chip memory controllers, data network, broadcast bus, one Node
 * (caches + RCA) and one CoreModel per processor, and the oracle.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/trace_sink.hpp"
#include "cpu/core_model.hpp"
#include "event/event_queue.hpp"
#include "interconnect/bus.hpp"
#include "interconnect/directory.hpp"
#include "interconnect/interconnect.hpp"
#include "interconnect/topology.hpp"
#include "interconnect/data_network.hpp"
#include "mem/address_map.hpp"
#include "mem/memory_controller.hpp"
#include "sim/dma.hpp"
#include "sim/invariants.hpp"
#include "sim/node.hpp"
#include "sim/oracle.hpp"

namespace cgct {

class Serializer;
class Deserializer;

/** The whole machine. */
class System
{
  public:
    /**
     * @param config validated system configuration
     * @param source workload op streams (must outlive the system)
     */
    System(const SystemConfig &config, OpSource &source);

    /** Kick off every core. */
    void start();

    /**
     * Execute pending events. @return events executed; a value >=
     * @p max_events means the runaway guard tripped (the system is NOT
     * drained and must not be serialized).
     */
    std::uint64_t
    run(std::uint64_t max_events)
    {
        return eq_.run(max_events);
    }

    EventQueue &eq() { return eq_; }
    const SystemConfig &config() const { return config_; }
    const AddressMap &addressMap() const { return map_; }
    Interconnect &bus() { return *bus_; }
    DataNetwork &dataNetwork() { return *dataNet_; }
    Oracle &oracle() { return *oracle_; }
    unsigned numCpus() const { return config_.topology.numCpus; }
    Node &node(unsigned i) { return *nodes_[i]; }
    CoreModel &core(unsigned i) { return *cores_[i]; }
    MemoryController &memCtrl(unsigned i) { return *memCtrls_[i]; }
    unsigned numMemCtrls() const
    {
        return static_cast<unsigned>(memCtrls_.size());
    }

    /** The DMA engine, or nullptr when config.dma.enabled is false. */
    DmaEngine *dma() { return dma_.get(); }

    /** The trace sink (enabled when config.obs.trace is set). */
    TraceSink &traceSink() { return trace_; }
    const TraceSink &traceSink() const { return trace_; }

    /**
     * The invariant checker, or nullptr when not active. Active when
     * config.obs.checkInvariants is set, and automatically in debug
     * (NDEBUG-undefined) builds whenever CGCT is enabled.
     */
    InvariantChecker *invariantChecker() { return checker_.get(); }

    bool allCoresFinished() const;
    Tick maxCoreClock() const;

    /** Cores blocked on a trace synchronization event (replay only). */
    unsigned coresWaitingOnSync() const;

    /**
     * Functional mode for every node (Node::setFunctional): accesses
     * resolve in place with zero latency. Sampled runs warm this way.
     */
    void setFunctional(bool on);

    /** Reset all statistics at @p now (end of warmup). */
    void resetStats(Tick now);

    /** Dump every component's statistics. */
    void dumpStats(std::ostream &os) const;

    /**
     * Checkpoint support (see docs/SNAPSHOT.md). serializeState()
     * appends one section per component ("eq", "bus", "datanet",
     * "oracle", "dma", "memctrl<i>", "core<i>", "node<i>",
     * "tracker<i>") to @p s. It must be called on a drained system —
     * event queue empty, every core Finished, no requests in flight —
     * and panics otherwise. Chip-shared region trackers are serialized
     * once, under the section of the first core that owns them.
     */
    void serializeState(Serializer &s) const;

    /**
     * Restore component state from @p d (same section layout). The
     * system must be freshly constructed under the same configuration;
     * the caller is responsible for checking the config fingerprint
     * before calling this.
     */
    void restoreState(const Deserializer &d);

    /**
     * Resume execution for the next checkpoint phase after the op
     * source's pause point advanced: wakes every drained core and
     * restarts the DMA engine. Also used directly after restoreState().
     */
    void resumePhase();

  private:
    SystemConfig config_;
    EventQueue eq_;
    AddressMap map_;
    std::vector<std::unique_ptr<MemoryController>> memCtrls_;
    std::unique_ptr<DataNetwork> dataNet_;
    std::unique_ptr<Interconnect> bus_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::unique_ptr<Oracle> oracle_;
    std::unique_ptr<DmaEngine> dma_;
    TraceSink trace_;
    std::unique_ptr<InvariantChecker> checker_;
};

} // namespace cgct

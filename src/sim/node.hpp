/**
 * @file
 * A processor node (Figure 1 of the paper): the two L1 caches, the unified
 * L2 (the system's coherence point), the MSHR file, the stream prefetcher,
 * and — when CGCT is enabled — the Region Coherence Array controller that
 * routes requests directly to memory when the region state allows it.
 *
 * Coherence model: the bus resolution event is the ordering point; line
 * and region state changes are applied atomically there, while data
 * arrival only affects timing (readyTick on the line). Direct requests
 * apply their state changes at issue, which is safe because the region
 * protocol guarantees no other processor holds a conflicting copy.
 *
 * Every state transition is one architectural step (dispatch routing,
 * applyBroadcastResponse, applyGrant, issueDirect, completeLocally,
 * installL2Line, evictL2Line, flushRegion, the snoops) shared by two
 * drivers. The timed driver reaches a step through the MSHR file, the
 * event queue and interconnect arbitration; functional mode
 * (setFunctional, used by sampled runs' warming) reaches the same steps
 * in place at the caller's tick with zero latency.
 *
 * Request-path storage: a miss's completion context — the callback plus
 * what fillL1 needs — lives in a per-MSHR-slot Completion struct
 * (mshrCtx_) instead of being captured inside nested heap-allocated
 * closures; waiter queues (fill merges, the MSHR-full backlog, pending
 * region acquisitions) are pooled FIFOs keyed through open-addressed
 * tables. After the pools reach their high-water marks the request path
 * performs no allocations.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/addr_table.hpp"
#include "common/config.hpp"
#include "common/inline_function.hpp"
#include "common/pool_fifo.hpp"
#include "common/stats.hpp"
#include "core/cgct_controller.hpp"
#include "event/event_queue.hpp"
#include "interconnect/interconnect.hpp"
#include "interconnect/data_network.hpp"
#include "mem/address_map.hpp"
#include "mem/memory_controller.hpp"
#include "prefetch/stream_prefetcher.hpp"

namespace cgct {

class InvariantChecker;
class TraceSink;

/** One processor node. */
class Node : public SnoopClient
{
  public:
    /**
     * Completion callback: @p ready is when the op's data is usable.
     * Move-only with inline storage (see InlineFunction); capacity covers
     * the core model's captures with room to spare.
     */
    static constexpr std::size_t kCompletionCapacity = 48;
    using CompletionFn = InlineFunction<void(Tick ready),
                                        kCompletionCapacity>;

    Node(CpuId cpu, const SystemConfig &config, EventQueue &eq,
         Interconnect &bus,
         DataNetwork &data_net, const AddressMap &map,
         std::vector<MemoryController *> mem_ctrls,
         std::shared_ptr<RegionTracker> tracker);

    /**
     * Perform a processor memory operation at local time @p now.
     * @return true if resolved synchronously (@p ready_out is set);
     *         false if @p done will be invoked when the op resolves.
     * @p done is consumed only on the asynchronous (false) path; a
     * synchronous return leaves the caller's callable untouched.
     */
    bool access(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
                CompletionFn &&done);

    /** True while another outstanding miss can be accepted. */
    bool canAcceptMiss() const { return !mshr_.full(); }

    // SnoopClient interface (external requests arriving from the bus).
    CpuId cpuId() const override { return cpu_; }
    LineSnoopOutcome snoopLine(const SystemRequest &req) override;
    RegionSnoopBits snoopRegion(const SystemRequest &req,
                                bool requester_gets_exclusive,
                                Tick now) override;

    /** Side-effect-free L2 state probe (oracle, tests). */
    LineState peekLine(Addr addr) const;

    /**
     * Functional mode (docs/SAMPLING.md): access() keeps its full
     * architectural effect — caches, MOESI, region tracker, prefetcher,
     * topology maps — but every system request resolves in place at the
     * access tick through Interconnect::resolveFunctional: no events, no
     * arbitration, no MSHR occupancy, no latency, no memory-controller
     * slots, and incoming snoops occupy no tag port. Switch only while
     * nothing is in flight.
     */
    void setFunctional(bool on) { functional_ = on; }

    /** Region tracker (nullptr in the baseline configuration). */
    RegionTracker *tracker() { return tracker_.get(); }
    const RegionTracker *tracker() const { return tracker_.get(); }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    StreamPrefetcher &prefetcher() { return prefetcher_; }

    /**
     * Emit route-decision trace events to @p sink and forward it to the
     * region tracker (which emits region transitions and RCA evictions).
     */
    void setTraceSink(TraceSink *sink);

    /** Run @p checker after every locally-applied protocol transition. */
    void setInvariantChecker(InvariantChecker *checker)
    {
        checker_ = checker;
    }

    /** Per-node request statistics, broken down for Figures 2 and 7. */
    struct Stats {
        static constexpr std::size_t kNumCat =
            static_cast<std::size_t>(RequestCategory::NumCategories);

        std::uint64_t requestsTotal = 0;     ///< All system requests.
        std::uint64_t broadcasts = 0;
        std::uint64_t directs = 0;
        std::uint64_t localCompletes = 0;
        std::uint64_t broadcastsByCat[kNumCat] = {};
        std::uint64_t directsByCat[kNumCat] = {};
        std::uint64_t localByCat[kNumCat] = {};
        std::uint64_t writebacksIssued = 0;
        std::uint64_t demandMisses = 0;
        std::uint64_t prefetchesIssued = 0;
        std::uint64_t upgradeRaces = 0;      ///< Upgrade lost the line.
        std::uint64_t inclusionWritebacks = 0; ///< From region flushes.
        std::uint64_t snoopsReceived = 0;
        std::uint64_t tagWaitCycles = 0;     ///< Local accesses stalled
                                             ///< behind snoop lookups.
        std::uint64_t memLatencySum = 0;     ///< Demand-miss latency.
        std::uint64_t memLatencyCount = 0;
    };

    const Stats &stats() const { return stats_; }
    void resetStats();
    void addStats(StatGroup &group) const;

    /** Demand-miss latency distribution (histogram geometry below). */
    const Histogram &missLatencyHistogram() const
    {
        return missLatencyHist_;
    }

    /** Miss-latency histogram geometry: 40 linear 50-cycle buckets. */
    static constexpr std::uint64_t kMissLatencyBucketWidth = 50;
    static constexpr std::size_t kMissLatencyBuckets = 40;

    /**
     * Verify structural invariants (tests): L1s inclusive under L2, and —
     * with CGCT — RCA inclusion over the L2 plus exact per-region line
     * counts. @return a description of the first violation, or empty.
     */
    std::string checkInvariants() const;

    /**
     * Checkpoint support: the three caches, the MSHR free list, the
     * prefetcher, the L2 tag-port cursor, the request statistics and the
     * miss-latency histogram. The region tracker is serialized separately
     * by the System (it may be shared between the cores of a chip).
     * Snapshots require quiescence — no in-flight misses, fill waiters,
     * postponed misses or pending region acquisitions; serialize()
     * panics otherwise.
     */
    void serialize(Serializer &s) const;
    void deserialize(SectionReader &r);

  private:
    /**
     * What happens when a request resolves: refresh the L1 (for demand
     * fills) and invoke the caller's callback. One per outstanding miss,
     * stored in mshrCtx_[slot] — the flattened form of the closures the
     * request path used to nest.
     */
    struct Completion {
        CompletionFn done;
        Addr addr = 0;
        CpuOpKind kind = CpuOpKind::Load;
        bool fill = false;               ///< Run fillL1 before done.
    };

    /** A request merged onto an in-flight fill for the same line. */
    struct Waiter {
        CompletionFn done;
        Addr addr = 0;
        CpuOpKind kind = CpuOpKind::Load;
        bool fill = false;
        bool replay = false;             ///< Re-run access() on wake.
    };

    /** A request postponed because the MSHR file was full. */
    struct PendingMiss {
        RequestType type = RequestType::Read;
        Addr lineAddr = 0;
        Completion c;
        bool isPrefetch = false;
        Tick queuedAt = 0;
    };

    /** A request waiting behind an in-flight region acquisition; its
     *  Completion stays in the MSHR slot claimed before dispatch. */
    struct RegionWaiter {
        RequestType type = RequestType::Read;
        Addr lineAddr = 0;
        bool isPrefetch = false;
        Tick queuedAt = 0;
    };

    /** Handle an access that reached the L2. */
    bool accessL2(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
                  CompletionFn &&done);

    /** Issue (or queue) a request to the system. */
    void issueSystemRequest(RequestType type, Addr line_addr, Tick now,
                            Completion &&c, bool is_prefetch);

    /** The request, with an MSHR (if needed) already claimed. */
    void dispatchSystemRequest(RequestType type, Addr line_addr, Tick now,
                               bool is_prefetch);

    /** Handle a broadcast's snoop response (ordering-point event). */
    void handleBroadcastResponse(RequestType type, Addr line_addr,
                                 const SnoopResponse &resp,
                                 Tick data_ready);

    /** Requester side of a resolved broadcast: region tracker, region
     *  waiters, then the grant. */
    void applyBroadcastResponse(RequestType type, Addr line_addr,
                                const SnoopResponse &resp, Tick now,
                                Tick ready);

    /**
     * Install the requester-side line state of a resolved request:
     * fill with @p granted, upgrade to Modified, or flush/invalidate.
     * Local completions use the Upgrade/Dcb* subset.
     */
    void applyGrant(RequestType type, Addr line_addr, LineState granted,
                    Tick now, Tick ready);

    /** Invalidate a line in every cache level and tell the tracker. */
    void dropLine(Addr line_addr);

    /** Issue a direct-to-memory request (region permission held). */
    void issueDirect(RequestType type, Addr line_addr, MemCtrlId mc,
                     Tick now, bool is_prefetch);

    /** A write-back sent straight to controller @p mc. */
    void writebackDirect(MemCtrlId mc, Tick now);

    /** Complete a request locally with no external request. */
    void completeLocally(RequestType type, Addr line_addr, Tick now);

    /** Install a line into the L2 (and bookkeeping around eviction). */
    void installL2Line(Addr line_addr, LineState state, Tick now,
                       Tick ready);

    /** Move/refresh the line into the right L1 after an L2 resolution. */
    void fillL1(CpuOpKind kind, Addr addr, Tick now, Tick ready);

    /** Evict a line from L2: back-invalidate L1s, write back if dirty. */
    void evictL2Line(Addr line_addr, LineState state, Tick now);

    /** Send a write-back for @p line_addr to the system. */
    void issueWriteback(Addr line_addr, Tick now);

    /** Region-eviction flush: push the region's lines out (inclusion). */
    void flushRegion(Addr region_addr, std::uint64_t region_bytes,
                     MemCtrlId mc, Tick now);

    /** Run the stream prefetcher after a demand L2 access. */
    void maybePrefetch(Addr line_addr, bool is_store, bool was_miss,
                       Tick now);

    /** Release an MSHR and start a queued request if one is waiting. */
    void releaseMshr(Addr line_addr);

    /** Move this line's Completion out of its MSHR slot (if any). */
    Completion grabMshrCtx(Addr line_addr);

    /** Run a Completion: optional L1 refresh, then the callback. */
    void runCompletion(Completion &c, Tick ready);

    /** Release + resolve: the common tail of broadcast completions. */
    void finishRequest(Addr line_addr, bool needs_mshr, Tick ready);

    /** Wake everything merged onto @p line_addr's fill. */
    void drainFillWaiters(Addr line_addr, Tick ready);

    /** The waiter list for @p line_addr, created if absent. */
    PoolFifo<Waiter>::List &waiterListFor(Addr line_addr);

    /** Record a completed demand miss's latency. */
    void noteMissLatency(Tick issued, Tick ready);

    CpuId cpu_;
    const SystemConfig &config_;
    EventQueue &eq_;
    Interconnect &bus_;
    DataNetwork &dataNet_;
    const AddressMap &map_;
    std::vector<MemoryController *> memCtrls_;
    std::shared_ptr<RegionTracker> tracker_;

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    MshrFile mshr_;
    StreamPrefetcher prefetcher_;

    /** Per-MSHR-slot completion context, indexed by MshrFile slot. */
    std::vector<Completion> mshrCtx_;

    /** Waiters merged onto an in-flight fill, keyed by line address. */
    AddrTable<PoolFifo<Waiter>::List> fillWaiters_;
    PoolFifo<Waiter> waiterPool_;

    /** Requests postponed because the MSHR file was full. */
    PoolFifo<PendingMiss>::List pendingMisses_;
    PoolFifo<PendingMiss> pendingPool_;

    /**
     * Requests to a region whose first broadcast (the region acquisition)
     * is still in flight: they wait for the region snoop response instead
     * of broadcasting line by line. Keyed by region-aligned address.
     */
    AddrTable<PoolFifo<RegionWaiter>::List> pendingRegionAcq_;
    PoolFifo<RegionWaiter> regionWaiterPool_;
    /** Suppress re-marking acquisitions while draining a region queue. */
    bool drainingRegion_ = false;

    std::vector<PrefetchCandidate> prefetchScratch_;
    /** Region-flush collection scratch (invalidation mutates the array). */
    std::vector<std::pair<Addr, LineState>> flushScratch_;
    /** L2 tag port busy (incoming snoops) until this tick. */
    Tick l2TagBusy_ = 0;
    Stats stats_;
    Histogram missLatencyHist_{kMissLatencyBucketWidth,
                               kMissLatencyBuckets};
    TraceSink *trace_ = nullptr;
    InvariantChecker *checker_ = nullptr;
    /** Resolve requests in place (see setFunctional). */
    bool functional_ = false;
};

} // namespace cgct

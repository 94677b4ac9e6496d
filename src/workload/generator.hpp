/**
 * @file
 * Synthetic multiprocessor workload generator: turns a WorkloadProfile into
 * per-processor operation streams that share a physical address space.
 * Shared read-write objects carry a (generator-global) owner, so ownership
 * migration produces the cache-to-cache transfer and externally-dirty
 * region behavior the real workloads exhibit.
 *
 * Address-space layout (all segments interleave across the memory
 * controllers like any other physical memory):
 *
 *   code       [0x0800_0000)  shared, read-only, hot
 *   shared RO  [0x1000_0000)  read-mostly
 *   shared RW  [0x2000_0000)  migratory objects
 *   DCBZ arena [0x4000_0000 + cpu * 64 MB)  page zeroing
 *   private    [0x8000_0000 + cpu * 64 MB)  per-CPU heap/stack
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "workload/profile.hpp"

namespace cgct {

class Serializer;
class SectionReader;

/** Generates the operation streams for every processor of one run. */
class SyntheticWorkload : public OpSource
{
  public:
    /**
     * @param profile     the benchmark description
     * @param num_cpus    processors in the system
     * @param ops_per_cpu operations each processor executes
     * @param seed        master seed; per-CPU streams are forked from it
     */
    SyntheticWorkload(const WorkloadProfile &profile, unsigned num_cpus,
                      std::uint64_t ops_per_cpu, std::uint64_t seed);

    bool next(CpuId cpu, CpuOp &op) override;

    std::uint64_t opsPerCpu() const { return opsPerCpu_; }
    std::uint64_t opsDrawn(CpuId cpu) const
    {
        return cpus_[static_cast<unsigned>(cpu)].ops;
    }

    /** Smallest per-CPU op count drawn so far (warmup coordination). */
    std::uint64_t minOpsDrawn() const;

    const WorkloadProfile &profile() const { return profile_; }

    /**
     * Checkpoint support: next() returns false once a CPU has drawn
     * @p ops operations, so cores drain at the pause point instead of
     * running to the end of the stream. Clamped to opsPerCpu(); pass
     * opsPerCpu() to remove the pause. Raising the pause point after a
     * drain and resuming the cores continues the streams exactly where
     * they stopped.
     */
    void setPauseAt(std::uint64_t ops);
    std::uint64_t pauseAt() const { return pauseAt_; }

    /**
     * Serialize the generator state: per-CPU RNG streams, cursors and
     * pending-op latches, plus the shared-object ownership table. The
     * profile name / CPU count / ops-per-CPU are verified on restore.
     */
    void serialize(Serializer &s) const;
    void deserialize(SectionReader &r);

  private:
    static constexpr unsigned kLine = 64;
    static constexpr Addr kCodeBase = 0x08000000ULL;
    static constexpr Addr kSharedROBase = 0x10000000ULL;
    static constexpr Addr kSharedRWBase = 0x20000000ULL;
    static constexpr Addr kDcbzBase = 0x40000000ULL;
    static constexpr Addr kPrivateBase = 0x80000000ULL;
    static constexpr Addr kPerCpuStride = 64ULL << 20;
    static constexpr std::uint64_t kChunkBytes = 4096;

    /** Streaming cursor within one segment. */
    struct SegCursor {
        Addr addr = 0;
        std::uint32_t runLeft = 0;
        /** Remaining references to the current line before advancing. */
        std::uint32_t repeatLeft = 0;
    };

    struct CpuState {
        Rng rng{1};
        std::uint64_t ops = 0;
        SegCursor code;
        SegCursor ro;
        SegCursor priv;
        std::uint64_t dcbzLeft = 0;
        Addr dcbzAddr = 0;
        std::uint64_t dcbzPage = 0;
        /** Queued read-modify-write store (follows a load it depends on). */
        bool rmwPending = false;
        Addr rmwAddr = 0;
    };

    const PhaseSpec &phaseFor(const CpuState &cs) const;
    Addr pickStreaming(CpuState &cs, SegCursor &cur, Addr base,
                       std::uint64_t size, double zipf,
                       const Geometric &repeat);
    std::uint32_t gapFor(CpuState &cs);

    WorkloadProfile profile_;
    unsigned numCpus_;
    std::uint64_t opsPerCpu_;
    std::uint64_t pauseAt_;             ///< next() stops here (checkpoints).
    std::vector<CpuState> cpus_;
    std::vector<CpuId> rwOwner_;        ///< Shared: per-object owner.
    std::vector<std::uint64_t> phaseEnd_; ///< Op index ending each phase.
    // The profile's geometric draws, log1p(-p) precomputed per constant.
    Geometric codeRepeat_;  ///< References per instruction line.
    Geometric dataRepeat_;  ///< References per data line.
    Geometric seqRun_;      ///< Sequential run length in lines.
    Geometric gap_;         ///< Non-memory instructions between ops.
};

} // namespace cgct

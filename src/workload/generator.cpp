#include "workload/generator.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile,
                                     unsigned num_cpus,
                                     std::uint64_t ops_per_cpu,
                                     std::uint64_t seed)
    : profile_(profile), numCpus_(num_cpus), opsPerCpu_(ops_per_cpu),
      pauseAt_(ops_per_cpu), cpus_(num_cpus),
      rwOwner_(profile.rwObjects, kInvalidCpu),
      codeRepeat_(1.0 / profile.codeRefsPerLine),
      dataRepeat_(1.0 / profile.refsPerLine),
      seqRun_(1.0 / profile.seqRunLines), gap_(1.0 / (profile.avgGap + 1.0))
{
    profile_.validate();
    Rng master(seed);
    for (unsigned i = 0; i < num_cpus; ++i)
        cpus_[i].rng = master.fork(i + 1);

    // Precompute the op index at which each phase ends.
    double acc = 0.0;
    for (const auto &ph : profile_.phases) {
        acc += ph.fraction;
        phaseEnd_.push_back(
            static_cast<std::uint64_t>(acc * static_cast<double>(
                                                 ops_per_cpu)));
    }
    phaseEnd_.back() = ops_per_cpu; // Guard against rounding.
}

void
SyntheticWorkload::setPauseAt(std::uint64_t ops)
{
    pauseAt_ = std::min(ops, opsPerCpu_);
}

void
SyntheticWorkload::serialize(Serializer &s) const
{
    s.str(profile_.name);
    s.u32(numCpus_);
    s.u64(opsPerCpu_);
    for (const CpuState &cs : cpus_) {
        cs.rng.serialize(s);
        s.u64(cs.ops);
        for (const SegCursor *cur : {&cs.code, &cs.ro, &cs.priv}) {
            s.u64(cur->addr);
            s.u32(cur->runLeft);
            s.u32(cur->repeatLeft);
        }
        s.u64(cs.dcbzLeft);
        s.u64(cs.dcbzAddr);
        s.u64(cs.dcbzPage);
        s.b(cs.rmwPending);
        s.u64(cs.rmwAddr);
    }
    s.u64(rwOwner_.size());
    for (CpuId owner : rwOwner_)
        s.i64(owner);
}

void
SyntheticWorkload::deserialize(SectionReader &r)
{
    const std::string name = r.str();
    const std::uint32_t num_cpus = r.u32();
    const std::uint64_t ops = r.u64();
    if (name != profile_.name || num_cpus != numCpus_ ||
        ops != opsPerCpu_)
        fatal("snapshot section '%s': workload mismatch (profile '%s', "
              "%u CPUs, %llu ops stored vs '%s', %u, %llu here)",
              r.name().c_str(), name.c_str(), num_cpus,
              static_cast<unsigned long long>(ops),
              profile_.name.c_str(), numCpus_,
              static_cast<unsigned long long>(opsPerCpu_));
    for (CpuState &cs : cpus_) {
        cs.rng.deserialize(r);
        cs.ops = r.u64();
        for (SegCursor *cur : {&cs.code, &cs.ro, &cs.priv}) {
            cur->addr = r.u64();
            cur->runLeft = r.u32();
            cur->repeatLeft = r.u32();
        }
        cs.dcbzLeft = r.u64();
        cs.dcbzAddr = r.u64();
        cs.dcbzPage = r.u64();
        cs.rmwPending = r.b();
        cs.rmwAddr = r.u64();
    }
    const std::uint64_t owners = r.u64();
    if (owners != rwOwner_.size())
        fatal("snapshot section '%s': shared-object count mismatch",
              r.name().c_str());
    for (CpuId &owner : rwOwner_)
        owner = static_cast<CpuId>(r.i64());
}

std::uint64_t
SyntheticWorkload::minOpsDrawn() const
{
    std::uint64_t m = UINT64_MAX;
    for (const auto &cs : cpus_)
        m = std::min(m, cs.ops);
    return m;
}

const PhaseSpec &
SyntheticWorkload::phaseFor(const CpuState &cs) const
{
    for (std::size_t i = 0; i < phaseEnd_.size(); ++i) {
        if (cs.ops < phaseEnd_[i])
            return profile_.phases[i];
    }
    return profile_.phases.back();
}

Addr
SyntheticWorkload::pickStreaming(CpuState &cs, SegCursor &cur, Addr base,
                                 std::uint64_t size, double zipf,
                                 const Geometric &repeat)
{
    // Temporal locality: revisit the current line several times (varying
    // the word offset) before moving on.
    if (cur.repeatLeft > 0) {
        --cur.repeatLeft;
        return cur.addr + cs.rng.nextBelow(kLine / 8) * 8;
    }
    cur.repeatLeft = static_cast<std::uint32_t>(
        cs.rng.nextGeometric(repeat) - 1);

    if (cur.runLeft > 0 && cur.addr + kLine < base + size) {
        cur.addr += kLine;
        --cur.runLeft;
        return cur.addr;
    }
    // Jump: a Zipf-hot chunk, then a fresh sequential run inside it.
    const std::uint64_t chunks = std::max<std::uint64_t>(1,
                                                         size / kChunkBytes);
    const std::uint64_t chunk = cs.rng.nextZipf(chunks, zipf);
    const std::uint64_t line_in_chunk =
        cs.rng.nextBelow(kChunkBytes / kLine);
    cur.addr = base + chunk * kChunkBytes + line_in_chunk * kLine;
    cur.runLeft = static_cast<std::uint32_t>(
        cs.rng.nextGeometric(seqRun_));
    return cur.addr;
}

std::uint32_t
SyntheticWorkload::gapFor(CpuState &cs)
{
    return static_cast<std::uint32_t>(cs.rng.nextGeometric(gap_) - 1);
}

bool
SyntheticWorkload::next(CpuId cpu, CpuOp &op)
{
    CpuState &cs = cpus_[static_cast<unsigned>(cpu)];
    if (cs.ops >= pauseAt_)
        return false;
    const PhaseSpec &ph = phaseFor(cs);
    ++cs.ops;

    op = CpuOp{};
    op.gap = gapFor(cs);

    // Finish an in-progress DCBZ page-zeroing burst first.
    if (cs.dcbzLeft > 0) {
        op.kind = CpuOpKind::Dcbz;
        op.addr = cs.dcbzAddr;
        op.gap = 0;
        cs.dcbzAddr += kLine;
        --cs.dcbzLeft;
        return true;
    }

    // A queued read-modify-write store follows its load immediately.
    if (cs.rmwPending) {
        cs.rmwPending = false;
        op.kind = CpuOpKind::Store;
        op.addr = cs.rmwAddr;
        op.gap = 1;
        return true;
    }

    Rng &rng = cs.rng;

    if (rng.chance(ph.pIfetch)) {
        op.kind = CpuOpKind::Ifetch;
        op.addr = pickStreaming(cs, cs.code, kCodeBase,
                                profile_.codeBytes, profile_.codeZipf,
                                codeRepeat_);
        return true;
    }

    // Data operation.
    if (rng.chance(ph.pDcbzBurst)) {
        // Zero a recently-freed page in this CPU's allocation arena
        // (AIX-style); the 2 MB arena recycles quickly enough that its
        // regions are often still tracked.
        const std::uint64_t arena_pages = (2ULL << 20) / profile_.pageBytes;
        cs.dcbzAddr = kDcbzBase +
                      static_cast<Addr>(cpu) * kPerCpuStride +
                      (cs.dcbzPage % arena_pages) * profile_.pageBytes;
        ++cs.dcbzPage;
        cs.dcbzLeft = profile_.pageBytes / kLine;
        op.kind = CpuOpKind::Dcbz;
        op.addr = cs.dcbzAddr;
        op.gap = 0;
        cs.dcbzAddr += kLine;
        --cs.dcbzLeft;
        return true;
    }

    if (rng.chance(ph.pDcbf)) {
        // Flush something recently touched in the private segment.
        op.kind = CpuOpKind::Dcbf;
        op.addr = cs.priv.addr ? cs.priv.addr
                               : kPrivateBase +
                                     static_cast<Addr>(cpu) * kPerCpuStride;
        return true;
    }

    const double seg = rng.nextDouble();
    if (seg < ph.pSharedRW && !rwOwner_.empty()) {
        // Migratory read-write object access.
        const std::uint64_t obj =
            rng.nextZipf(rwOwner_.size(), profile_.zipf);
        if (rng.chance(ph.pMigrate))
            rwOwner_[obj] = cpu;
        const bool owned = rwOwner_[obj] == cpu;
        const Addr obj_base = kSharedRWBase +
                              static_cast<Addr>(obj) *
                                  profile_.rwObjectBytes;
        const std::uint64_t lines = profile_.rwObjectBytes / kLine;
        op.addr = obj_base + rng.nextBelow(lines) * kLine;
        if (owned && rng.chance(ph.pStoreOwned)) {
            // Read-modify-write: load now, dependent store next op.
            op.kind = CpuOpKind::Load;
            op.dependent = true;
            cs.rmwPending = true;
            cs.rmwAddr = op.addr;
        } else {
            op.kind = CpuOpKind::Load;
            op.dependent = rng.chance(ph.pDependent);
        }
        return true;
    }

    if (seg < ph.pSharedRW + ph.pSharedRO) {
        op.addr = pickStreaming(cs, cs.ro, kSharedROBase,
                                profile_.sharedROBytes, profile_.zipf,
                                dataRepeat_);
        op.kind = rng.chance(ph.pStoreSharedRO) ? CpuOpKind::Store
                                                : CpuOpKind::Load;
        op.dependent = op.kind == CpuOpKind::Load &&
                       rng.chance(ph.pDependent);
        return true;
    }

    // Private access.
    op.addr = pickStreaming(cs, cs.priv,
                            kPrivateBase +
                                static_cast<Addr>(cpu) * kPerCpuStride,
                            profile_.privateBytes, profile_.zipf,
                            dataRepeat_);
    op.kind = rng.chance(ph.pStorePrivate) ? CpuOpKind::Store
                                           : CpuOpKind::Load;
    op.dependent = op.kind == CpuOpKind::Load && rng.chance(ph.pDependent);
    return true;
}

} // namespace cgct

/**
 * @file
 * The sticky region-granular presence map the hierarchy's bridge and the
 * directory both keep (docs/TOPOLOGY.md): region address -> mask of the
 * processors that may hold lines (or an RCA entry) in that region. Bits
 * are set chip-granular and never cleared, so the map is always a
 * superset of the true holders.
 */

#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/config.hpp"
#include "common/types.hpp"

namespace cgct {

class Serializer;
class SectionReader;

/** Address -> 64-bit processor mask, as kept by the topologies. */
using AddrMaskMap = std::unordered_map<Addr, std::uint64_t>;

/** Save @p m in sorted key order (deterministic snapshot bytes). */
void serializeSortedMap(Serializer &s, const AddrMaskMap &m);
void deserializeMap(SectionReader &r, AddrMaskMap &m);

/** Region-granular, chip-granular, sticky presence map. */
class RegionPresence
{
  public:
    RegionPresence(const TopologyParams &topo, std::uint64_t region_bytes)
        : topo_(topo), regionBytes_(region_bytes)
    {
    }

    /** Processors that may hold lines of @p line's region. */
    std::uint64_t
    maskOf(Addr line) const
    {
        const auto it = map_.find(regionOf(line));
        return it == map_.end() ? 0 : it->second;
    }

    /** Mask of the processors on chip @p chip. */
    std::uint64_t
    chipMask(unsigned chip) const
    {
        const unsigned lo = chip * topo_.cpusPerChip;
        std::uint64_t m = 0;
        for (unsigned c = lo; c < lo + topo_.cpusPerChip &&
                              c < topo_.numCpus; ++c)
            m |= 1ULL << c;
        return m;
    }

    /**
     * Record that @p cpu's *chip* may now hold lines (or an RCA entry)
     * in @p line's region. Chip-granular, not CPU-granular: with a
     * chip-shared RCA (Section 3.2) a sibling core can direct-fill
     * lines through an entry this request created, without ever
     * reaching the interconnect itself.
     */
    void
    noteChip(CpuId cpu, Addr line)
    {
        map_[regionOf(line)] |= chipMask(topo_.chipOfCpu(cpu));
    }

    /** Overwrite a region's mask (invariant-checker injection tests). */
    void setForTest(Addr line, std::uint64_t mask)
    {
        map_[regionOf(line)] = mask;
    }

    void serialize(Serializer &s) const { serializeSortedMap(s, map_); }
    void deserialize(SectionReader &r) { deserializeMap(r, map_); }

  private:
    Addr regionOf(Addr line) const { return line & ~(regionBytes_ - 1); }

    TopologyParams topo_;
    std::uint64_t regionBytes_;
    AddrMaskMap map_;
};

} // namespace cgct

#include "interconnect/region_presence.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "snapshot/serializer.hpp"

namespace cgct {

void
serializeSortedMap(Serializer &s, const AddrMaskMap &m)
{
    std::vector<std::pair<Addr, std::uint64_t>> entries(m.begin(), m.end());
    std::sort(entries.begin(), entries.end());
    s.u64(entries.size());
    for (const auto &e : entries) {
        s.u64(e.first);
        s.u64(e.second);
    }
}

void
deserializeMap(SectionReader &r, AddrMaskMap &m)
{
    m.clear();
    const std::uint64_t entries = r.u64();
    for (std::uint64_t i = 0; i < entries; ++i) {
        const Addr key = r.u64();
        m[key] = r.u64();
    }
}

} // namespace cgct

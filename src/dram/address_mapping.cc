#include "dram/address_mapping.hh"

#include <algorithm>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"

namespace mnpu
{

AddressMapping::AddressMapping(const DramTiming &timing,
                               const std::string &order)
    : offsetBits_(floorLog2(timing.transactionBytes()))
{
    struct Spec
    {
        const char *token;
        Slice *slice;
        std::uint32_t bits;
    };
    const Spec specs[] = {
        {"ro", &row_, floorLog2(timing.rows)},
        {"ra", &rank_,
         floorLog2(std::max<std::uint32_t>(timing.ranks, 1))},
        {"bg", &bankGroup_, floorLog2(timing.bankGroups)},
        {"ba", &bank_, floorLog2(timing.banksPerGroup)},
        {"co", &column_,
         floorLog2(static_cast<std::uint64_t>(timing.columnsPerRow()))},
    };

    std::vector<std::string> tokens;
    for (const auto &piece : split(order, '-'))
        if (!piece.empty())
            tokens.push_back(piece);
    if (tokens.size() != std::size(specs))
        fatal("address mapping '", order, "' must name all 5 fields");

    // Assign shifts from LSB: the last token sits just above the offset.
    std::uint32_t shift = 0;
    std::vector<const Spec *> seen;
    for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
        const Spec *found = nullptr;
        for (const auto &spec : specs)
            if (*it == spec.token)
                found = &spec;
        if (found == nullptr)
            fatal("unknown address mapping field '", *it, "'");
        if (std::find(seen.begin(), seen.end(), found) != seen.end())
            fatal("duplicate address mapping field '", *it, "'");
        seen.push_back(found);
        found->slice->shift = shift;
        found->slice->mask =
            found->bits >= 64 ? ~0ULL : ((1ULL << found->bits) - 1);
        shift += found->bits;
    }
}

DramCoord
AddressMapping::decode(Addr addr) const
{
    const Addr body = addr >> offsetBits_;
    DramCoord coord;
    coord.row = row_.of(body);
    coord.rank = static_cast<std::uint32_t>(rank_.of(body));
    coord.bankGroup = static_cast<std::uint32_t>(bankGroup_.of(body));
    coord.bank = static_cast<std::uint32_t>(bank_.of(body));
    coord.column = column_.of(body);
    return coord;
}

} // namespace mnpu

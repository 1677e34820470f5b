/**
 * @file
 * Physical-address to DRAM-coordinate decomposition within one channel.
 *
 * The channel index is chosen one level up (DramSystem) so that per-core
 * channel partitioning works; this class splits the remaining channel-
 * local address into rank / bank group / bank / row / column.
 *
 * Bit order is configurable with a DRAMsim3-style field string such as
 * "ro-ra-bg-ba-co" (most-significant first); the transaction offset bits
 * are always the lowest bits.
 */

#ifndef MNPU_DRAM_ADDRESS_MAPPING_HH
#define MNPU_DRAM_ADDRESS_MAPPING_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{

/** Decoded DRAM coordinates of one transaction. */
struct DramCoord
{
    std::uint32_t rank = 0;
    std::uint32_t bankGroup = 0;
    std::uint32_t bank = 0;     //!< bank within the bank group
    std::uint64_t row = 0;
    std::uint64_t column = 0;

    /** Flat bank index within the channel. */
    std::uint32_t
    flatBank(const DramTiming &t) const
    {
        return (rank * t.bankGroups + bankGroup) * t.banksPerGroup + bank;
    }
};

/** Splits channel-local physical addresses into DRAM coordinates. */
class AddressMapping
{
  public:
    /**
     * @param timing channel geometry (bit widths derive from it)
     * @param order  dash-separated fields, MSB first; fields: ro ra bg ba
     *               co. Every field must appear exactly once.
     */
    AddressMapping(const DramTiming &timing,
                   const std::string &order = "ro-ra-bg-ba-co");

    /** Decode @p addr (channel-local, byte-granular). */
    DramCoord decode(Addr addr) const;

    /** Bits consumed below the mapped fields (transaction offset). */
    std::uint32_t offsetBits() const { return offsetBits_; }

  private:
    /** One field's bit slice of the offset-stripped address. */
    struct Slice
    {
        std::uint32_t shift = 0; //!< from bit offsetBits_
        std::uint64_t mask = 0;

        std::uint64_t of(Addr body) const { return (body >> shift) & mask; }
    };

    std::uint32_t offsetBits_;
    Slice row_;
    Slice rank_;
    Slice bankGroup_;
    Slice bank_;
    Slice column_;
};

} // namespace mnpu

#endif // MNPU_DRAM_ADDRESS_MAPPING_HH

/**
 * @file
 * Set-associative TLB with true-LRU replacement.
 *
 * Entries are tagged with (ASID, VPN) so a single instance can be shared
 * by several NPU cores (the paper's +DWT level); inter-core conflict
 * misses then emerge naturally from set-index collisions. The TLB models
 * timing only — the translated frame comes from the PageAllocator.
 */

#ifndef MNPU_MMU_TLB_HH
#define MNPU_MMU_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mnpu
{

class Tlb
{
  public:
    /**
     * @param entries total entries (power of two)
     * @param ways    associativity; must divide entries
     * @param name    stats group name
     */
    Tlb(std::uint32_t entries, std::uint32_t ways, const std::string &name);

    /** Probe for (asid, vpn); refreshes LRU on hit. */
    bool lookup(Asid asid, Addr vpn);

    /** Install (asid, vpn), evicting the set's LRU entry if needed. */
    void insert(Asid asid, Addr vpn);

    /**
     * insert() for an entry known to be absent — the caller's lookup()
     * of (asid, vpn) just missed and nothing filled the set since — so
     * it skips the already-present probe and only picks the victim.
     * Same victim, LRU clock and counters as insert().
     */
    void fillAfterMiss(Asid asid, Addr vpn);

    /** Probe without touching LRU state or stats. */
    bool contains(Asid asid, Addr vpn) const;

    /** Drop every entry belonging to @p asid. */
    void flushAsid(Asid asid);

    std::uint32_t numEntries() const { return entries_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint32_t numSets() const { return sets_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    double hitRate() const;

    const StatGroup &stats() const { return stats_; }

    /** Snapshot the full table, LRU clock, and stats (DESIGN §12). */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    struct Entry
    {
        bool valid = false;
        Asid asid = 0;
        Addr vpn = 0;
        std::uint64_t lastUse = 0;
    };

    void fill(Entry *set, Asid asid, Addr vpn);

    std::size_t setIndex(Addr vpn) const
    {
        // Power-of-two set counts (the common case) use a mask; odd
        // counts (e.g. a shared TLB over 3 cores) fall back to modulo.
        if (setsIsPow2_)
            return static_cast<std::size_t>(vpn) & (sets_ - 1);
        return static_cast<std::size_t>(vpn % sets_);
    }

    std::uint32_t entries_;
    std::uint32_t ways_;
    std::uint32_t sets_;
    bool setsIsPow2_;
    std::vector<Entry> table_; //!< sets_ * ways_, set-major
    std::uint64_t useClock_ = 0;

    StatGroup stats_;
    Counter &hits_;
    Counter &misses_;
    Counter &evictions_;
};

} // namespace mnpu

#endif // MNPU_MMU_TLB_HH

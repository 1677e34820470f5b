#include "mmu/tlb.hh"

#include "common/logging.hh"

namespace mnpu
{

Tlb::Tlb(std::uint32_t entries, std::uint32_t ways, const std::string &name)
    : entries_(entries),
      ways_(ways),
      stats_(name),
      hits_(stats_.counter("hits")),
      misses_(stats_.counter("misses")),
      evictions_(stats_.counter("evictions"))
{
    if (entries == 0 || ways == 0 || entries % ways != 0)
        fatal("TLB entries (", entries, ") must be a nonzero multiple of ",
              "ways (", ways, ")");
    sets_ = entries / ways;
    setsIsPow2_ = isPowerOfTwo(sets_);
    table_.resize(entries_);
}

bool
Tlb::lookup(Asid asid, Addr vpn)
{
    Entry *base = &table_[setIndex(vpn) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &entry = base[w];
        if (entry.valid && entry.asid == asid && entry.vpn == vpn) {
            entry.lastUse = ++useClock_;
            hits_.inc();
            return true;
        }
    }
    misses_.inc();
    return false;
}

void
Tlb::insert(Asid asid, Addr vpn)
{
    Entry *set = &table_[setIndex(vpn) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &entry = set[w];
        if (entry.valid && entry.asid == asid && entry.vpn == vpn) {
            entry.lastUse = ++useClock_; // already present; refresh
            return;
        }
    }
    fill(set, asid, vpn);
}

void
Tlb::fillAfterMiss(Asid asid, Addr vpn)
{
    fill(&table_[setIndex(vpn) * ways_], asid, vpn);
}

void
Tlb::fill(Entry *set, Asid asid, Addr vpn)
{
    // Victim: the first invalid way, else the least recently used one
    // (valid entries have distinct lastUse stamps).
    Entry *victim = set;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &entry = set[w];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.lastUse < victim->lastUse)
            victim = &entry;
    }
    if (victim->valid)
        evictions_.inc();
    victim->valid = true;
    victim->asid = asid;
    victim->vpn = vpn;
    victim->lastUse = ++useClock_;
}

bool
Tlb::contains(Asid asid, Addr vpn) const
{
    const Entry *base = &table_[setIndex(vpn) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Entry &entry = base[w];
        if (entry.valid && entry.asid == asid && entry.vpn == vpn)
            return true;
    }
    return false;
}

void
Tlb::flushAsid(Asid asid)
{
    for (auto &entry : table_) {
        if (entry.valid && entry.asid == asid)
            entry.valid = false;
    }
}

double
Tlb::hitRate() const
{
    std::uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
}

template <class Self, class Io>
void
Tlb::visitState(Self &self, Io &io)
{
    io.section("TLB ");
    io.expect(self.entries_, "TLB geometry mismatch");
    io.expect(self.ways_, "TLB geometry mismatch");
    io.u64(self.useClock_);
    for (auto &entry : self.table_) {
        io.b(entry.valid);
        io.u32(entry.asid);
        io.u64(entry.vpn);
        io.u64(entry.lastUse);
    }
    io.state(self.stats_);
}

template void Tlb::visitState(const Tlb &, StateWriter &);
template void Tlb::visitState(Tlb &, StateReader &);

} // namespace mnpu

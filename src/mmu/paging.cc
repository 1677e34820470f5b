#include "mmu/paging.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mnpu
{

namespace
{

/** The entry for @p asid in a table kept sorted by asid, added if new. */
template <typename PerAsid>
PerAsid &
findOrAddAsid(std::vector<std::unique_ptr<PerAsid>> &table, Asid asid)
{
    auto it = std::lower_bound(
        table.begin(), table.end(), asid,
        [](const auto &entry, Asid key) { return entry->asid < key; });
    if (it == table.end() || (*it)->asid != asid) {
        auto entry = std::make_unique<PerAsid>();
        entry->asid = asid;
        it = table.insert(it, std::move(entry));
    }
    return **it;
}

} // namespace

std::uint32_t
walkLevelsForPageSize(std::uint64_t page_bytes)
{
    if (!isPowerOfTwo(page_bytes) || page_bytes < 4096)
        fatal("page size must be a power of two >= 4 KB, got ", page_bytes);
    std::uint32_t page_shift = floorLog2(page_bytes);
    std::uint32_t index_bits = page_shift - 3; // 8-byte PTEs
    std::uint32_t va_bits = 48;
    std::uint32_t vpn_bits = va_bits - page_shift;
    return static_cast<std::uint32_t>(ceilDiv(vpn_bits, index_bits));
}

PageAllocator::PageAllocator(Addr phys_base, std::uint64_t phys_bytes,
                             std::uint64_t page_bytes)
    : physBase_(phys_base), pageBytes_(page_bytes)
{
    if (!isPowerOfTwo(page_bytes) || page_bytes < 4096)
        fatal("page size must be a power of two >= 4 KB, got ", page_bytes);
    if (phys_bytes < page_bytes)
        fatal("physical pool smaller than one page");
    if (phys_base % page_bytes != 0)
        fatal("physical base must be page aligned");
    pageShift_ = floorLog2(page_bytes);
    totalFrames_ = phys_bytes / page_bytes;
}

void
PageAllocator::exhausted() const
{
    fatal("physical memory exhausted after ", nextFrame_, " frames");
}

PageAllocator::AddressSpace *
PageAllocator::findOrAddSpace(Asid asid)
{
    lastSpace_ = &findOrAddAsid(spaces_, asid);
    return lastSpace_;
}

const PageAllocator::AddressSpace *
PageAllocator::findSpace(Asid asid) const
{
    for (const auto &space : spaces_) {
        if (space->asid == asid)
            return space.get();
    }
    return nullptr;
}

PageAllocator::Block &
PageAllocator::findOrAddBlock(AddressSpace &space, Addr number)
{
    std::unique_ptr<Block> *slot;
    if (number < kDenseBlocks) {
        if (space.dense.size() <= number)
            space.dense.resize(static_cast<std::size_t>(number) + 1);
        slot = &space.dense[static_cast<std::size_t>(number)];
    } else {
        slot = &space.sparse[number];
    }
    if (!*slot) {
        *slot = std::make_unique<Block>();
        (*slot)->fill(kAddrInvalid);
    }
    return **slot;
}

bool
PageAllocator::isMapped(Asid asid, Addr vaddr) const
{
    const AddressSpace *space = findSpace(asid);
    if (space == nullptr)
        return false;
    const Addr page = vpn(vaddr);
    const Addr number = page >> kBlockShift;
    const Block *block = nullptr;
    if (number < space->dense.size()) {
        block = space->dense[static_cast<std::size_t>(number)].get();
    } else {
        auto it = space->sparse.find(number);
        if (it != space->sparse.end())
            block = it->second.get();
    }
    return block != nullptr &&
           (*block)[page & (kBlockPages - 1)] != kAddrInvalid;
}

PageTableModel::PageTableModel(PageAllocator &allocator)
    : allocator_(allocator),
      levels_(walkLevelsForPageSize(allocator.pageBytes())),
      indexBits_(floorLog2(allocator.pageBytes()) - 3)
{
    mnpu_assert(levels_ <= kMaxLevels, "radix deeper than kMaxLevels");
}

PageTableModel::AsidNodes &
PageTableModel::findOrAddNodes(Asid asid)
{
    return findOrAddAsid(nodes_, asid);
}

Addr &
PageTableModel::nodeSlot(NodeLevel &level, Addr prefix)
{
    if (prefix >= kDenseNodes)
        return level.sparse.try_emplace(prefix, kAddrInvalid).first->second;
    if (level.dense.size() <= prefix)
        level.dense.resize(static_cast<std::size_t>(prefix) + 1,
                           kAddrInvalid);
    return level.dense[static_cast<std::size_t>(prefix)];
}

Addr
PageTableModel::nodeFrame(NodeLevel &level, Addr prefix)
{
    Addr &frame = nodeSlot(level, prefix);
    if (frame == kAddrInvalid) {
        frame = allocator_.allocFrame();
        ++nodeCount_;
    }
    return frame;
}

void
PageTableModel::buildPath(AsidNodes &nodes, Addr vpn, Path *path)
{
    const std::uint64_t index_mask = (1ULL << indexBits_) - 1;
    for (std::uint32_t level = 0; level < levels_; ++level) {
        const Addr node =
            nodeFrame(nodes.levels[level], prefixAt(vpn, level));
        if (path != nullptr) {
            const std::uint32_t entry_shift =
                (levels_ - 1 - level) * indexBits_;
            (*path)[level] = node + ((vpn >> entry_shift) & index_mask) * 8;
        }
    }
}

std::uint32_t
PageTableModel::walk(Asid asid, Addr vaddr, Path &path)
{
    buildPath(nodesFor(asid), allocator_.vpn(vaddr), &path);
    return levels_;
}

std::vector<Addr>
PageTableModel::walkPath(Asid asid, Addr vaddr)
{
    Path path;
    const std::uint32_t depth = walk(asid, vaddr, path);
    return std::vector<Addr>(path.begin(), path.begin() + depth);
}

// Not one visitState walk: save enumerates blocks, load re-inserts pages.
void
PageAllocator::saveState(StateWriter &out) const
{
    out.section("PALC");
    out.u64(pageBytes_);
    out.u64(nextFrame_);
    // Ascending (asid << 48 | vpn): spaces by asid, then the dense
    // directory, then the sparse blocks (all numbered above it).
    auto for_each_page = [this](auto &&visit) {
        for (const auto &space : spaces_) {
            const std::uint64_t high =
                static_cast<std::uint64_t>(space->asid) << 48;
            auto visit_block = [&](Addr number, const Block &block) {
                for (std::uint64_t i = 0; i < kBlockPages; ++i) {
                    if (block[i] != kAddrInvalid)
                        visit(high | ((number << kBlockShift) | i),
                              block[i]);
                }
            };
            for (std::size_t number = 0; number < space->dense.size();
                 ++number) {
                if (space->dense[number])
                    visit_block(number, *space->dense[number]);
            }
            for (const auto &[number, block] : space->sparse)
                visit_block(number, *block);
        }
    };
    std::uint64_t pages = 0;
    for_each_page([&pages](std::uint64_t, Addr) { ++pages; });
    out.u64(pages);
    for_each_page([&out](std::uint64_t frame_key, Addr frame) {
        out.u64(frame_key);
        out.u64(frame);
    });
}

void
PageAllocator::loadState(StateReader &in)
{
    in.section("PALC");
    in.expect(pageBytes_, "page allocator page-size mismatch");
    nextFrame_ = in.u64();
    in.check(nextFrame_ <= totalFrames_,
             "page allocator frame count out of range");
    std::uint64_t n = in.u64();
    spaces_.clear();
    lastSpace_ = nullptr;
    constexpr std::uint64_t vpn_mask = (1ULL << 48) - 1;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t frame_key = in.u64();
        frameSlot(static_cast<Asid>(frame_key >> 48),
                  frame_key & vpn_mask) = in.u64();
    }
}

// Not one visitState walk: save enumerates nodes, load re-inserts them.
void
PageTableModel::saveState(StateWriter &out) const
{
    out.section("PTBL");
    out.u32(levels_);
    out.u64(nodeCount_);
    for (const auto &nodes : nodes_) {
        for (std::uint32_t level = 0; level < levels_; ++level) {
            const NodeLevel &table = nodes->levels[level];
            auto put = [&](Addr prefix, Addr frame) {
                out.u32(nodes->asid);
                out.u32(level);
                out.u64(prefix);
                out.u64(frame);
            };
            for (std::size_t prefix = 0; prefix < table.dense.size();
                 ++prefix) {
                if (table.dense[prefix] != kAddrInvalid)
                    put(prefix, table.dense[prefix]);
            }
            for (const auto &[prefix, frame] : table.sparse) {
                if (frame != kAddrInvalid)
                    put(prefix, frame);
            }
        }
    }
}

void
PageTableModel::loadState(StateReader &in)
{
    in.section("PTBL");
    in.expect(levels_, "page table radix depth mismatch");
    const std::uint64_t n = in.u64();
    nodes_.clear();
    lastNodes_ = nullptr;
    nodeCount_ = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Asid asid = in.u32();
        const std::uint32_t level = in.u32();
        const Addr prefix = in.u64();
        const Addr frame = in.u64();
        in.check(level < levels_, "page table node level out of range");
        nodeSlot(nodesFor(asid).levels[level], prefix) = frame;
        ++nodeCount_;
    }
}

} // namespace mnpu

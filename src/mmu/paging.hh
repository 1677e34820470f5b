/**
 * @file
 * Virtual-memory backing for the simulated NPUs: a physical frame
 * allocator and a lazily-built radix page-table model.
 *
 * The simulator never stores data; translation exists to model *timing*.
 * The allocator assigns distinct physical frames on first touch (so
 * co-running workloads occupy distinct banks/rows), and the page-table
 * model yields the physical addresses a walker must read at each level,
 * giving page-table walks realistic DRAM locality.
 *
 * Walk depth follows the page size: with page-sized table nodes holding
 * 8-byte entries, levels = ceil((48 - log2(page)) / log2(page/8)), which
 * reproduces the paper's §4.5 setup: 4 KB -> 4 levels, 64 KB -> 3,
 * 1 MB -> 2.
 *
 * Both structures sit on the per-page hot path of every fidelity, so
 * neither hashes per page:
 *  - The allocator keeps, per ASID, a table of 512-page blocks
 *    (vpn >> 9 picks the block, the slot holds the frame) and caches
 *    the block it touched last. A dense, sequential stream — the shape
 *    TraceGenerator's bump-allocated tensors give every tile — costs
 *    one array index per page. Blocks, not extents (VA run -> frame
 *    run): frames are handed out in global touch order, and exact
 *    mode interleaves co-running cores page by page (with page-table
 *    nodes in between), which would cut every extent to length 1.
 *  - The page table keeps, per ASID and radix level, the same kind of
 *    directory from node prefix to node frame. A walk is one array
 *    index per level and builds no path vector (walkDepth / walk);
 *    a page under an already-built leaf node costs one index in all.
 * Both directories cover at least the first 2^24 pages of each ASID;
 * sparse VAs above that fall back to ordered maps.
 *
 * Frame numbers, node placement and snapshot bytes must equal those of
 * plain (asid, vpn) -> frame and (asid, level, prefix) -> node hash
 * maps; tests/test_paging_differential.cc keeps such maps as the
 * reference.
 */

#ifndef MNPU_MMU_PAGING_HH
#define MNPU_MMU_PAGING_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace mnpu
{

/** Number of radix levels for a given page size (48-bit VA). */
std::uint32_t walkLevelsForPageSize(std::uint64_t page_bytes);

/**
 * First-touch physical frame allocator shared by all address spaces.
 * Frames are handed out in touch order from a single pool, so pages from
 * co-running workloads interleave in physical memory.
 */
class PageAllocator
{
  public:
    /**
     * @param phys_base   first usable physical address
     * @param phys_bytes  pool size; fatal() on exhaustion
     * @param page_bytes  page/frame size (power of two, >= 4 KB)
     */
    PageAllocator(Addr phys_base, std::uint64_t phys_bytes,
                  std::uint64_t page_bytes);

    /** Translate, allocating a frame on first touch. */
    Addr translate(Asid asid, Addr vaddr)
    {
        Addr &frame = frameSlot(asid, vaddr >> pageShift_);
        if (frame == kAddrInvalid)
            frame = allocFrame();
        return frame + (vaddr & (pageBytes_ - 1));
    }

    /** @return true if the page holding @p vaddr is already mapped. */
    bool isMapped(Asid asid, Addr vaddr) const;

    /** Allocate a raw frame (used for page-table nodes). */
    Addr allocFrame()
    {
        if (nextFrame_ >= totalFrames_)
            exhausted();
        return physBase_ + (nextFrame_++) * pageBytes_;
    }

    std::uint64_t pageBytes() const { return pageBytes_; }
    std::uint64_t framesAllocated() const { return nextFrame_; }
    std::uint64_t framesAvailable() const
    {
        return totalFrames_ - nextFrame_;
    }

    /** Virtual page number of @p vaddr. */
    Addr vpn(Addr vaddr) const { return vaddr >> pageShift_; }

    /**
     * Snapshot the full mapping. Frames are handed out in touch
     * order, so restoring the map and the bump pointer reproduces the
     * exact physical placement of every mapped page — the property
     * bit-identical DRAM behavior after restore depends on. Pages are
     * written as ((asid << 48) | vpn, frame) pairs in ascending key
     * order, which is the block tables' natural walk order.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    /** Pages per block of the per-ASID frame table. */
    static constexpr std::uint32_t kBlockShift = 9;
    static constexpr std::uint64_t kBlockPages = 1ULL << kBlockShift;
    using Block = std::array<Addr, kBlockPages>; //!< kAddrInvalid = unmapped

    /**
     * One ASID's frame table. Blocks below kDenseBlocks sit in a
     * directory indexed by block number (bump-allocated VAs start at
     * 0); sparse high VAs fall back to an ordered map.
     */
    struct AddressSpace
    {
        Asid asid = 0;
        std::vector<std::unique_ptr<Block>> dense;
        std::map<Addr, std::unique_ptr<Block>> sparse;
        Addr lastBlockNumber = kAddrInvalid;
        Block *lastBlock = nullptr;
    };

    /** Directory cap: 2^15 blocks = 2^24 pages per ASID. */
    static constexpr Addr kDenseBlocks = 1ULL << 15;

    Addr &frameSlot(Asid asid, Addr vpn)
    {
        AddressSpace *space = lastSpace_;
        if (space == nullptr || space->asid != asid)
            space = findOrAddSpace(asid);
        const Addr number = vpn >> kBlockShift;
        if (number != space->lastBlockNumber) {
            space->lastBlock = &findOrAddBlock(*space, number);
            space->lastBlockNumber = number;
        }
        return (*space->lastBlock)[vpn & (kBlockPages - 1)];
    }

    AddressSpace *findOrAddSpace(Asid asid);
    const AddressSpace *findSpace(Asid asid) const;
    static Block &findOrAddBlock(AddressSpace &space, Addr number);
    [[noreturn]] void exhausted() const;

    Addr physBase_;
    std::uint64_t pageBytes_;
    std::uint32_t pageShift_;
    std::uint64_t totalFrames_;
    std::uint64_t nextFrame_ = 0;
    std::vector<std::unique_ptr<AddressSpace>> spaces_; //!< by ascending asid
    AddressSpace *lastSpace_ = nullptr;
};

/**
 * Radix page-table model: returns the per-level PTE physical addresses a
 * walker reads for a given virtual address. Table nodes are page-sized
 * and allocated lazily from the same PageAllocator pool.
 */
class PageTableModel
{
  public:
    /** Deepest radix any supported page size needs (4 KB pages). */
    static constexpr std::uint32_t kMaxLevels = 4;
    /** PTE addresses of one walk, root first; levels() are valid. */
    using Path = std::array<Addr, kMaxLevels>;

    explicit PageTableModel(PageAllocator &allocator);

    /** Radix depth for this allocator's page size. */
    std::uint32_t levels() const { return levels_; }

    /**
     * Fill @p path with the physical addresses of the PTEs read while
     * walking @p vaddr, root first. Allocates missing nodes, root
     * first. @return levels().
     */
    std::uint32_t walk(Asid asid, Addr vaddr, Path &path);

    /**
     * Walk @p vaddr for its side effect only — first-touch node
     * allocation — and return its depth (levels()). A page under an
     * already-built leaf node costs one directory index: nodes are
     * allocated root first, so its ancestors exist too.
     */
    std::uint32_t walkDepth(Asid asid, Addr vaddr)
    {
        const Addr vpn = allocator_.vpn(vaddr);
        AsidNodes &nodes = nodesFor(asid);
        const Addr leaf = prefixAt(vpn, levels_ - 1);
        const std::vector<Addr> &dense = nodes.levels[levels_ - 1].dense;
        if (leaf >= dense.size() || dense[leaf] == kAddrInvalid)
            buildPath(nodes, vpn, nullptr);
        return levels_;
    }

    /** walk() as a vector (tests and tools). */
    std::vector<Addr> walkPath(Asid asid, Addr vaddr);

    /** Interior + root nodes allocated so far (all ASIDs). */
    std::uint64_t nodesAllocated() const { return nodeCount_; }

    /**
     * Snapshot the nodes as (asid, level, prefix, frame) tuples in
     * ascending key order — the directories' natural walk order.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    /**
     * One radix level of one ASID: node prefix -> node frame. A
     * directory below kDenseNodes, an ordered map for the sparse
     * prefixes above it; kAddrInvalid = not built.
     */
    struct NodeLevel
    {
        std::vector<Addr> dense;
        std::map<Addr, Addr> sparse;
    };
    struct AsidNodes
    {
        Asid asid = 0;
        std::array<NodeLevel, kMaxLevels> levels;
    };

    /** Directory cap per level: leaf prefixes of 2^24 pages. */
    static constexpr Addr kDenseNodes = 1ULL << 15;

    /** Node prefix of @p vpn at @p level (bits above its index). */
    Addr prefixAt(Addr vpn, std::uint32_t level) const
    {
        const std::uint32_t below = (levels_ - level) * indexBits_;
        return below >= 64 ? 0 : (vpn >> below);
    }

    AsidNodes &nodesFor(Asid asid)
    {
        if (lastNodes_ == nullptr || lastNodes_->asid != asid)
            lastNodes_ = &findOrAddNodes(asid);
        return *lastNodes_;
    }

    AsidNodes &findOrAddNodes(Asid asid);
    /** @p prefix's entry in @p level; kAddrInvalid until built. */
    static Addr &nodeSlot(NodeLevel &level, Addr prefix);
    /** Node frame for @p prefix in @p level, allocated if missing. */
    Addr nodeFrame(NodeLevel &level, Addr prefix);
    /** Walk @p vpn root first, allocating; PTE addresses into @p path. */
    void buildPath(AsidNodes &nodes, Addr vpn, Path *path);

    PageAllocator &allocator_;
    std::uint32_t levels_;
    std::uint32_t indexBits_;
    std::uint64_t nodeCount_ = 0;
    std::vector<std::unique_ptr<AsidNodes>> nodes_; //!< by ascending asid
    AsidNodes *lastNodes_ = nullptr;
};

} // namespace mnpu

#endif // MNPU_MMU_PAGING_HH

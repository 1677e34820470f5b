/**
 * @file
 * Durable in-flight simulation snapshots (DESIGN.md §12).
 *
 * A snapshot is a versioned, checksummed binary image of the full
 * mutable state of a running MultiCoreSystem, written periodically
 * (`--snapshot-every`) and on the first SIGINT/SIGTERM so that a
 * killed, crashed, or preempted run can resume from its latest
 * snapshot instead of from cycle zero — bit-identically: a restored
 * run must produce byte-identical checkpoint-v2 telemetry and an
 * identical DRAM command-stream hash versus the uninterrupted run.
 *
 * This header owns the three layers every component shares:
 *
 *  - StateWriter / StateReader: a little-endian byte-stream codec.
 *    Doubles travel as raw IEEE-754 bit patterns (bit-exact round
 *    trip); every read is bounds-checked and throws SnapshotError on
 *    underflow, so a truncated or hostile payload can never walk the
 *    loader out of bounds. Section tags (4 ASCII bytes) delimit each
 *    component's state and turn "loader drifted out of sync" into a
 *    precise error instead of garbage state.
 *
 *    Both classes share one verb set that takes references, so a
 *    component lists its state fields once, in a
 *    `template <class Self, class Io> static void visitState(Self &,
 *    Io &)` that `saveState() const` and `loadState()` both call. The
 *    writer only reads each argument (const references or values); the
 *    reader assigns it. The shared verbs:
 *      u8 b u32 u64 i64 d str u64Vec section -- one wire value each;
 *      e8(enum) / op(MemOp) -- an enum as one byte;
 *      state(part)         -- a sub-component's saveState/loadState;
 *      expect(v, what)     -- geometry (bool, u32 or u64) the loader
 *                             requires to match the live value;
 *      fixedU64Vec(v, what) -- a u64 vector whose length must match;
 *      check(ok, what)     -- a load-only range check (no-op on save);
 *      count(n) / resize(c, n) -- a length prefix, and a resize the
 *                             loader applies and the writer skips;
 *      seq(items, each)    -- a length-prefixed sequence;
 *      sortedMap(map, each) -- a hash map keyed by u64, in ascending
 *                             key order so the bytes are deterministic.
 *    Every loader-side failure throws SnapshotError naming the field.
 *
 *  - The file format: magic "MNPUSNAP", a format version, the payload
 *    length, and an FNV-1a checksum over the payload. Loading rejects
 *    a bad magic, an unknown version, a short file, or a checksum
 *    mismatch by returning "no snapshot" (with a warning) — never by
 *    aborting. A rejected snapshot simply means a from-scratch run.
 *
 *  - SnapshotPolicy: where and how often a run snapshots, threaded
 *    through RunBudget so every entry point (CLI, benches, the sweep
 *    runner's thread and process workers) shares one implementation.
 *
 * Snapshot writes are passive: they serialize via const reads only,
 * so a run that writes snapshots stays bit-identical to one that
 * does not (enforced by the snapshot tests).
 */

#ifndef MNPU_COMMON_SNAPSHOT_HH
#define MNPU_COMMON_SNAPSHOT_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mnpu
{

/**
 * A malformed, truncated, or structurally mismatched snapshot
 * payload. Always contained: loaders catch it, discard the snapshot,
 * and fall back to a from-scratch run.
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Current snapshot file format version (see DESIGN.md §12). v2 added
 * the MMU's per-core attribution counters; v3 added the per-request
 * memory-region byte (tiered routing) to every serialized DramRequest
 * plus the PCM/XBar backend sections. Older-version snapshots are
 * rejected and their runs restart from scratch (the documented
 * contract) — as are same-version snapshots whose config fingerprint
 * (which now covers the backend kind and fabric knobs) differs.
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/** FNV-1a over a byte range; the snapshot payload checksum. */
std::uint64_t snapshotChecksum(const void *data, std::size_t size);

/** Little-endian serializer for snapshot payloads (append-only). */
class StateWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Raw IEEE-754 bit pattern: the round trip is bit-exact. */
    void d(double v);
    void str(const std::string &s);

    /** Write a 4-byte section tag delimiting one component's state. */
    void section(const char (&tag)[5]);

    void u64Vec(const std::vector<std::uint64_t> &v);

    // --- Shared verbs (see the file comment); StateReader mirrors each.
    template <class E> void e8(E v) { u8(static_cast<std::uint8_t>(v)); }
    void op(MemOp v) { u8(v == MemOp::Write ? 1 : 0); }
    template <class T> void state(const T &part) { part.saveState(*this); }
    void expect(bool v, const char *) { b(v); }
    void expect(std::uint32_t v, const char *) { u32(v); }
    void expect(std::uint64_t v, const char *) { u64(v); }
    void
    fixedU64Vec(const std::vector<std::uint64_t> &v, const char *)
    {
        u64Vec(v);
    }
    void check(bool, const char *) {}
    std::uint64_t
    count(std::uint64_t n)
    {
        u64(n);
        return n;
    }
    template <class C> void resize(const C &, std::uint64_t) {}

    template <class Seq, class Fn>
    void
    seq(const Seq &items, Fn &&each)
    {
        count(items.size());
        for (const auto &item : items)
            each(item);
    }

    template <class Map, class Fn>
    void
    sortedMap(const Map &map, Fn &&each)
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(map.size());
        for (const auto &entry : map)
            keys.push_back(entry.first);
        std::sort(keys.begin(), keys.end());
        count(keys.size());
        for (std::uint64_t key : keys) {
            u64(key);
            each(map.at(key));
        }
    }

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

/** Bounds-checked little-endian deserializer; throws SnapshotError. */
class StateReader
{
  public:
    explicit StateReader(std::string payload) : bytes_(std::move(payload)) {}

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double d();
    std::string str();

    /** Read and verify a section tag; mismatch throws SnapshotError. */
    void section(const char (&tag)[5]);

    std::vector<std::uint64_t> u64Vec();

    // --- Shared verbs (see the file comment): each assigns its argument.
    template <class T> void u8(T &v) { v = static_cast<T>(u8()); }
    void b(bool &v) { v = b(); }
    template <class T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <class T> void u64(T &v) { v = static_cast<T>(u64()); }
    void i64(std::int64_t &v) { v = i64(); }
    void d(double &v) { v = d(); }
    void str(std::string &v) { v = str(); }
    void u64Vec(std::vector<std::uint64_t> &v) { v = u64Vec(); }
    template <class E> void e8(E &v) { v = static_cast<E>(u8()); }
    void op(MemOp &v) { v = u8() != 0 ? MemOp::Write : MemOp::Read; }
    template <class T> void state(T &part) { part.loadState(*this); }
    void expect(bool v, const char *what) { check(b() == v, what); }
    void
    expect(std::uint32_t v, const char *what)
    {
        check(u32() == v, what);
    }
    void expect(std::uint64_t v, const char *what) { check(u64() == v, what); }
    void fixedU64Vec(std::vector<std::uint64_t> &v, const char *what);
    void
    check(bool ok, const char *what)
    {
        if (!ok)
            throw SnapshotError(what);
    }
    /**
     * A length prefix. Every counted item takes at least one payload
     * byte, so a count beyond the bytes left is rejected before any
     * container grows to it.
     */
    std::uint64_t count();
    template <class T>
    std::uint64_t
    count(T &n)
    {
        const std::uint64_t value = count();
        n = static_cast<T>(value);
        return value;
    }
    template <class C>
    void
    resize(C &c, std::uint64_t n)
    {
        c.resize(static_cast<std::size_t>(n));
    }

    template <class Seq, class Fn>
    void
    seq(Seq &items, Fn &&each)
    {
        resize(items, count());
        for (auto &item : items)
            each(item);
    }

    template <class Map, class Fn>
    void
    sortedMap(Map &map, Fn &&each)
    {
        const std::uint64_t n = count();
        map.clear();
        map.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            each(map[u64()]);
    }

    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    const char *take(std::size_t n);

    std::string bytes_;
    std::size_t pos_ = 0;
};

/**
 * Persist @p payload to @p path with the snapshot header, atomically:
 * write `<path>.tmp`, fsync, rename over @p path. The tmp path is
 * registered with the stop-signal force-exit cleanup hook for the
 * duration of the write, so a second SIGINT mid-write unlinks the
 * partial tmp instead of leaving it behind (rename itself is atomic,
 * so a half-renamed snapshot can never be observed). Returns false
 * (with a warning) on I/O failure; a run never dies for its snapshot.
 */
bool writeSnapshotFile(const std::string &path, const std::string &payload);

/**
 * Load and validate a snapshot file. Returns the payload, or
 * std::nullopt when the file is missing, short, has a bad magic, an
 * unknown format version, or a checksum mismatch. Every rejection of
 * an *existing* file warns with the reason; none ever aborts —
 * unknown-version and corrupt snapshots mean "run from scratch".
 */
std::optional<std::string> readSnapshotFile(const std::string &path);

/**
 * Fault-drill helper (`snapshot-corrupt`): flip one byte inside the
 * payload region of the snapshot at @p path, at rest. The next
 * readSnapshotFile must reject it by checksum. Returns false if the
 * file cannot be rewritten.
 */
bool corruptSnapshotAtRest(const std::string &path);

/**
 * Where and how often a run writes snapshots. Threaded through
 * RunBudget; an empty path disables snapshotting entirely. The
 * cadence knobs are durability policy, not simulated behavior: they
 * are deliberately excluded from sweepJobKey and cannot change
 * simulation results (snapshot writes are passive).
 */
struct SnapshotPolicy
{
    /** Snapshot file; `<path>.tmp` is used for the atomic write. */
    std::string path;
    /** Write a snapshot every this many global cycles (0 = off). */
    Cycle everyCycles = 0;
    /** Write a snapshot every this many wall seconds (0 = off). */
    double everySeconds = 0;
    /** Also snapshot when a stop token cancels the run (first ^C). */
    bool onCancel = true;
    /** Remove the snapshot once the run completes successfully. */
    bool removeOnSuccess = true;

    // --- Fault-drill knobs (process-isolated workers only). ---
    /** Corrupt the Nth written snapshot at rest, then SIGKILL. */
    std::uint64_t corruptNth = 0;
    /** SIGKILL the process right after the Nth snapshot persists. */
    std::uint64_t killNth = 0;

    bool enabled() const { return !path.empty(); }
};

} // namespace mnpu

#endif // MNPU_COMMON_SNAPSHOT_HH

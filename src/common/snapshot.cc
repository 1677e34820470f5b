#include "common/snapshot.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/stop_signal.hh"

namespace mnpu
{

namespace
{

/** 8-byte file magic; also catches endianness/format confusion. */
constexpr char kSnapshotMagic[8] = {'M', 'N', 'P', 'U',
                                    'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes =
    sizeof(kSnapshotMagic) + sizeof(std::uint32_t) +
    2 * sizeof(std::uint64_t);

void
putLe32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putLe64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t
getLe32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
getLe64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/** Flush + fsync a directory so the rename itself is durable. */
void
fsyncParentDir(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path.substr(0, slash == 0 ? 1 : slash);
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0)
        return; // durability best-effort; the data file was fsynced
    ::fsync(fd);
    ::close(fd);
}

} // namespace

std::uint64_t
snapshotChecksum(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

void
StateWriter::u32(std::uint32_t v)
{
    putLe32(bytes_, v);
}

void
StateWriter::u64(std::uint64_t v)
{
    putLe64(bytes_, v);
}

void
StateWriter::d(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
StateWriter::str(const std::string &s)
{
    u64(s.size());
    bytes_.append(s);
}

void
StateWriter::section(const char (&tag)[5])
{
    bytes_.append(tag, 4);
}

void
StateWriter::u64Vec(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (std::uint64_t x : v)
        u64(x);
}

const char *
StateReader::take(std::size_t n)
{
    if (n > bytes_.size() - pos_)
        throw SnapshotError("snapshot payload truncated");
    const char *p = bytes_.data() + pos_;
    pos_ += n;
    return p;
}

std::uint8_t
StateReader::u8()
{
    return static_cast<std::uint8_t>(
        static_cast<unsigned char>(*take(1)));
}

std::uint32_t
StateReader::u32()
{
    return getLe32(take(4));
}

std::uint64_t
StateReader::u64()
{
    return getLe64(take(8));
}

double
StateReader::d()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
StateReader::str()
{
    std::uint64_t n = u64();
    if (n > bytes_.size() - pos_)
        throw SnapshotError("snapshot string truncated");
    return std::string(take(static_cast<std::size_t>(n)),
                       static_cast<std::size_t>(n));
}

void
StateReader::section(const char (&tag)[5])
{
    const char *p = take(4);
    if (std::memcmp(p, tag, 4) != 0) {
        throw SnapshotError(std::string("snapshot section mismatch: "
                                        "expected '") +
                            tag + "', found '" + std::string(p, 4) + "'");
    }
}

std::uint64_t
StateReader::count()
{
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_)
        throw SnapshotError("snapshot vector truncated");
    return n;
}

void
StateReader::fixedU64Vec(std::vector<std::uint64_t> &v, const char *what)
{
    std::vector<std::uint64_t> read = u64Vec();
    if (read.size() != v.size())
        throw SnapshotError(what);
    v = std::move(read);
}

std::vector<std::uint64_t>
StateReader::u64Vec()
{
    std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / 8)
        throw SnapshotError("snapshot vector truncated");
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u64());
    return v;
}

bool
writeSnapshotFile(const std::string &path, const std::string &payload)
{
    std::string blob;
    blob.reserve(kHeaderBytes + payload.size());
    blob.append(kSnapshotMagic, sizeof(kSnapshotMagic));
    putLe32(blob, kSnapshotFormatVersion);
    putLe64(blob, payload.size());
    putLe64(blob, snapshotChecksum(payload.data(), payload.size()));
    blob.append(payload);

    const std::string tmp = path + ".tmp";
    // A stale tmp from an earlier hard kill must not survive the new
    // write's failure paths either; start clean.
    ::unlink(tmp.c_str());
    // Arm cleanup *before* creating the file: once armed, any force
    // exit between here and the rename unlinks the partial tmp.
    setForceExitCleanupPath(tmp.c_str());
    bool ok = false;
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f) {
        ok = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
        ok = std::fflush(f) == 0 && ok;
        ok = ::fsync(fileno(f)) == 0 && ok;
        ok = std::fclose(f) == 0 && ok;
    }
    if (ok && std::rename(tmp.c_str(), path.c_str()) != 0)
        ok = false;
    if (!ok) {
        int saved = errno;
        ::unlink(tmp.c_str());
        clearForceExitCleanupPath();
        warn("snapshot write to ", path,
             " failed: ", std::strerror(saved),
             "; continuing without a snapshot");
        return false;
    }
    clearForceExitCleanupPath();
    fsyncParentDir(path);
    return true;
}

std::optional<std::string>
readSnapshotFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return std::nullopt; // no snapshot: the normal from-scratch case

    std::string blob;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        blob.append(buf, got);
    bool read_ok = std::ferror(f) == 0;
    std::fclose(f);

    const char *why = nullptr;
    if (!read_ok) {
        why = "read error";
    } else if (blob.size() < kHeaderBytes) {
        why = "file shorter than the snapshot header";
    } else if (std::memcmp(blob.data(), kSnapshotMagic,
                           sizeof(kSnapshotMagic)) != 0) {
        why = "bad magic";
    } else {
        const char *p = blob.data() + sizeof(kSnapshotMagic);
        std::uint32_t version = getLe32(p);
        std::uint64_t size = getLe64(p + 4);
        std::uint64_t checksum = getLe64(p + 12);
        if (version != kSnapshotFormatVersion) {
            // Version policy (DESIGN.md §12): unknown version means a
            // snapshot from a different build generation — discard and
            // run from scratch, never attempt a cross-version load.
            why = "unknown format version";
        } else if (blob.size() - kHeaderBytes != size) {
            why = "payload length mismatch";
        } else if (snapshotChecksum(blob.data() + kHeaderBytes, size) !=
                   checksum) {
            why = "checksum mismatch";
        }
    }
    if (why) {
        warn("discarding snapshot ", path, ": ", why,
             "; running from scratch");
        return std::nullopt;
    }
    return blob.substr(kHeaderBytes);
}

bool
corruptSnapshotAtRest(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return false;
    // Flip one bit in the first payload byte: past the header, so the
    // magic and length stay plausible and only the checksum can catch
    // it — exactly the at-rest corruption the drill wants to prove
    // detectable.
    bool ok = std::fseek(f, static_cast<long>(kHeaderBytes), SEEK_SET) == 0;
    int c = ok ? std::fgetc(f) : EOF;
    ok = ok && c != EOF;
    ok = ok &&
         std::fseek(f, static_cast<long>(kHeaderBytes), SEEK_SET) == 0;
    ok = ok && std::fputc((c ^ 0x01) & 0xff, f) != EOF;
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace mnpu

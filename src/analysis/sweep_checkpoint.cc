#include "analysis/sweep_checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>

#include <fcntl.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace mnpu
{

const char *
toString(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok:
        return "ok";
      case SweepStatus::Failed:
        return "failed";
      case SweepStatus::TimedOut:
        return "timed_out";
      case SweepStatus::Skipped:
        return "skipped";
      case SweepStatus::Crashed:
        return "crashed";
    }
    return "?";
}

namespace
{

bool
statusFromString(const std::string &text, SweepStatus &status)
{
    for (SweepStatus candidate :
         {SweepStatus::Ok, SweepStatus::Failed, SweepStatus::TimedOut,
          SweepStatus::Skipped, SweepStatus::Crashed}) {
        if (text == toString(candidate)) {
            status = candidate;
            return true;
        }
    }
    return false;
}

} // namespace

std::string
toJsonLine(const SweepCheckpointRecord &record)
{
    std::string out;
    out.reserve(512);
    auto field = [&out](const char *name, const auto &value) {
        json::appendField(out, name, value);
    };
    out += "{\"key\":";
    json::appendString(out, record.key);
    field("v", record.version);
    field("status", toString(record.status));
    forEachField(field, record);
    // Serving keys only for serving records, so batch lines (and the
    // committed batch goldens) stay byte-identical.
    if (record.serving)
        forEachServingField(field, *record.serving);
    out += "}";
    return out;
}

bool
parseJsonLine(const std::string &line, SweepCheckpointRecord &record)
{
    SweepCheckpointRecord parsed;
    json::Value object;
    if (!json::parse(line, object) || !object.getField("key", parsed.key))
        return false;
    // Every other field is optional: absent keeps the default, and an
    // unknown field (a newer writer's) is never looked at, so old
    // readers stay forward-compatible. Present with the wrong type
    // rejects the line.
    bool ok = true;
    auto field = [&object, &ok](const char *name, auto &out) {
        const json::Value *value = object.find(name);
        ok = ok && (!value || value->get(out));
    };
    std::uint64_t version = 1; // records without "v" predate versioning
    std::string status = toString(SweepStatus::Ok);
    field("v", version);
    field("status", status);
    forEachField(field, parsed);
    // Any serving_* key marks a serving record, even one this reader
    // does not know.
    if (std::ranges::any_of(object.keys(), [](const std::string &name) {
            return name.starts_with("serving_");
        }))
        forEachServingField(field, parsed.serving.emplace());
    if (!ok || version > UINT32_MAX ||
        !statusFromString(status, parsed.status))
        return false;
    parsed.version = static_cast<std::uint32_t>(version);
    record = std::move(parsed);
    return true;
}

namespace
{

// Sidecars this process holds a record lock on: the kernel grants a
// process's second lock on a file it already locks, so same-process
// contention is caught here.
std::mutex g_locked_paths_mutex;
std::set<std::string> g_locked_paths;

void
forgetLockedPath(const std::string &lock_path)
{
    std::lock_guard<std::mutex> guard(g_locked_paths_mutex);
    g_locked_paths.erase(lock_path);
}

} // namespace

CheckpointLock::CheckpointLock(const std::string &checkpointPath)
    : lockPath_(checkpointPath + ".lock")
{
    auto refuse = [&](const std::string &holder) {
        fatal("checkpoint '", checkpointPath,
              "' is locked by another campaign (", holder, " holds '",
              lockPath_,
              "'); refusing to interleave records — wait for it or "
              "point --checkpoint elsewhere");
    };
    {
        std::lock_guard<std::mutex> guard(g_locked_paths_mutex);
        if (!g_locked_paths.insert(lockPath_).second)
            refuse("this process");
    }
    fd_ = ::open(lockPath_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        const int error = errno;
        forgetLockedPath(lockPath_);
        fatal("cannot create checkpoint lock '", lockPath_,
              "': ", std::strerror(error));
    }
    struct flock want = {};
    want.l_type = F_WRLCK;
    want.l_whence = SEEK_SET; // l_start = l_len = 0: the whole file
    if (::fcntl(fd_, F_SETLK, &want) != 0) {
        // This process holds no lock on the sidecar (the table above
        // says so), so closing our descriptor releases nothing.
        struct flock held = want;
        std::string holder = "unknown process";
        if (::fcntl(fd_, F_GETLK, &held) == 0 && held.l_type != F_UNLCK)
            holder = detail::concat("pid ", held.l_pid);
        ::close(fd_);
        fd_ = -1;
        forgetLockedPath(lockPath_);
        refuse(holder);
    }
    // Record our PID for people looking at the sidecar; the record
    // lock itself dies with the process, so a kill -9 leaves only
    // stale content that the next holder overwrites.
    if (::ftruncate(fd_, 0) == 0) {
        std::string pid = std::to_string(::getpid());
        pid.push_back('\n');
        (void)!::pwrite(fd_, pid.data(), pid.size(), 0);
    }
}

CheckpointLock::~CheckpointLock()
{
    if (fd_ >= 0) {
        ::close(fd_); // releases the record lock
        forgetLockedPath(lockPath_);
    }
}

SweepCheckpointWriter::SweepCheckpointWriter(const std::string &path)
    : path_(path), lock_(path)
{
    // If a crash tore the previous trailing line, appending right after
    // it would merge the next record into the garbage; start it on a
    // fresh line instead so only the torn record is lost.
    bool needs_newline = false;
    if (std::FILE *existing = std::fopen(path.c_str(), "rb")) {
        if (std::fseek(existing, -1, SEEK_END) == 0) {
            int last = std::fgetc(existing);
            needs_newline = last != EOF && last != '\n';
        }
        std::fclose(existing);
    }
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_)
        fatal("cannot open checkpoint file '", path, "' for appending");
    if (needs_newline)
        std::fputc('\n', file_);
}

SweepCheckpointWriter::~SweepCheckpointWriter()
{
    if (file_)
        std::fclose(file_);
}

void
SweepCheckpointWriter::append(const SweepCheckpointRecord &record)
{
    // Serialize outside the lock; write + flush as one critical
    // section so concurrent workers never tear a line.
    std::string line = toJsonLine(record);
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
        fatal("cannot append to checkpoint file '", path_, "'");
    }
}

std::map<std::string, SweepCheckpointRecord>
loadSweepCheckpoint(const std::string &path)
{
    std::map<std::string, SweepCheckpointRecord> records;
    std::ifstream file(path);
    if (!file)
        return records; // no checkpoint yet: nothing completed
    std::string line;
    std::size_t lineno = 0;
    std::size_t malformed = 0;
    std::size_t legacy = 0;
    while (std::getline(file, line)) {
        ++lineno;
        if (trim(line).empty())
            continue;
        SweepCheckpointRecord record;
        if (!parseJsonLine(line, record)) {
            ++malformed;
            warn("checkpoint '", path, "' line ", lineno,
                 ": malformed record skipped");
        } else if (record.status == SweepStatus::Ok &&
                   record.version < kSweepCheckpointVersion) {
            // An ok record from an older format lacks the raw
            // telemetry; restoring it would hand benches zeroed
            // counters, so leave it out and let resume re-execute.
            records.erase(record.key);
            ++legacy;
        } else {
            records[record.key] = std::move(record);
        }
    }
    if (legacy) {
        warn("checkpoint '", path, "': ", legacy,
             " completed record(s) predate the full-telemetry format (v",
             kSweepCheckpointVersion, "); re-executing their jobs");
    }
    if (malformed > 1) {
        // One torn trailing line is the expected kill signature; more
        // suggests the file is not a checkpoint at all.
        warn("checkpoint '", path, "': ", malformed,
             " malformed lines — is this really a sweep checkpoint?");
    }
    return records;
}

namespace
{

/**
 * Canonical payload for conflict detection: wallSeconds is the one
 * field expected to differ between bit-identical completions of the
 * same job, so it is zeroed before comparing.
 */
std::string
canonicalPayload(SweepCheckpointRecord record)
{
    record.wallSeconds = 0;
    return toJsonLine(record);
}

} // namespace

std::vector<SweepCheckpointRecord>
mergeSweepCheckpoints(const std::vector<std::string> &paths,
                      CheckpointMergeStats *stats)
{
    CheckpointMergeStats local;
    std::vector<SweepCheckpointRecord> merged;
    std::map<std::string, std::size_t> slotOfKey;
    for (const std::string &path : paths) {
        std::ifstream file(path);
        if (!file) {
            warn("merge: shard '", path,
                 "' is missing or unreadable; treating as empty");
            continue;
        }
        ++local.files;
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(file, line)) {
            ++lineno;
            if (trim(line).empty())
                continue;
            SweepCheckpointRecord record;
            if (!parseJsonLine(line, record)) {
                ++local.malformed;
                warn("merge: shard '", path, "' line ", lineno,
                     ": malformed record skipped");
                continue;
            }
            auto found = slotOfKey.find(record.key);
            if (found == slotOfKey.end()) {
                slotOfKey.emplace(record.key, merged.size());
                merged.push_back(std::move(record));
                continue;
            }
            SweepCheckpointRecord &held = merged[found->second];
            ++local.duplicates;
            const bool heldOk = held.status == SweepStatus::Ok;
            const bool newOk = record.status == SweepStatus::Ok;
            if (heldOk && newOk &&
                canonicalPayload(held) != canonicalPayload(record)) {
                ++local.conflicts;
                warn("merge: key ", record.key,
                     " completed ok with different payloads across "
                     "shards (shard '", path, "' line ", lineno,
                     " wins as newest) — determinism bug or "
                     "mis-partitioned campaign?");
            }
            // Ok beats non-ok; within a tier the newest record wins
            // (mirrors loadSweepCheckpoint's last-occurrence-wins).
            if (newOk || !heldOk)
                held = std::move(record);
        }
    }
    local.records = merged.size();
    if (stats)
        *stats = local;
    return merged;
}

} // namespace mnpu

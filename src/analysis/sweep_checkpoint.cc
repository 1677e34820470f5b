#include "analysis/sweep_checkpoint.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/config.hh"
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

void
appendEscaped(std::string &out, const std::string &text)
{
    out.push_back('"');
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendDouble(std::string &out, double value)
{
    // Round-trippable doubles; NaN/inf are not valid JSON, so emit
    // null and read it back as NaN (failed jobs carry NaN metrics).
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    std::ostringstream stream;
    stream.precision(17);
    stream << value;
    out += stream.str();
}

/**
 * Minimal JSON reader for the exact subset toJsonLine() emits: one
 * flat object of string keys mapping to strings, numbers, null, or
 * arrays of strings/numbers. No nested objects, no bools.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    bool ok() const { return ok_; }
    void fail() { ok_ = false; }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    char peek()
    {
        skipSpace();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool atEnd()
    {
        skipSpace();
        return pos_ >= text_.size();
    }

    std::string readString()
    {
        std::string out;
        if (!consume('"')) {
            fail();
            return out;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char esc = text_[pos_++];
                switch (esc) {
                  case '"':
                  case '\\':
                  case '/':
                    out.push_back(esc);
                    break;
                  case 'n':
                    out.push_back('\n');
                    break;
                  case 't':
                    out.push_back('\t');
                    break;
                  case 'r':
                    out.push_back('\r');
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail();
                        return out;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char digit = text_[pos_ + static_cast<std::size_t>(i)];
                        unsigned nibble;
                        if (digit >= '0' && digit <= '9')
                            nibble = static_cast<unsigned>(digit - '0');
                        else if (digit >= 'a' && digit <= 'f')
                            nibble = static_cast<unsigned>(digit - 'a') + 10;
                        else if (digit >= 'A' && digit <= 'F')
                            nibble = static_cast<unsigned>(digit - 'A') + 10;
                        else {
                            fail(); // garbage hex: reject the line
                            return out;
                        }
                        code = code << 4 | nibble;
                    }
                    pos_ += 4;
                    // The writer only emits \u00XX control codes; a
                    // larger code point would need UTF-8 encoding this
                    // reader does not do, so reject it rather than
                    // silently mangle a hand-edited file.
                    if (code > 0xff) {
                        fail();
                        return out;
                    }
                    out.push_back(static_cast<char>(code));
                    break;
                  }
                  default:
                    fail();
                    return out;
                }
            } else {
                out.push_back(c);
            }
        }
        fail(); // unterminated string
        return out;
    }

    double readNumber()
    {
        skipSpace();
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return std::nan("");
        }
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        double value = std::strtod(begin, &end);
        if (end == begin) {
            fail();
            return 0;
        }
        pos_ += static_cast<std::size_t>(end - begin);
        return value;
    }

    /**
     * Exact 64-bit integer: the writer emits cycle and byte counters
     * via std::to_string, and a double round-trip would lose precision
     * above 2^53, silently breaking bit-identical restore.
     */
    std::uint64_t readUInt64()
    {
        skipSpace();
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        errno = 0;
        unsigned long long value = std::strtoull(begin, &end, 10);
        if (end == begin || *begin == '-' || errno == ERANGE) {
            fail();
            return 0;
        }
        pos_ += static_cast<std::size_t>(end - begin);
        return value;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace

std::string
toJsonLine(const SweepCheckpointRecord &record)
{
    std::string out;
    out.reserve(512);
    auto doubleArray = [&out](const char *name,
                              const std::vector<double> &values) {
        out += ",\"";
        out += name;
        out += "\":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out.push_back(',');
            appendDouble(out, values[i]);
        }
        out += "]";
    };
    auto u64Array = [&out](const char *name,
                           const std::vector<std::uint64_t> &values) {
        out += ",\"";
        out += name;
        out += "\":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out.push_back(',');
            out += std::to_string(values[i]);
        }
        out += "]";
    };
    out += "{\"key\":";
    appendEscaped(out, record.key);
    out += ",\"v\":";
    out += std::to_string(record.version);
    out += ",\"status\":";
    appendEscaped(out, toString(record.status));
    out += ",\"error\":";
    appendEscaped(out, record.error);
    out += ",\"wall_seconds\":";
    appendDouble(out, record.wallSeconds);
    out += ",\"models\":[";
    for (std::size_t i = 0; i < record.models.size(); ++i) {
        if (i)
            out.push_back(',');
        appendEscaped(out, record.models[i]);
    }
    out += "]";
    doubleArray("speedups", record.speedups);
    doubleArray("slowdowns", record.slowdowns);
    out += ",\"geomean_speedup\":";
    appendDouble(out, record.geomeanSpeedup);
    out += ",\"fairness\":";
    appendDouble(out, record.fairnessValue);
    u64Array("local_cycles", record.localCycles);
    u64Array("finished_at_global", record.finishedAtGlobal);
    doubleArray("pe_utilization", record.peUtilization);
    u64Array("traffic_bytes", record.trafficBytes);
    u64Array("walk_bytes", record.walkBytes);
    u64Array("tlb_hits", record.tlbHits);
    u64Array("tlb_misses", record.tlbMisses);
    u64Array("walks", record.walks);
    out += ",\"layer_finish_local\":[";
    for (std::size_t i = 0; i < record.layerFinishLocal.size(); ++i) {
        if (i)
            out.push_back(',');
        out.push_back('[');
        const auto &layers = record.layerFinishLocal[i];
        for (std::size_t j = 0; j < layers.size(); ++j) {
            if (j)
                out.push_back(',');
            out += std::to_string(layers[j]);
        }
        out.push_back(']');
    }
    out += "],\"global_cycles\":";
    out += std::to_string(record.globalCycles);
    out += ",\"dram_energy_pj\":";
    appendDouble(out, record.dramEnergyPj);
    out += ",\"dram_row_hits\":";
    out += std::to_string(record.dramRowHits);
    out += ",\"dram_row_misses\":";
    out += std::to_string(record.dramRowMisses);
    if (record.serving) {
        // Flat serving_* keys — this reader's JSON subset has no
        // nested objects — emitted only for serving records so batch
        // lines (and the committed batch goldens) stay byte-identical.
        const ServingSummary &s = *record.serving;
        auto u64Field = [&out](const char *name, std::uint64_t value) {
            out += ",\"";
            out += name;
            out += "\":";
            out += std::to_string(value);
        };
        auto doubleField = [&out](const char *name, double value) {
            out += ",\"";
            out += name;
            out += "\":";
            appendDouble(out, value);
        };
        u64Field("serving_offered", s.offered);
        u64Field("serving_completed", s.completed);
        u64Field("serving_slo_good", s.sloGood);
        u64Field("serving_rounds", s.rounds);
        u64Field("serving_prefill_tokens", s.prefillTokens);
        u64Field("serving_decode_tokens", s.decodeTokens);
        u64Field("serving_kv_read_bytes", s.kvReadBytes);
        u64Field("serving_makespan_cycles", s.makespanCycles);
        doubleField("serving_ttft_p50", s.ttftP50);
        doubleField("serving_ttft_p99", s.ttftP99);
        doubleField("serving_ttft_mean", s.ttftMean);
        doubleField("serving_tpot_p50", s.tpotP50);
        doubleField("serving_tpot_p99", s.tpotP99);
        doubleField("serving_latency_p50", s.latencyP50);
        doubleField("serving_latency_p99", s.latencyP99);
        doubleField("serving_offered_per_mcycle", s.offeredPerMcycle);
        doubleField("serving_goodput_per_mcycle", s.goodputPerMcycle);
    }
    out += "}";
    return out;
}

bool
parseJsonLine(const std::string &line, SweepCheckpointRecord &record)
{
    JsonReader reader(line);
    if (!reader.consume('{'))
        return false;
    SweepCheckpointRecord parsed;
    parsed.version = 1; // records without "v" predate versioning
    auto readDoubleArray = [&reader](std::vector<double> &out) {
        if (!reader.consume('['))
            return false;
        bool first_item = true;
        while (reader.ok() && !reader.consume(']')) {
            if (!first_item && !reader.consume(','))
                return false;
            first_item = false;
            out.push_back(reader.readNumber());
        }
        return reader.ok();
    };
    auto readU64Array = [&reader](std::vector<std::uint64_t> &out) {
        if (!reader.consume('['))
            return false;
        bool first_item = true;
        while (reader.ok() && !reader.consume(']')) {
            if (!first_item && !reader.consume(','))
                return false;
            first_item = false;
            out.push_back(reader.readUInt64());
        }
        return reader.ok();
    };
    // Unknown field (newer writer): skip its value — string, number,
    // or arbitrarily nested array — so old readers stay
    // forward-compatible.
    std::function<void()> skipValue = [&reader, &skipValue]() {
        if (reader.peek() == '"') {
            reader.readString();
        } else if (reader.consume('[')) {
            bool first_item = true;
            while (reader.ok() && !reader.consume(']')) {
                if (!first_item && !reader.consume(',')) {
                    reader.fail();
                    return;
                }
                first_item = false;
                skipValue();
            }
        } else {
            reader.readNumber();
        }
    };
    bool saw_key = false;
    bool first = true;
    while (reader.ok() && !reader.consume('}')) {
        if (!first && !reader.consume(','))
            return false;
        first = false;
        std::string field = reader.readString();
        if (!reader.ok() || !reader.consume(':'))
            return false;
        if (field == "key") {
            parsed.key = reader.readString();
            saw_key = true;
        } else if (field == "v") {
            parsed.version =
                static_cast<std::uint32_t>(reader.readUInt64());
        } else if (field == "status") {
            if (!statusFromString(reader.readString(), parsed.status))
                return false;
        } else if (field == "error") {
            parsed.error = reader.readString();
        } else if (field == "wall_seconds") {
            parsed.wallSeconds = reader.readNumber();
        } else if (field == "geomean_speedup") {
            parsed.geomeanSpeedup = reader.readNumber();
        } else if (field == "fairness") {
            parsed.fairnessValue = reader.readNumber();
        } else if (field == "dram_energy_pj") {
            parsed.dramEnergyPj = reader.readNumber();
        } else if (field == "global_cycles") {
            parsed.globalCycles = reader.readUInt64();
        } else if (field == "dram_row_hits") {
            parsed.dramRowHits = reader.readUInt64();
        } else if (field == "dram_row_misses") {
            parsed.dramRowMisses = reader.readUInt64();
        } else if (field == "models") {
            if (!reader.consume('['))
                return false;
            while (reader.ok() && !reader.consume(']')) {
                if (!parsed.models.empty() && !reader.consume(','))
                    return false;
                parsed.models.push_back(reader.readString());
            }
        } else if (field == "speedups") {
            if (!readDoubleArray(parsed.speedups))
                return false;
        } else if (field == "slowdowns") {
            if (!readDoubleArray(parsed.slowdowns))
                return false;
        } else if (field == "pe_utilization") {
            if (!readDoubleArray(parsed.peUtilization))
                return false;
        } else if (field == "local_cycles") {
            if (!readU64Array(parsed.localCycles))
                return false;
        } else if (field == "finished_at_global") {
            if (!readU64Array(parsed.finishedAtGlobal))
                return false;
        } else if (field == "traffic_bytes") {
            if (!readU64Array(parsed.trafficBytes))
                return false;
        } else if (field == "walk_bytes") {
            if (!readU64Array(parsed.walkBytes))
                return false;
        } else if (field == "tlb_hits") {
            if (!readU64Array(parsed.tlbHits))
                return false;
        } else if (field == "tlb_misses") {
            if (!readU64Array(parsed.tlbMisses))
                return false;
        } else if (field == "walks") {
            if (!readU64Array(parsed.walks))
                return false;
        } else if (field.rfind("serving_", 0) == 0) {
            ServingSummary &s =
                parsed.serving ? *parsed.serving
                               : parsed.serving.emplace();
            if (field == "serving_offered")
                s.offered = reader.readUInt64();
            else if (field == "serving_completed")
                s.completed = reader.readUInt64();
            else if (field == "serving_slo_good")
                s.sloGood = reader.readUInt64();
            else if (field == "serving_rounds")
                s.rounds = reader.readUInt64();
            else if (field == "serving_prefill_tokens")
                s.prefillTokens = reader.readUInt64();
            else if (field == "serving_decode_tokens")
                s.decodeTokens = reader.readUInt64();
            else if (field == "serving_kv_read_bytes")
                s.kvReadBytes = reader.readUInt64();
            else if (field == "serving_makespan_cycles")
                s.makespanCycles = reader.readUInt64();
            else if (field == "serving_ttft_p50")
                s.ttftP50 = reader.readNumber();
            else if (field == "serving_ttft_p99")
                s.ttftP99 = reader.readNumber();
            else if (field == "serving_ttft_mean")
                s.ttftMean = reader.readNumber();
            else if (field == "serving_tpot_p50")
                s.tpotP50 = reader.readNumber();
            else if (field == "serving_tpot_p99")
                s.tpotP99 = reader.readNumber();
            else if (field == "serving_latency_p50")
                s.latencyP50 = reader.readNumber();
            else if (field == "serving_latency_p99")
                s.latencyP99 = reader.readNumber();
            else if (field == "serving_offered_per_mcycle")
                s.offeredPerMcycle = reader.readNumber();
            else if (field == "serving_goodput_per_mcycle")
                s.goodputPerMcycle = reader.readNumber();
            else
                skipValue(); // newer serving field: forward-compatible
        } else if (field == "layer_finish_local") {
            if (!reader.consume('['))
                return false;
            bool first_core = true;
            while (reader.ok() && !reader.consume(']')) {
                if (!first_core && !reader.consume(','))
                    return false;
                first_core = false;
                std::vector<std::uint64_t> layers;
                if (!readU64Array(layers))
                    return false;
                parsed.layerFinishLocal.push_back(std::move(layers));
            }
        } else {
            skipValue();
        }
    }
    if (!reader.ok() || !saw_key || !reader.atEnd())
        return false;
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
    while (std::getline(file, line)) {
        ++lineno;
        if (trim(line).empty())
            continue;
        SweepCheckpointRecord record;
        if (parseJsonLine(line, record)) {
            records[record.key] = std::move(record);
        } else {
            ++malformed;
            warn("checkpoint '", path, "' line ", lineno,
                 ": malformed record skipped");
        }
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

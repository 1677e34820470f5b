#include "analysis/process_pool.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"

namespace mnpu
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/** This worker child's scratch fd; -1 outside a worker. */
std::atomic<int> g_worker_heartbeat_fd{-1};

} // namespace

void
processPoolHeartbeat()
{
    const int fd = g_worker_heartbeat_fd.load(std::memory_order_relaxed);
    if (fd < 0)
        return;
    // Raw write (not stdio): the run loop calls this and must never
    // block on a locale-aware buffered layer; a short or failed write
    // just means one missed heartbeat.
    static const char line[] = "{\"hb\":0}\n";
    [[maybe_unused]] ssize_t wrote = ::write(fd, line, sizeof(line) - 1);
}

Setting<IsolationMode> &
isolationSetting()
{
    static Setting<IsolationMode> setting(
        "isolation mode", "MNPU_ISOLATE", IsolationMode::Thread,
        {{"thread", IsolationMode::Thread},
         {"process", IsolationMode::Process}});
    return setting;
}

const char *
toString(IsolationMode mode)
{
    return isolationSetting().toString(mode);
}

bool
builtWithSanitizer()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

namespace
{

/** Best-effort full write; the scratch file is a private tmpfile, so
 * short writes only happen on ENOSPC — then the supervisor just sees
 * a torn line and counts the attempt as a crash. */
void
writeLine(int fd, std::string line)
{
    line.push_back('\n');
    const char *data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        ssize_t wrote = ::write(fd, data, left);
        if (wrote <= 0) {
            if (wrote < 0 && errno == EINTR)
                continue;
            return;
        }
        data += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
}

void
applyWorkerLimits(const ProcessPoolOptions &options)
{
    // RLIMIT_AS is meaningless under ASan/TSan: the shadow mappings
    // alone reserve terabytes of address space, so any realistic cap
    // would kill every worker at startup.
    if (options.memoryBytes > 0 && !builtWithSanitizer()) {
        rlimit limit;
        limit.rlim_cur = static_cast<rlim_t>(options.memoryBytes);
        limit.rlim_max = static_cast<rlim_t>(options.memoryBytes);
        (void)::setrlimit(RLIMIT_AS, &limit);
    }
    if (options.cpuSeconds > 0) {
        // Soft limit delivers SIGXCPU (default: kill); the hard limit
        // two seconds later is the SIGKILL backstop in case a custom
        // handler ever swallows it.
        rlimit limit;
        limit.rlim_cur = options.cpuSeconds;
        limit.rlim_max = options.cpuSeconds + 2;
        (void)::setrlimit(RLIMIT_CPU, &limit);
    }
}

/** The forked child's entire life. Never returns; never calls exit()
 * (the forked image's static destructors must not run). */
[[noreturn]] void
runChild(std::FILE *scratch, std::size_t index, std::uint32_t attempt,
         double wallBudget, const ProcessPool::Worker &worker,
         const ProcessPoolOptions &options)
{
    // The parent's two-stage SIGINT/SIGTERM handler must not fire in
    // workers: the supervisor forwards SIGTERM to cancel them, and
    // that must kill, not set a flag the child never checks.
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    applyWorkerLimits(options);
    const int fd = ::fileno(scratch);
    g_worker_heartbeat_fd.store(fd, std::memory_order_relaxed);
    // Heartbeat: proves the harness started and the wire works. No
    // "key" field, so the record parser skips it by construction.
    writeLine(fd, std::string("{\"hb\":") + std::to_string(attempt) +
                      "}");
    try {
        SweepCheckpointRecord record = worker(index, attempt, wallBudget);
        writeLine(fd, toJsonLine(record));
    } catch (...) {
        // The worker closure is expected to contain job failures in
        // the record itself; an escaping exception is harness-level
        // and counts as a crash.
        ::_exit(81);
    }
    ::_exit(0);
}

/** Everything the supervisor read back from one attempt's scratch. */
struct ScratchResult
{
    bool sawHeartbeat = false;
    bool haveRecord = false;
    SweepCheckpointRecord record;
};

ScratchResult
readScratch(std::FILE *scratch)
{
    ScratchResult result;
    std::fflush(scratch);
    if (std::fseek(scratch, 0, SEEK_END) != 0)
        return result;
    const long size = std::ftell(scratch);
    if (size <= 0 || std::fseek(scratch, 0, SEEK_SET) != 0)
        return result;
    std::string content(static_cast<std::size_t>(size), '\0');
    if (std::fread(content.data(), 1, content.size(), scratch) !=
        content.size())
        return result;
    std::size_t begin = 0;
    while (begin < content.size()) {
        std::size_t end = content.find('\n', begin);
        if (end == std::string::npos)
            end = content.size();
        const std::string line = content.substr(begin, end - begin);
        begin = end + 1;
        if (line.rfind("{\"hb\":", 0) == 0)
            result.sawHeartbeat = true;
        SweepCheckpointRecord record;
        if (parseJsonLine(line, record)) {
            // Last parseable record wins, mirroring checkpoint load.
            result.record = std::move(record);
            result.haveRecord = true;
        }
    }
    return result;
}

std::string
describeCrash(int status, bool deadlineExceeded, double deadline,
              double wallBudget, bool sawHeartbeat)
{
    std::string what;
    if (deadlineExceeded) {
        what = detail::concat(
            "lease deadline exceeded (ran > ", deadline,
            " s against a ", wallBudget,
            " s cooperative budget); killed");
    } else if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char *name = ::strsignal(sig);
        what = detail::concat("killed by signal ", sig, " (",
                              name ? name : "?", ")");
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        what = detail::concat("exited with code ", WEXITSTATUS(status),
                              " without a result record");
    } else {
        what = "exited cleanly without a result record";
    }
    if (!sawHeartbeat)
        what += "; no heartbeat — died before the worker harness "
                "started";
    return what;
}

} // namespace

ProcessPool::ProcessPool(const ProcessPoolOptions &options)
    : options_(options)
{
    if (options_.workers == 0)
        options_.workers = 1;
}

std::vector<ProcessPool::Outcome>
ProcessPool::run(std::size_t count, const Worker &worker,
                 const Budget &budget,
                 const RetryReported &retryReported,
                 const Complete &complete)
{
    std::vector<Outcome> outcomes(count);
    if (count == 0)
        return outcomes;

    struct JobState
    {
        std::uint32_t attempt = 0; //!< attempts started so far
        SteadyClock::time_point readyAt{}; //!< backoff gate
        SteadyClock::time_point firstStart{};
        bool started = false;
    };
    struct Lease
    {
        std::size_t index = 0;
        std::uint32_t attempt = 0;
        pid_t pid = -1;
        std::FILE *scratch = nullptr;
        SteadyClock::time_point start{};
        double wallBudget = 0;
        double deadline = 0; //!< seconds; 0 = none
        long scratchSize = 0; //!< last seen size (heartbeat liveness)
    };

    std::vector<JobState> jobs(count);
    std::deque<std::size_t> queue;
    for (std::size_t index = 0; index < count; ++index)
        queue.push_back(index);
    std::vector<Lease> leases;
    leases.reserve(options_.workers);
    std::size_t finished = 0;
    bool cancelling = false;
    SteadyClock::time_point cancelledAt{};
    bool killedAfterCancel = false;

    auto finishJob = [&](std::size_t index) {
        Outcome &outcome = outcomes[index];
        outcome.wallSeconds = jobs[index].started
                                  ? secondsSince(jobs[index].firstStart)
                                  : 0;
        ++finished;
        if (complete)
            complete(index, outcome);
    };

    auto spawn = [&](std::size_t index) {
        JobState &state = jobs[index];
        if (!state.started) {
            state.started = true;
            state.firstStart = SteadyClock::now();
        }
        const std::uint32_t attempt = ++state.attempt;
        const double wallBudget =
            budget ? budget(index, attempt) : 0.0;
        std::FILE *scratch = std::tmpfile();
        if (!scratch)
            fatal("process pool: cannot create worker scratch file: ",
                  std::strerror(errno));
        // Flush stdio before forking so buffered output is not
        // duplicated into the child's exit path.
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fclose(scratch);
            fatal("process pool: fork failed: ", std::strerror(errno));
        }
        if (pid == 0)
            runChild(scratch, index, attempt, wallBudget, worker,
                     options_); // never returns
        Lease lease;
        lease.index = index;
        lease.attempt = attempt;
        lease.pid = pid;
        lease.scratch = scratch;
        lease.start = SteadyClock::now();
        lease.wallBudget = wallBudget;
        // Floor the deadline so a tiny adaptive budget cannot kill a
        // worker that is merely slow to fork and warm up.
        lease.deadline =
            wallBudget > 0
                ? std::max(options_.graceFactor * wallBudget, 1.0)
                : 0.0;
        leases.push_back(lease);
    };

    auto settleLease = [&](const Lease &lease, int status,
                           bool deadlineExceeded) {
        ScratchResult scratch = readScratch(lease.scratch);
        std::fclose(lease.scratch);
        Outcome &outcome = outcomes[lease.index];
        outcome.attempts = lease.attempt;
        if (cancelling) {
            outcome.cancelled = true;
            finishJob(lease.index);
            return;
        }
        const bool exitedClean = !deadlineExceeded && WIFEXITED(status) &&
                                 WEXITSTATUS(status) == 0;
        if (exitedClean && scratch.haveRecord) {
            if (retryReported &&
                retryReported(lease.index, lease.attempt,
                              scratch.record)) {
                // Worker-reported verdict overruled (e.g. escalating
                // an adaptive-budget timeout): re-lease immediately,
                // no backoff — the worker did not misbehave.
                queue.push_back(lease.index);
                return;
            }
            outcome.reported = true;
            outcome.record = std::move(scratch.record);
            finishJob(lease.index);
            return;
        }
        // A crash: the child died without delivering a verdict.
        ++outcome.crashes;
        outcome.crashError =
            describeCrash(status, deadlineExceeded, lease.deadline,
                          lease.wallBudget, scratch.sawHeartbeat);
        if (lease.attempt <= options_.retries) {
            const double delay = std::min(
                options_.backoffSeconds *
                    std::exp2(static_cast<double>(outcome.crashes - 1)),
                options_.backoffCapSeconds);
            jobs[lease.index].readyAt =
                SteadyClock::now() +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(delay));
            outcome.backoffSeconds += delay;
            queue.push_back(lease.index);
            return;
        }
        outcome.reported = false; // quarantined
        finishJob(lease.index);
    };

    while (finished < count) {
        // Cooperative stop: forward the signal to live workers and
        // report everything not yet finished as cancelled.
        if (!cancelling && options_.stopToken &&
            options_.stopToken->load(std::memory_order_relaxed)) {
            cancelling = true;
            cancelledAt = SteadyClock::now();
            for (const Lease &lease : leases)
                ::kill(lease.pid, SIGTERM);
            while (!queue.empty()) {
                const std::size_t index = queue.front();
                queue.pop_front();
                Outcome &outcome = outcomes[index];
                outcome.cancelled = true;
                outcome.attempts =
                    std::max<std::uint32_t>(1, jobs[index].attempt);
                finishJob(index);
            }
        }
        if (cancelling && !killedAfterCancel && !leases.empty() &&
            secondsSince(cancelledAt) > 2.0) {
            // A worker stuck in uninterruptible state outlives the
            // SIGTERM grace; escalate so cancellation stays prompt.
            killedAfterCancel = true;
            for (const Lease &lease : leases)
                ::kill(lease.pid, SIGKILL);
        }

        if (!cancelling) {
            const auto now = SteadyClock::now();
            for (auto it = queue.begin();
                 it != queue.end() && leases.size() < options_.workers;) {
                if (jobs[*it].readyAt > now) {
                    ++it; // still backing off
                    continue;
                }
                const std::size_t index = *it;
                it = queue.erase(it);
                spawn(index);
            }
        }

        for (std::size_t i = 0; i < leases.size();) {
            Lease lease = leases[i];
            int status = 0;
            const pid_t got = ::waitpid(lease.pid, &status, WNOHANG);
            if (got == lease.pid) {
                leases.erase(leases.begin() +
                             static_cast<std::ptrdiff_t>(i));
                settleLease(lease, status, false);
                continue;
            }
            if (got < 0) {
                // Reaped elsewhere (should not happen): count it as a
                // crash with an unknown cause rather than hang.
                leases.erase(leases.begin() +
                             static_cast<std::ptrdiff_t>(i));
                settleLease(lease, 0x7f, false);
                continue;
            }
            if (!cancelling && lease.deadline > 0) {
                // Heartbeat-aware lease: scratch-file growth (worker
                // heartbeats, snapshot-adjacent progress, the result
                // line) proves the worker is alive, so the lease
                // clock restarts from the last beat instead of the
                // attempt start. A worker livelocked before reaching
                // any watchdog check writes nothing and still blows
                // the deadline.
                struct stat status_buf;
                if (::fstat(::fileno(lease.scratch), &status_buf) == 0 &&
                    static_cast<long>(status_buf.st_size) >
                        lease.scratchSize) {
                    leases[i].scratchSize =
                        static_cast<long>(status_buf.st_size);
                    leases[i].start = SteadyClock::now();
                    lease = leases[i];
                }
                if (secondsSince(lease.start) > lease.deadline) {
                    ::kill(lease.pid, SIGKILL);
                    ::waitpid(lease.pid, &status, 0); // prompt
                    leases.erase(leases.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                    settleLease(lease, status, true);
                    continue;
                }
            }
            ++i;
        }

        if (finished < count)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return outcomes;
}

} // namespace mnpu

/**
 * @file
 * The run-settings module: the strict number parsers, the one
 * precedence rule (config > flag > env > built-in) checked for every
 * setting from one table, the env policy (empty = unset, malformed =
 * FatalError naming the variable), and the shared flag parser through
 * the mnpusim, `mnpusim --serve` and bench flag tables.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "../bench/bench_common.hh"
#include "analysis/process_pool.hh"
#include "common/settings.hh"
#include "serving/serving_cli.hh"
#include "sim/cli.hh"

namespace mnpu
{
namespace
{

/** Sets (or, for nullptr, unsets) an env variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        set(value);
    }
    ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

    void
    set(const char *value)
    {
        if (value)
            ::setenv(name_, value, 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

/** argv view of @p args for the flag parsers. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : args_(std::move(args))
    {
        for (std::string &arg : args_)
            pointers_.push_back(arg.data());
    }
    int argc() const { return static_cast<int>(pointers_.size()); }
    char **argv() { return pointers_.data(); }

  private:
    std::vector<std::string> args_;
    std::vector<char *> pointers_;
};

/** One setting, type-erased so the table below can hold them all. */
struct Row
{
    const char *flag;
    const char *env;
    bool mnpusim; //!< mnpusim has the flag too (--isolate is bench-only)
    /** Canonical spellings pinned by config, flag and env, in order;
     *  each differs from the next, and env from the built-in. */
    std::string config, flagValue, envValue;
    std::string bad;
    std::string accepted; //!< what a malformed-value message must list
    std::function<std::string(const std::optional<std::string> &)> resolve;
    std::function<std::string()> builtin;
    std::function<std::string(const std::string &)> canonical;
    std::function<void()> clearDefault;
};

template <typename T>
Row
row(const char *flag, Setting<T> &setting, bool mnpusim,
    std::string config, std::string flag_value, std::string env_value,
    std::string bad)
{
    auto render = [&setting](T value) {
        if constexpr (std::is_enum_v<T>)
            return std::string(setting.toString(value));
        else
            return std::to_string(value);
    };
    const std::string accepted =
        std::is_enum_v<T> ? setting.choices() : "digits";
    return Row{
        flag, setting.env(), mnpusim, config, flag_value, env_value, bad,
        accepted,
        [&setting, render](const std::optional<std::string> &pin) {
            std::optional<T> configured;
            if (pin)
                configured = setting.parse(*pin);
            return render(setting.effective(configured));
        },
        [&setting, render] { return render(setting.builtin()); },
        [&setting, render](const std::string &text) {
            return render(setting.parse(text));
        },
        [&setting] { setting.clearDefault(); }};
}

std::vector<Row>
settingRows()
{
    return {
        row("--check", checkLevelSetting(), true, "off", "full", "cheap",
            "paranoid"),
        row("--fidelity", fidelitySetting(), true, "fast", "exact", "fast",
            "approx"),
        row("--mem-backend", memBackendSetting(), true, "hbm2", "tiered",
            "pcm", "flash"),
        row("--isolate", isolationSetting(), false, "process", "thread",
            "process", "forked"),
        // The flag spells the built-in on purpose: an explicit
        // --obs-level tiles must still beat MNPU_OBS_LEVEL.
        row("--obs-level", traceLevelSetting(), true, "requests", "tiles",
            "layers", "verbose"),
        row("--jobs", jobsSetting(), true, "7", "23", "29", "-1"),
    };
}

/** Apply one flag through the bench's or mnpusim's flag table. */
void
applyFlag(bool bench, const std::vector<std::string> &flag)
{
    std::vector<std::string> args = {"prog"};
    args.insert(args.end(), flag.begin(), flag.end());
    Argv argv(args);
    bench::BenchOptions options;
    RunFlags flags;
    const std::vector<Flag> table =
        bench ? bench::benchFlags(options) : runFlags(flags);
    ASSERT_EQ(parseFlags(argv.argc(), argv.argv(), 1, table), argv.argc());
}

TEST(SettingsTest, CountParserIsStrict)
{
    for (const char *bad : {"-1", "abc", "4x", "0", "", "+3", " 3", "3 ",
                            "4294967296"})
        EXPECT_THROW(parseCount(bad), FatalError) << "'" << bad << "'";
    EXPECT_EQ(parseCount("0", /*allow_zero=*/true), 0u);
    EXPECT_EQ(parseCount("12"), 12u);
    EXPECT_EQ(parseCount("4294967295"), 4294967295u);
    // The 64-bit form: same grammar, full range, overflow rejected.
    for (const char *bad : {"-1", "abc", "4x", "0", "18446744073709551616",
                            "99999999999999999999"})
        EXPECT_THROW(parseCount64(bad), FatalError) << bad;
    EXPECT_EQ(parseCount64("18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parseCount64("0", /*allow_zero=*/true), 0u);
    // The --jobs / MNPU_JOBS path goes through the same parser.
    for (const char *bad : {"-1", "abc", "4x", "0"})
        EXPECT_THROW(jobsSetting().parse(bad), FatalError) << bad;

    for (const char *bad : {"-1", "abc", "4x", "0", "", "nan", "inf"})
        EXPECT_THROW(parsePositiveReal(bad), FatalError) << bad;
    EXPECT_DOUBLE_EQ(parsePositiveReal("0.25"), 0.25);
}

TEST(SettingsTest, ConfigBeatsFlagBeatsEnvBeatsBuiltin)
{
    for (const Row &r : settingRows()) {
        SCOPED_TRACE(r.flag);
        r.clearDefault();
        ScopedEnv env(r.env, nullptr);
        EXPECT_EQ(r.resolve(std::nullopt), r.builtin());
        env.set(r.envValue.c_str());
        EXPECT_EQ(r.resolve(std::nullopt), r.envValue);
        applyFlag(true, {r.flag, r.flagValue});
        EXPECT_EQ(r.resolve(std::nullopt), r.flagValue);
        EXPECT_EQ(r.resolve(r.config), r.config);
        r.clearDefault();
        EXPECT_EQ(r.resolve(std::nullopt), r.envValue);
    }
}

TEST(SettingsTest, EmptyEnvCountsAsUnset)
{
    for (const Row &r : settingRows()) {
        SCOPED_TRACE(r.env);
        r.clearDefault();
        ScopedEnv env(r.env, "");
        EXPECT_EQ(r.resolve(std::nullopt), r.builtin());
    }
}

TEST(SettingsTest, MalformedEnvNamesVariableAndAcceptedValues)
{
    for (const Row &r : settingRows()) {
        SCOPED_TRACE(r.env);
        r.clearDefault();
        ScopedEnv env(r.env, r.bad.c_str());
        try {
            r.resolve(std::nullopt);
            ADD_FAILURE() << "malformed " << r.env << " accepted";
        } catch (const FatalError &error) {
            const std::string message = error.what();
            for (const std::string &part : {std::string(r.env), r.accepted})
                EXPECT_NE(message.find(part), std::string::npos) << message;
        }
        // A pinned value never reads the environment.
        EXPECT_EQ(r.resolve(r.config), r.config);
    }
}

TEST(SettingsTest, MnpusimAndBenchFlagsTakeBothSyntaxes)
{
    for (const Row &r : settingRows()) {
        SCOPED_TRACE(r.flag);
        ScopedEnv env(r.env, nullptr);
        for (bool bench : {false, true}) {
            if (!bench && !r.mnpusim) {
                // No flag is added to mnpusim: the parser stops there.
                RunFlags flags;
                Argv argv({"mnpusim", r.flag, r.flagValue});
                EXPECT_EQ(parseFlags(argv.argc(), argv.argv(), 1,
                                     runFlags(flags)),
                          1);
                continue;
            }
            for (const std::string &value : {r.envValue, r.flagValue}) {
                applyFlag(bench, {r.flag, value});
                EXPECT_EQ(r.resolve(std::nullopt), value);
            }
            applyFlag(bench, {std::string(r.flag) + "=" + r.envValue});
            EXPECT_EQ(r.resolve(std::nullopt), r.envValue);
            r.clearDefault();
        }
    }
}

TEST(SettingsTest, BadFlagValueNamesTheFlag)
{
    for (const Row &r : settingRows()) {
        SCOPED_TRACE(r.flag);
        for (const std::vector<std::string> &args :
             {std::vector<std::string>{"bench", r.flag, r.bad},
              std::vector<std::string>{"bench",
                                       std::string(r.flag) + "=" + r.bad},
              std::vector<std::string>{"bench", r.flag}}) {
            bench::BenchOptions options;
            Argv argv(args);
            try {
                parseFlags(argv.argc(), argv.argv(), 1,
                           bench::benchFlags(options));
                ADD_FAILURE() << "accepted " << args.back();
            } catch (const FatalError &error) {
                EXPECT_EQ(std::string(error.what()).rfind(r.flag, 0), 0u)
                    << error.what();
            }
        }
        r.clearDefault();
    }
    // The bench-only numeric flags are checked by the same parsers.
    for (const char *flag : {"--sample", "--worker-cpu", "--worker-retries",
                             "--job-timeout", "--auto-budget"}) {
        bench::BenchOptions options;
        Argv argv({"bench", flag, "4x"});
        EXPECT_THROW(parseFlags(argv.argc(), argv.argv(), 1,
                                bench::benchFlags(options)),
                     FatalError)
            << flag;
    }
    for (const char *spec : {"2/2", "0/1", "x/2", "1", "0/2x"}) {
        bench::BenchOptions options;
        Argv argv({"bench", "--shard", spec});
        EXPECT_THROW(parseFlags(argv.argc(), argv.argv(), 1,
                                bench::benchFlags(options)),
                     FatalError)
            << spec;
    }
}

TEST(SettingsTest, MnpusimExitsTwoOnBadFlagValue)
{
    for (const char *arg : {"--jobs=-1", "--fidelity=approx",
                            "--job-timeout=0", "--snapshot-every=5x"}) {
        Argv argv({"mnpusim", arg});
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(mnpusimMain(argv.argc(), argv.argv()), 2) << arg;
        const std::string err = ::testing::internal::GetCapturedStderr();
        const std::string flag(arg, std::string(arg).find('='));
        EXPECT_EQ(err.rfind(flag + ": ", 0), 0u) << err;
    }
}

TEST(SettingsTest, MnpusimRejectsUnknownFlag)
{
    Argv argv({"mnpusim", "--no-such-flag", "event", "a", "n", "d", "m",
               "r", "misc"});
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(mnpusimMain(argv.argc(), argv.argv()), 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.rfind("--no-such-flag: unknown flag", 0), 0u) << err;
}

/** Runs `mnpusim --serve ARGS` capped at one cycle; returns its exit. */
int
serveExit(const std::vector<std::string> &args, std::string *err)
{
    std::vector<std::string> full = {"mnpusim", "--serve", "--requests",
                                     "1", "--max-cycles", "1"};
    full.insert(full.end(), args.begin(), args.end());
    Argv argv(full);
    ::testing::internal::CaptureStderr();
    const int code = servingMain(argv.argc(), argv.argv());
    *err = ::testing::internal::GetCapturedStderr();
    return code;
}

TEST(SettingsTest, ServeExitsTwoOnBadCount)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--requests", "-1"},   {"--requests", "abc"},
        {"--requests", "4x"},   {"--cores", "4294967297"},
        {"--cores", "0"},       {"--max-batch=-1"},
        {"--seed", "-1"},       {"--seed", "18446744073709551616"},
        {"--ttft-slo", "1e6"},  {"--arrival", "poisson:-3"},
        {"--level", "dwtx"},    {"--scale", "huge"},
    };
    for (const auto &args : bad) {
        std::string err;
        EXPECT_EQ(serveExit(args, &err), 2) << args[0] << ' ' << err;
        const std::string flag = args[0].substr(0, args[0].find('='));
        EXPECT_EQ(err.rfind(flag + ": ", 0), 0u) << err;
    }
    std::string err;
    EXPECT_EQ(serveExit({"--no-such-flag", "event"}, &err), 2);
    EXPECT_EQ(err.rfind("--no-such-flag: unknown serve flag", 0), 0u)
        << err;
}

TEST(SettingsTest, ServeSeedTakesTheFull64BitRange)
{
    // A parsed command line reaches the simulation, which the one-cycle
    // cap stops with a contained error (exit 3), not a usage error.
    std::string err;
    EXPECT_EQ(serveExit({"--seed", "18446744073709551615", "--cores",
                         "1", "--prompt-tokens", "1", "--decode-tokens",
                         "1"},
                        &err),
              3)
        << err;
}

TEST(SettingsDeathTest, BenchExitsTwoOnBadFlagValue)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Argv argv({"bench", "--jobs", "abc"});
    EXPECT_EXIT(bench::parseOptions(argv.argc(), argv.argv()),
                ::testing::ExitedWithCode(2), "--jobs");
}

TEST(SettingsTest, CanonicalNamesRoundTripAndAliasesParse)
{
    for (const Row &r : settingRows()) {
        SCOPED_TRACE(r.flag);
        for (const std::string &value : {r.config, r.flagValue, r.envValue})
            EXPECT_EQ(r.canonical(value), value);
    }
    // Kept spellings: "dram" aliases hbm2 and backend names ignore
    // case; every other setting is case-sensitive.
    EXPECT_EQ(memBackendSetting().parse("dram"), MemBackendKind::Dram);
    EXPECT_EQ(memBackendSetting().parse("PCM"), MemBackendKind::Pcm);
    EXPECT_STREQ(toString(MemBackendKind::Dram), "hbm2");
    EXPECT_THROW(fidelitySetting().parse("Fast"), FatalError);
    EXPECT_STREQ(toString(IsolationMode::Process), "process");
}

TEST(SettingsTest, TraceAndMetricsPathsFillFromEnvOnlyWhenUnset)
{
    ScopedEnv trace("MNPU_TRACE", "/tmp/env_trace.json");
    ScopedEnv metrics("MNPU_METRICS", "/tmp/env_metrics.csv");
    ObservabilityConfig from_env = observabilityFromEnv();
    EXPECT_EQ(from_env.traceOutPath, "/tmp/env_trace.json");
    EXPECT_EQ(from_env.metricsOutPath, "/tmp/env_metrics.csv");

    RunFlags flags;
    Argv argv({"mnpusim", "--trace-out=/tmp/flag_trace.json"});
    parseFlags(argv.argc(), argv.argv(), 1, runFlags(flags));
    ObservabilityConfig merged = observabilityFromEnv(flags.obs);
    EXPECT_EQ(merged.traceOutPath, "/tmp/flag_trace.json"); // flag wins
    EXPECT_EQ(merged.metricsOutPath, "/tmp/env_metrics.csv");

    ScopedEnv empty("MNPU_TRACE", "");
    EXPECT_TRUE(observabilityFromEnv().traceOutPath.empty());
}

TEST(SettingsTest, ProcessDefaultsAreRaceFree)
{
    // Sweep workers resolve settings while a front end may set them;
    // the thread sanitizer checks this stays race-free.
    auto &setting = memBackendSetting();
    ScopedEnv env(setting.env(), nullptr);
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&setting] {
            for (int i = 0; i < 2000; ++i)
                setting.effective(std::nullopt);
        });
    }
    for (int i = 0; i < 2000; ++i) {
        setting.setDefault(i % 2 ? MemBackendKind::Pcm
                                 : MemBackendKind::Tiered);
        setting.clearDefault();
    }
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(setting.effective(std::nullopt), MemBackendKind::Dram);
}

} // namespace
} // namespace mnpu

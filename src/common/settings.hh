/**
 * @file
 * Run settings and the command-line flags that set them.
 *
 * A run setting (fidelity, check level, memory backend, isolation
 * mode, trace detail, worker count) is one Setting object:
 * a table of accepted spellings, an MNPU_* environment variable and a
 * built-in default. Every setting resolves by the same rule:
 *
 *     explicit config value > process default (its --flag)
 *                           > environment variable > built-in
 *
 * An empty environment value counts as unset; a malformed one throws
 * FatalError naming the variable and the accepted values. This module
 * is the only place that reads the environment.
 *
 * Flags are parsed by parseFlags() from a table of Flag entries, so
 * mnpusim and the benches share one parser: `--flag value` and
 * `--flag=value` both work, and a bad value is reported with the
 * flag's name.
 */

#ifndef MNPU_COMMON_SETTINGS_HH
#define MNPU_COMMON_SETTINGS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"

namespace mnpu
{

/** Environment variable @p name; nullopt when unset or empty. */
std::optional<std::string> envValue(const char *name);

/**
 * Strict decimal count: digits only (no sign, space, or suffix), at
 * most UINT32_MAX, and nonzero unless @p allow_zero. FatalError
 * otherwise.
 */
std::uint32_t parseCount(const std::string &text, bool allow_zero = false);

/** parseCount over the full 64-bit range (seeds, cycle counts). */
std::uint64_t parseCount64(const std::string &text, bool allow_zero = false);

/** Strict positive real (e.g. seconds); FatalError otherwise. */
double parsePositiveReal(const std::string &text);

/**
 * One run setting: an enum spelled by a name table, or a positive
 * count (parseCount). The process default is atomic because sweep
 * worker threads resolve settings while the front end may still set
 * them.
 */
template <typename T>
class Setting
{
  public:
    struct Name
    {
        const char *text;
        T value;
    };

    /**
     * An enum setting. The first name listed for a value is its
     * canonical spelling (toString); later ones are aliases.
     */
    Setting(const char *what, const char *env, T builtin,
            std::vector<Name> names, bool ignore_case = false)
        : what_(what), env_(env), builtin_(builtin),
          names_(std::move(names)), ignoreCase_(ignore_case)
    {}

    /** A positive-count setting. */
    Setting(const char *what, const char *env, T builtin)
        : what_(what), env_(env), builtin_(builtin)
    {}

    const char *env() const { return env_; }
    T builtin() const { return builtin_; }

    /** Canonical spelling of an enum value. */
    const char *
    toString(T value) const
    {
        for (const Name &name : names_)
            if (name.value == value)
                return name.text;
        return "?";
    }

    /** Accepted spellings as "a|b|c" ("N" for a count). */
    std::string
    choices() const
    {
        if (names_.empty())
            return "N";
        std::string text;
        for (const Name &name : names_) {
            if (!text.empty())
                text += '|';
            text += name.text;
        }
        return text;
    }

    /** Parse @p text; FatalError naming the accepted values otherwise. */
    T
    parse(const std::string &text) const
    {
        if (names_.empty())
            return static_cast<T>(parseCount(text));
        for (const Name &name : names_) {
            if (ignoreCase_ ? iequals(text, name.text) : text == name.text)
                return name.value;
        }
        fatal("unknown ", what_, " '", text, "' (expected ", choices(),
              ")");
    }

    /** Set the process default (from the command-line flag). */
    void
    setDefault(T value)
    {
        default_.store(static_cast<std::int64_t>(value),
                       std::memory_order_relaxed);
    }

    void clearDefault() { default_.store(-1, std::memory_order_relaxed); }

    /** Resolve: @p configured > process default > env > built-in. */
    T
    effective(const std::optional<T> &configured) const
    {
        if (configured)
            return *configured;
        const std::int64_t fallback =
            default_.load(std::memory_order_relaxed);
        if (fallback >= 0)
            return static_cast<T>(fallback);
        if (const auto text = envValue(env_)) {
            try {
                return parse(*text);
            } catch (const FatalError &error) {
                fatal(env_, "='", *text, "': ", error.what());
            }
        }
        return builtin_;
    }

  private:
    const char *what_;
    const char *env_;
    T builtin_;
    std::vector<Name> names_;
    bool ignoreCase_ = false;
    std::atomic<std::int64_t> default_{-1};
};

/** One command-line flag of a front end's table. */
struct Flag
{
    const char *name;  //!< e.g. "--jobs"
    std::string value; //!< value placeholder ("N"); empty = a switch
    std::string help;  //!< one-line description for the usage text
    /** Apply the flag's value ("" for a switch); FatalError if bad. */
    std::function<void(const std::string &)> apply;
};

/** A flag that sets @p setting's process default. */
template <typename T>
Flag
settingFlag(const char *name, Setting<T> &setting, const char *help)
{
    return Flag{name, setting.choices(),
                std::string(help) + " (env " + setting.env() + ")",
                [&setting](const std::string &value) {
                    setting.setDefault(setting.parse(value));
                }};
}

/**
 * Apply flags from argv[@p first] on, accepting `--name value` and
 * `--name=value`. Stops at the first argument that names no flag in
 * @p flags and returns its index (argc when every argument was a
 * flag). A missing or bad value throws FatalError whose message
 * starts with the flag's name.
 */
int parseFlags(int argc, char **argv, int first,
               const std::vector<Flag> &flags);

/**
 * Usage text: @p prefix, the "[--name VALUE] ..." synopsis wrapped to
 * 79 columns, then one help line per flag.
 */
std::string flagUsage(const std::string &prefix,
                      const std::vector<Flag> &flags);

} // namespace mnpu

#endif // MNPU_COMMON_SETTINGS_HH

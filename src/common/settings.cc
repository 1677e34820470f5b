#include "common/settings.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace mnpu
{

std::optional<std::string>
envValue(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return std::nullopt;
    return std::string(value);
}

std::uint64_t
parseCount64(const std::string &text, bool allow_zero)
{
    if (text.empty())
        fatal("empty count (expected digits)");
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            fatal("malformed count '", text, "' (expected digits only)");
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            fatal("count '", text, "' is too large");
        value = value * 10 + digit;
    }
    if (value == 0 && !allow_zero)
        fatal("count '", text, "' must be positive");
    return value;
}

std::uint32_t
parseCount(const std::string &text, bool allow_zero)
{
    const std::uint64_t value = parseCount64(text, allow_zero);
    if (value > std::numeric_limits<std::uint32_t>::max())
        fatal("count '", text, "' is too large");
    return static_cast<std::uint32_t>(value);
}

double
parsePositiveReal(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !std::isfinite(value) || value <= 0)
        fatal("malformed value '", text, "' (expected a positive number)");
    return value;
}

int
parseFlags(int argc, char **argv, int first, const std::vector<Flag> &flags)
{
    for (int i = first; i < argc; ++i) {
        std::string name = argv[i];
        std::optional<std::string> value;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        }
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&name](const Flag &f) { return name == f.name; });
        if (flag == flags.end())
            return i;
        if (flag->value.empty()) {
            if (value)
                fatal(name, " takes no value");
            value.emplace();
        } else if (!value) {
            if (i + 1 >= argc)
                fatal(name, " needs a value (", flag->value, ")");
            value = argv[++i];
        }
        try {
            flag->apply(*value);
        } catch (const FatalError &error) {
            fatal(name, ": ", error.what());
        }
    }
    return argc;
}

std::string
flagUsage(const std::string &prefix, const std::vector<Flag> &flags)
{
    std::string text = prefix;
    std::size_t column = text.size();
    for (const Flag &flag : flags) {
        std::string item = std::string("[") + flag.name;
        if (!flag.value.empty())
            item += " " + flag.value;
        item += "]";
        if (column + 1 + item.size() > 79) {
            text += "\n   ";
            column = 3;
        }
        text += " " + item;
        column += 1 + item.size();
    }
    text += "\n";
    for (const Flag &flag : flags) {
        std::string name = std::string("  ") + flag.name;
        name.resize(std::max<std::size_t>(name.size() + 1, 20), ' ');
        text += name + flag.help + "\n";
    }
    return text;
}

} // namespace mnpu

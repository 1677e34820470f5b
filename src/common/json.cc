#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mnpu::json
{

void
appendString(std::string &out, std::string_view text)
{
    // Short escapes for five bytes; every other control byte is \u00XX.
    constexpr std::string_view kRaw = "\"\\\n\r\t";
    constexpr std::string_view kEscaped = "\"\\nrt";
    out.push_back('"');
    for (char c : text) {
        if (const std::size_t at = kRaw.find(c); at != kRaw.npos) {
            out.push_back('\\');
            out.push_back(kEscaped[at]);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buffer;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
}

void
appendDouble(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "null"; // NaN and infinities are not JSON
        return;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += buffer;
}

void
appendFixed(std::string &out, double value, int decimals)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    const int length = std::snprintf(nullptr, 0, "%.*f", decimals, value);
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(length) + 1);
    std::snprintf(out.data() + at, static_cast<std::size_t>(length) + 1,
                  "%.*f", decimals, value);
    out.pop_back(); // snprintf's terminating NUL
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
}

const Value *
Value::find(std::string_view key) const
{
    for (std::size_t i = keys_.size(); i-- > 0;) {
        if (keys_[i] == key)
            return &items_[i];
    }
    return nullptr;
}

namespace
{

/** from_chars over all of @p text; false unless every byte is used. */
template <typename T>
bool
readAll(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, out);
    return result.ec == std::errc{} && result.ptr == end;
}

} // namespace

bool
Value::get(double &out) const
{
    if (kind_ == Kind::Null) {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    return kind_ == Kind::Number && readAll(text_, out);
}

bool
Value::get(std::uint64_t &out) const
{
    // The grammar already holds a number to JSON's shape; a u64 is
    // the plain-digit subset (no '-', '.', or exponent) that fits.
    return kind_ == Kind::Number && readAll(text_, out);
}

bool
Value::get(std::string &out) const
{
    out = text_;
    return kind_ == Kind::String;
}

/** Recursive-descent reader over one text; see json.hh for the subset. */
struct Parser
{
    std::string_view text_;
    std::size_t pos_ = 0;

    void skipSpace()
    {
        pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_),
                        text_.size());
    }

    /** Consume @p word when it comes next (no space skipped). */
    bool next(std::string_view word)
    {
        if (!text_.substr(pos_).starts_with(word))
            return false;
        pos_ += word.size();
        return true;
    }

    /** Consume @p word when it comes next after white space. */
    bool token(std::string_view word)
    {
        skipSpace();
        return next(word);
    }

    bool value(Value &out, int depth)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return object(out, depth + 1);
          case '[':
            return array(out, depth + 1);
          case '"':
            out.kind_ = Value::Kind::String;
            return string(out.text_);
          case 't':
          case 'f':
            out.kind_ = Value::Kind::Bool;
            return next("true") || next("false");
          case 'n':
            return next("null");
          default:
            out.kind_ = Value::Kind::Number;
            return number(out.text_);
        }
    }

    bool array(Value &out, int depth)
    {
        ++pos_; // '['
        out.kind_ = Value::Kind::Array;
        if (depth > kMaxDepth)
            return false;
        if (token("]"))
            return true;
        do {
            if (!value(out.items_.emplace_back(), depth))
                return false;
        } while (token(","));
        return token("]");
    }

    bool object(Value &out, int depth)
    {
        ++pos_; // '{'
        out.kind_ = Value::Kind::Object;
        if (depth > kMaxDepth)
            return false;
        if (token("}"))
            return true;
        do {
            if (!string(out.keys_.emplace_back()) || !token(":") ||
                !value(out.items_.emplace_back(), depth))
                return false;
        } while (token(","));
        return token("}");
    }

    bool string(std::string &out)
    {
        if (!token("\""))
            return false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control byte: never valid JSON
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            // Short escapes map one byte to one byte; \u is the rest.
            constexpr std::string_view kEscaped = "\"\\/bfnrt";
            constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
            const char escape = text_[pos_++];
            if (const std::size_t at = kEscaped.find(escape);
                at != std::string_view::npos) {
                out.push_back(kDecoded[at]);
                continue;
            }
            // Exactly four hex digits, at most 0xFF: one byte. A larger
            // code point would need UTF-8 encoding, which no writer
            // here needs, so it is refused.
            if (escape != 'u' || text_.size() - pos_ < 4)
                return false;
            const char *digits = text_.data() + pos_;
            unsigned code = 0;
            const auto result = std::from_chars(digits, digits + 4, code, 16);
            if (result.ec != std::errc{} || result.ptr != digits + 4 ||
                code > 0xff)
                return false;
            pos_ += 4;
            out.push_back(static_cast<char>(code));
        }
        return false; // unterminated
    }

    /** Consume one or more decimal digits. */
    bool digits()
    {
        const std::size_t start = pos_;
        pos_ = std::min(text_.find_first_not_of("0123456789", pos_),
                        text_.size());
        return pos_ > start;
    }

    /** JSON number grammar; the source text is kept for exact reads. */
    bool number(std::string &out)
    {
        const std::size_t start = pos_;
        next("-");
        if (!next("0") && !digits())
            return false;
        if (next(".") && !digits())
            return false;
        if (next("e") || next("E")) {
            if (!next("+"))
                next("-");
            if (!digits())
                return false;
        }
        out.assign(text_.substr(start, pos_ - start));
        return true;
    }
};

bool
parse(std::string_view text, Value &out)
{
    out = Value{};
    Parser parser{text};
    if (!parser.value(out, 0))
        return false;
    parser.skipSpace();
    return parser.pos_ == text.size();
}

} // namespace mnpu::json

/**
 * @file
 * The one JSON codec every format in the repo shares: checkpoint-v2
 * records (on disk and over worker IPC), golden fixtures, the fidelity
 * envelope, BENCH_micro.json rows, metrics JSONL and trace_event files.
 *
 * The writer appends to a std::string: an escaped string, a double at
 * 17 significant digits (`null` when not finite), a u64, a fixed
 * decimal, or an array or object member built from those. The reader
 * is strict and builds a small value tree. Each number keeps its
 * source text, so a u64 read is exact up to 2^64-1
 * and rejects a sign, a fraction, an exponent or an overflow, while a
 * double read maps `null` to NaN.
 *
 * Accepted subset: RFC 8259 JSON, except that `\u` escapes must be at
 * most 0xFF (each decodes to one byte; the writer never emits more)
 * and containers may nest at most kMaxDepth deep. Rejected: trailing
 * commas, bare `nan`/`inf`, raw control bytes inside strings and
 * bytes after the value; a double read of a number outside double
 * range fails. Bytes 0x80 and above pass through strings unchanged
 * (no UTF-8 validation).
 */

#ifndef MNPU_COMMON_JSON_HH
#define MNPU_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mnpu::json
{

/**
 * Deepest container nesting parse() accepts. The deepest format here
 * (a trace event's `args`) nests 4 levels; the cap keeps the recursive
 * reader's stack bounded on corrupt input.
 */
constexpr int kMaxDepth = 16;

/** Append @p text quoted, escaping `"`, `\` and every byte below 0x20. */
void appendString(std::string &out, std::string_view text);

/** Append @p value at 17 significant digits (`%.17g`); `null` if not
 *  finite, since NaN and infinities are not JSON. */
void appendDouble(std::string &out, double value);

/** Append @p value with @p decimals fixed decimals (`%.*f`); `null` if
 *  not finite. */
void appendFixed(std::string &out, double value, int decimals);

/** Append @p value in decimal. */
void appendU64(std::string &out, std::uint64_t value);

/** Append a double, an unsigned integer or a string with the matching
 *  function above, or a vector of those as an array. */
template <typename T>
void
append(std::string &out, const T &value)
{
    if constexpr (std::is_floating_point_v<T>) {
        appendDouble(out, value);
    } else if constexpr (std::is_unsigned_v<T>) {
        appendU64(out, value);
    } else if constexpr (std::is_convertible_v<const T &, std::string_view>) {
        appendString(out, value);
    } else {
        out.push_back('[');
        for (std::size_t i = 0; i < value.size(); ++i) {
            if (i)
                out.push_back(',');
            append(out, value[i]);
        }
        out.push_back(']');
    }
}

/** Append `,"key":value`: an object member after the first. */
template <typename T>
void
appendField(std::string &out, std::string_view key, const T &value)
{
    out.push_back(',');
    appendString(out, key);
    out.push_back(':');
    append(out, value);
}

/** One parsed JSON value; containers own their children. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }

    /** Array elements, or an object's values (parallel to keys()). */
    const std::vector<Value> &items() const { return items_; }
    /** An object's keys in source order; empty for other kinds. */
    const std::vector<std::string> &keys() const { return keys_; }

    /** The value of @p key (the last one, if repeated), or nullptr
     *  when absent or when this is not an object. */
    const Value *find(std::string_view key) const;

    /** Typed reads: false (leaving @p out unspecified) when the kind
     *  does not match. A double reads a number or `null` (as NaN); a
     *  u64 reads only a plain digit string that fits in 64 bits. No
     *  format here writes a bool, so a Bool has a kind but no read. */
    bool get(double &out) const;
    bool get(std::uint64_t &out) const;
    bool get(std::string &out) const;

    template <typename T>
    bool get(std::vector<T> &out) const
    {
        if (kind_ != Kind::Array)
            return false;
        out.assign(items_.size(), T{});
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (!items_[i].get(out[i]))
                return false;
        }
        return true;
    }

    /** get() on the value of a required @p key; false when absent. */
    template <typename T>
    bool getField(std::string_view key, T &out) const
    {
        const Value *value = find(key);
        return value && value->get(out);
    }

  private:
    friend struct Parser;

    Kind kind_ = Kind::Null;
    std::string text_; //!< decoded string, or a number's source text
    std::vector<Value> items_;
    std::vector<std::string> keys_;
};

/** Parse all of @p text as one value; false on anything outside the
 *  accepted subset (@p out is then unspecified). */
bool parse(std::string_view text, Value &out);

} // namespace mnpu::json

#endif // MNPU_COMMON_JSON_HH

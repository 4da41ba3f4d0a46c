/**
 * @file
 * The JSON gmlake_bench writes: its result line, results files and
 * span traces. Reading JSON back (comparing results, merging runs) is
 * suite.py's job, with Python's json module.
 */

#ifndef GMLAKE_BENCH_SUITE_JSON_HH
#define GMLAKE_BENCH_SUITE_JSON_HH

#include <string>
#include <string_view>
#include <type_traits>

namespace gmlake::bench
{

/** Shortest text that reads back as exactly @p v; "null" if not finite. */
std::string formatNumber(double v);

/** @p s as a JSON string literal. */
std::string quote(std::string_view s);

/** One JSON object or array, written member by member on one line. */
class JsonText
{
  public:
    static JsonText object() { return JsonText('{', '}'); }
    static JsonText array() { return JsonText('[', ']'); }

    /** Object member @p key. */
    JsonText &add(std::string_view key, const JsonText &value);
    JsonText &add(std::string_view key, std::string_view value);
    JsonText &
    add(std::string_view key, const char *value)
    {
        return add(key, std::string_view(value));
    }
    template <typename T>
        requires std::is_arithmetic_v<T>
    JsonText &
    add(std::string_view key, T value)
    {
        return addRaw(key, scalar(value));
    }

    /** Array element. */
    JsonText &push(const JsonText &value);
    JsonText &push(std::string_view value);
    template <typename T>
        requires std::is_arithmetic_v<T>
    JsonText &
    push(T value)
    {
        return pushRaw(scalar(value));
    }

    /** The finished text. */
    std::string str() const { return mText + mClose; }

  private:
    JsonText(char open, char close) : mText(1, open), mClose(close) {}

    template <typename T>
    static std::string
    scalar(T value)
    {
        if constexpr (std::is_same_v<T, bool>)
            return value ? "true" : "false";
        else
            return formatNumber(static_cast<double>(value));
    }

    JsonText &addRaw(std::string_view key, const std::string &value);
    JsonText &pushRaw(const std::string &value);

    std::string mText;
    char mClose;
};

} // namespace gmlake::bench

#endif // GMLAKE_BENCH_SUITE_JSON_HH

#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace gmlake::bench
{

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/inf
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

JsonText &
JsonText::add(std::string_view key, const JsonText &value)
{
    return addRaw(key, value.str());
}

JsonText &
JsonText::add(std::string_view key, std::string_view value)
{
    return addRaw(key, quote(value));
}

JsonText &
JsonText::push(const JsonText &value)
{
    return pushRaw(value.str());
}

JsonText &
JsonText::push(std::string_view value)
{
    return pushRaw(quote(value));
}

JsonText &
JsonText::addRaw(std::string_view key, const std::string &value)
{
    if (mText.size() > 1)
        mText += ", ";
    mText += quote(key);
    mText += ": ";
    mText += value;
    return *this;
}

JsonText &
JsonText::pushRaw(const std::string &value)
{
    if (mText.size() > 1)
        mText += ", ";
    mText += value;
    return *this;
}

} // namespace gmlake::bench

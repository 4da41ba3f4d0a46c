#include "support/strings.hh"

#include <array>
#include <cstdio>

namespace gmlake
{

std::string
formatBytes(Bytes bytes)
{
    static constexpr std::array<const char *, 5> units =
        {"B", "KB", "MB", "GB", "TB"};
    double v = static_cast<double>(bytes);
    std::size_t u = 0;
    while (v >= 1024.0 && u + 1 < units.size()) {
        v /= 1024.0;
        ++u;
    }
    char buf[64];
    if (u == 0)
        std::snprintf(buf, sizeof(buf), "%zu B", bytes);
    else
        std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
    return buf;
}

std::string
formatDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
formatPercent(double ratio, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, ratio * 100.0);
    return buf;
}

std::string
formatTime(Tick ns)
{
    char buf[64];
    if (ns >= 1'000'000'000)
        std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
    else if (ns >= 1'000'000)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else if (ns >= 1'000)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%lld ns",
                      static_cast<long long>(ns));
    return buf;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace gmlake

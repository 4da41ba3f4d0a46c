#include "support/flags.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <ostream>

#include "support/logging.hh"

namespace gmlake
{

ParsedArgs
parseFlags(const FlagTable &flags, int argc, char **argv,
           std::size_t minArgs, std::size_t maxArgs)
{
    ParsedArgs parsed;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            parsed.help = true;
            return parsed;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            if (parsed.positionals.size() == maxArgs)
                GMLAKE_FATAL("unexpected argument ", arg, " for ",
                             argv[0], " (try --help)");
            parsed.positionals.emplace_back(arg);
            continue;
        }
        const auto row =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return arg == f.name; });
        if (row == flags.end())
            GMLAKE_FATAL("unknown flag ", arg, " for ", argv[0],
                         " (try --help)");
        const char *value = nullptr;
        if (row->value != nullptr && row->value[0] == '[') {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                value = argv[++i];
        } else if (row->value != nullptr) {
            if (i + 1 >= argc)
                GMLAKE_FATAL("flag ", arg, " needs a value");
            value = argv[++i];
        }
        row->set(value);
    }
    if (parsed.positionals.size() < minArgs)
        GMLAKE_FATAL(argv[0], " needs ", minArgs, " argument",
                     minArgs == 1 ? "" : "s", " (try --help)");
    return parsed;
}

void
printUsage(std::ostream &out, const std::string &usage,
           const FlagTable &flags)
{
    // Help text starts in one column; a long name+value head gets a
    // line of its own, and help continuation lines align under it.
    constexpr std::size_t kColumn = 24;
    out << "usage: " << usage << "\n";
    for (const Flag &flag : flags) {
        std::string head = std::string("  ") + flag.name;
        if (flag.value != nullptr)
            head += std::string(" ") + flag.value;
        if (head.size() + 2 > kColumn) {
            out << head << "\n";
            head.clear();
        }
        out << head << std::string(kColumn - head.size(), ' ');
        for (const char c : std::string_view(flag.help)) {
            out << c;
            if (c == '\n')
                out << std::string(kColumn, ' ');
        }
        out << "\n";
    }
}

std::uint64_t
parseInteger(const std::string &what, std::string_view text,
             std::uint64_t lo, std::uint64_t hi, bool scaled)
{
    std::string_view digits = text;
    unsigned shift = 0;
    if (scaled && !digits.empty()) {
        const auto unit = std::string_view("KMGT").find(static_cast<char>(
            std::toupper(static_cast<unsigned char>(digits.back()))));
        if (unit != std::string_view::npos) {
            shift = 10 * static_cast<unsigned>(unit + 1);
            digits.remove_suffix(1);
        }
    }
    std::uint64_t value = 0;
    const char *end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
    if (ec == std::errc::invalid_argument || ptr != end)
        GMLAKE_FATAL(what, ": expected an unsigned integer, got '",
                     text, "'");
    if (ec == std::errc::result_out_of_range ||
        value > (hi >> shift) || (value << shift) < lo)
        GMLAKE_FATAL(what, ": '", text, "' is out of range [", lo, ", ",
                     hi, "]");
    return value << shift;
}

double
parseReal(const std::string &what, std::string_view text, double lo,
          double hi)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::invalid_argument || ptr != end)
        GMLAKE_FATAL(what, ": expected a number, got '", text, "'");
    if (ec == std::errc::result_out_of_range || !std::isfinite(value) ||
        value < lo || value > hi)
        GMLAKE_FATAL(what, ": '", text, "' is not a finite number in [",
                     lo, ", ", hi, "]");
    return value;
}

Flag
sizeFlag(const char *name, const char *value, const char *help,
         Bytes &target, Bytes unit)
{
    return {name, value, help, [name, &target, unit](const char *v) {
                target = parseInteger(
                             std::string("flag ") + name, v, 0,
                             std::numeric_limits<Bytes>::max() / unit) *
                         unit;
            }};
}

Flag
outputFlag(const char *name, const char *value, const char *help,
           std::string &target, std::string fallback)
{
    return {name, value, help,
            [name, &target, fallback = std::move(fallback)](
                const char *v) {
                const std::filesystem::path path = v ? v : fallback;
                if (const auto dir = path.parent_path();
                    !dir.empty() && !std::filesystem::is_directory(dir))
                    GMLAKE_FATAL("flag ", name, ": directory ",
                                 dir.string(), " does not exist");
                if (path.empty() || std::filesystem::is_directory(path))
                    GMLAKE_FATAL("flag ", name, " must name a file, "
                                 "got '", path.string(), "'");
                target = path.string();
            }};
}

Flag
logLevelFlag()
{
    return {"--log-level", "L", "error | warn | info | debug "
                                "(default warn)",
            [](const char *v) { setLogLevel(parseLogLevel(v)); }};
}

} // namespace gmlake

/**
 * @file
 * Checked environment-variable parsing with loud failure.
 *
 * Every REPRO_* knob used to have its own ad-hoc reader, and the
 * oldest (REPRO_TRACE_SCALE) predated the parse_util.hh migration: a
 * typo like REPRO_TRACE_SCALE=0.5x silently fell back to the
 * default, so a run you believed was scaled differently was not.
 * That failure mode is worse than a crash — the numbers look
 * plausible and land in results/.
 *
 * These helpers make misconfiguration fatal: an unset (or empty)
 * variable selects the documented default, a well-formed value in
 * range is used, and anything else prints one unambiguous line to
 * stderr and exits with status 2 (the repo-wide usage-error code).
 * Parsing goes through core/parse_util.hh, so trailing garbage and
 * out-of-range values are rejected, never truncated or clamped.
 */

#ifndef DFCM_CORE_ENV_UTIL_HH
#define DFCM_CORE_ENV_UTIL_HH

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "core/parse_util.hh"

namespace vpred
{

/**
 * Report a malformed environment value and exit(2). Never returns;
 * the message names the variable, the offending value and what a
 * valid value looks like, so the fix is obvious from the one line.
 */
[[noreturn]] inline void
envUsageError(const char* var, std::string_view value,
              std::string_view expected)
{
    std::cerr << "error: " << var << "='" << value
              << "' is invalid (expected " << expected << ")\n";
    std::exit(2);
}

/** Raw value of @p var; nullopt when unset or empty (empty means
 *  "use the default" for every REPRO_* knob). */
inline std::optional<std::string>
envRaw(const char* var)
{
    const char* v = std::getenv(var);
    if (v == nullptr || *v == '\0')
        return std::nullopt;
    return std::string(v);
}

/**
 * Finite double from @p var in [@p min_value, @p max_value], or
 * @p fallback when unset. Malformed or out-of-range values are fatal
 * (envUsageError).
 */
inline double
envDoubleOr(const char* var, double fallback, double min_value,
            double max_value)
{
    const std::optional<std::string> raw = envRaw(var);
    if (!raw)
        return fallback;
    const std::optional<double> v = parseDouble(*raw);
    if (!v || !(*v >= min_value) || !(*v <= max_value)) {
        envUsageError(var, *raw,
                      "a number in [" + std::to_string(min_value) + ", "
                              + std::to_string(max_value) + "]");
    }
    return *v;
}

/**
 * Unsigned integer from @p var in [@p min_value, @p max_value], or
 * @p fallback when unset. Malformed (including negative) or
 * out-of-range values are fatal.
 */
inline unsigned long long
envUIntOr(const char* var, unsigned long long fallback,
          unsigned long long min_value, unsigned long long max_value)
{
    const std::optional<std::string> raw = envRaw(var);
    if (!raw)
        return fallback;
    const std::optional<unsigned long long> v = parseUInt(*raw);
    if (!v || *v < min_value || *v > max_value) {
        envUsageError(var, *raw,
                      "an integer in [" + std::to_string(min_value)
                              + ", " + std::to_string(max_value) + "]");
    }
    return *v;
}

/**
 * Boolean from @p var, or @p fallback when unset. Accepts exactly
 * 0/1/on/off/true/false/yes/no (case-insensitive); anything else is
 * fatal — a typo like "fales" must not silently mean "on".
 */
inline bool
envFlagOr(const char* var, bool fallback)
{
    const std::optional<std::string> raw = envRaw(var);
    if (!raw)
        return fallback;
    std::string v;
    for (char c : *raw)
        v += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    if (v == "1" || v == "on" || v == "true" || v == "yes")
        return true;
    if (v == "0" || v == "off" || v == "false" || v == "no")
        return false;
    envUsageError(var, *raw, "one of 0/1/on/off/true/false/yes/no");
}

} // namespace vpred

#endif // DFCM_CORE_ENV_UTIL_HH

#include "base/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace genesis {

namespace {

/** parseNumber()'s rules around one strto* conversion. */
template <typename T, typename Convert>
bool
parseWhole(const char *text, T &value, Convert convert)
{
    // strto* skip leading whitespace; strictness requires the string to
    // start with the number itself.
    if (!text || !*text ||
        std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    T parsed = convert(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    value = parsed;
    return true;
}

} // namespace

bool
parseNumber(const char *text, long long &value)
{
    return parseWhole(text, value, [](const char *s, char **end) {
        return std::strtoll(s, end, 10);
    });
}

bool
parseNumber(const char *text, double &value)
{
    double parsed = 0.0;
    bool whole = parseWhole(text, parsed, [](const char *s, char **end) {
        return std::strtod(s, end);
    });
    if (!whole || !std::isfinite(parsed))
        return false;
    value = parsed;
    return true;
}

EnvInt
parseEnvInt(const char *name)
{
    EnvInt result;
    const char *env = std::getenv(name);
    if (!env || !*env)
        return result;
    result.present = true;
    result.valid = parseNumber(env, result.value);
    return result;
}

long long
envInt64(const char *name, long long fallback, long long min_value,
         long long max_value)
{
    EnvInt parsed = parseEnvInt(name);
    if (!parsed.present)
        return fallback;
    if (!parsed.valid) {
        warn("%s='%s' is not an integer; using %lld", name,
             std::getenv(name), fallback);
        return fallback;
    }
    if (parsed.value < min_value || parsed.value > max_value) {
        warn("%s=%lld is out of range [%lld, %lld]; using %lld", name,
             parsed.value, min_value, max_value, fallback);
        return fallback;
    }
    return parsed.value;
}

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    if (!env || !*env || std::strcmp(env, "0") == 0)
        return false;
    if (std::strcmp(env, "1") == 0)
        return true;
    warn("%s='%s' is not 0 or 1; treating it as 0", name, env);
    return false;
}

} // namespace genesis

#include "base/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace genesis {

EnvInt
parseEnvInt(const char *name)
{
    EnvInt result;
    const char *env = std::getenv(name);
    if (!env || !*env)
        return result;
    result.present = true;
    // strtoll skips leading whitespace; strictness requires the string
    // to start with the number itself.
    if (std::isspace(static_cast<unsigned char>(env[0])))
        return result;
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE)
        return result;
    result.valid = true;
    result.value = value;
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

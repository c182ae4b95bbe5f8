/**
 * @file
 * Strict environment-variable parsing shared by every env knob.
 *
 * The historical pattern (std::atoll on getenv output) silently accepted
 * trailing garbage ("4x" became 4) and silently mapped unparseable text
 * to 0 (so "abc" fell back with no diagnostic). Every integer knob now
 * goes through envInt64(): a full-string strict parse that warns and
 * falls back on malformed or out-of-range input, so a typo in
 * GENESIS_SERVICE_BOARDS or GENESIS_DSE_WORKERS is loud instead of a
 * silent misconfiguration. Every boolean escape hatch goes through
 * envFlag(), so "0" means off for all of them. Numeric command-line
 * flags use the same full-string parseNumber().
 */

#ifndef GENESIS_BASE_ENV_H
#define GENESIS_BASE_ENV_H

#include <cstdint>
#include <limits>

namespace genesis {

/** Outcome of parsing one environment variable as an integer. */
struct EnvInt {
    /** The variable was set to a non-empty string. */
    bool present = false;
    /** The full string parsed as a (possibly signed) decimal integer. */
    bool valid = false;
    long long value = 0;
};

/**
 * Parse all of `text` as an optionally-signed decimal number: no
 * leading whitespace and no trailing characters ("4x", " 4" and "1,5"
 * are all invalid), and a value out of range is invalid too. The double
 * form also takes fractions and exponents ("1.5", "2e3") but rejects
 * infinities and NaN. @return false, leaving `value` untouched, when
 * `text` is null, empty or invalid. Never warns; callers decide the
 * policy.
 */
bool parseNumber(const char *text, long long &value);
bool parseNumber(const char *text, double &value);

/**
 * Parse `name` as a strict decimal integer (parseNumber()'s rules).
 * Never warns; callers decide the policy.
 */
EnvInt parseEnvInt(const char *name);

/**
 * Read integer env knob `name` with a warn-and-fall-back policy: unset
 * or empty returns `fallback` silently; malformed input or a value
 * outside [min_value, max_value] warns (naming the variable and the
 * offending text) and returns `fallback`.
 */
long long
envInt64(const char *name, long long fallback,
         long long min_value = std::numeric_limits<long long>::min(),
         long long max_value = std::numeric_limits<long long>::max());

/**
 * Read boolean env flag `name`: unset, empty or "0" is false and "1" is
 * true. Anything else warns (naming the variable and the offending
 * text) and is false.
 */
bool envFlag(const char *name);

} // namespace genesis

#endif // GENESIS_BASE_ENV_H

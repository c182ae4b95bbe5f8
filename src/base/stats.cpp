#include "base/stats.h"

#include <algorithm>
#include <sstream>

#include "base/logging.h"

namespace genesis {

void
ScalarStat::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
ScalarStat::merge(const ScalarStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
}

void
ScalarStat::reset()
{
    *this = ScalarStat();
}

double
ScalarStat::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

StatRegistry::Counter
StatRegistry::counter(const std::string &name)
{
    // std::map nodes are address-stable, so the handle is simply a
    // pointer to the mapped value.
    return &counters_[name];
}

void
StatRegistry::add(const std::string &name, uint64_t delta)
{
    counters_[name] += delta;
}

void
StatRegistry::set(const std::string &name, uint64_t value)
{
    counters_[name] = value;
}

uint64_t
StatRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
}

void
StatRegistry::appendCounters(std::vector<Counter> &out)
{
    for (auto &[name, value] : counters_)
        out.push_back(&value);
}

std::string
StatRegistry::report(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[name, value] : counters_)
        os << prefix << name << " = " << value << "\n";
    return os.str();
}

std::string
formatBytes(double bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int unit = 0;
    while (bytes >= 1024.0 && unit < 4) {
        bytes /= 1024.0;
        ++unit;
    }
    std::ostringstream os;
    os.precision(unit == 0 ? 0 : 2);
    os << std::fixed << bytes << " " << units[unit];
    return os.str();
}

std::string
formatSeconds(double seconds)
{
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    if (seconds >= 1.0)
        os << seconds << " s";
    else if (seconds >= 1e-3)
        os << seconds * 1e3 << " ms";
    else
        os << seconds * 1e6 << " us";
    return os.str();
}

} // namespace genesis

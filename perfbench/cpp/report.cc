#include "report.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace perfbench
{

namespace
{

/** Shortest text that reads back as exactly @p v. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Report::metric(const std::string& name, double value,
               const std::string& unit)
{
    metrics_.push_back({name, value, unit});
    out_ << "  " << name << " = " << exact(value) << " " << unit << "\n";
}

bool
Report::has(const std::string& name) const
{
    for (const Metric& m : metrics_)
        if (m.name == name)
            return true;
    return false;
}

void
Report::note(const std::string& line)
{
    out_ << "  " << line << "\n";
}

bool
Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        ++failed_checks_;
        out_ << "  CHECK FAILED: " << what << "\n";
    }
    return ok;
}

void
Report::operations(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

std::string
Report::summaryJson() const
{
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
        if (!std::isfinite(m.value))
            continue;  // only printed: JSON has no infinity
        if (!first)
            s += ", ";
        first = false;
        s += "\"" + m.name + "\": {\"value\": " + exact(m.value)
                + ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench

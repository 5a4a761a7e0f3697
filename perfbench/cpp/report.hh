/**
 * @file
 * What one benchmark run reports: named metrics with units, and the
 * correctness checks with their attempted/failed counts. Every metric
 * is printed as a line when it is measured; the last line of standard
 * output is the JSON summary.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench
{

class Report
{
  public:
    explicit Report(std::ostream& out) : out_(out) {}

    /** Record metric @p name (printed now, emitted in the summary). */
    void metric(const std::string& name, double value,
                const std::string& unit);

    /** A free-form report line (a ladder step, a sample count). */
    void note(const std::string& line);

    /** Count one correctness check; a failing one is printed. */
    bool check(bool ok, const std::string& what);

    /** Count @p attempted operations of which @p failed failed (e.g.
     *  records offered to the service and refused). */
    void operations(std::uint64_t attempted, std::uint64_t failed);

    /** True iff metric @p name was recorded. */
    bool has(const std::string& name) const;

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_checks_ == 0 && failed_ == 0; }

    /** The one-line JSON summary with every recorded metric. */
    std::string summaryJson() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::ostream& out_;
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t failed_checks_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH

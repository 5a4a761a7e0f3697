#include "measure.hh"

#include <fstream>
#include <string>

namespace perfbench
{

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(256, '\n');
    }
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
supportedPercentile(std::uint64_t samples)
{
    // 50, 90, 99, 99.9, ...: percentile 100 (1 - 1/d) leaves
    // samples / d beyond it, which must be at least ten.
    if (samples < 20)
        return 0.0;
    double pct = 50.0;
    for (std::uint64_t d = 10; d <= 1'000'000'000'000ull && samples >= 10 * d;
         d *= 10)
        pct = 100.0 * (1.0 - 1.0 / static_cast<double>(d));
    return pct;
}

} // namespace perfbench

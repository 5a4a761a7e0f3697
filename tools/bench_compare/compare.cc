#include "bench_compare/compare.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>

#include "core/parse_util.hh"

namespace bench_compare
{

namespace
{

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string& s)
{
    const std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

bool
endsWith(const std::string& name, std::string_view suffix)
{
    return name.size() >= suffix.size()
            && name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix)
            == 0;
}

} // namespace

bool
isThroughputMetric(const std::string& name)
{
    return endsWith(name, "_records_per_sec");
}

bool
isLatencyQuantileMetric(const std::string& name)
{
    // The quantile tag floats ("service_p99_..._ns" and "..._p99_ns"
    // both occur) but the unit suffix anchors the classification: a
    // "_p99_count" is not a latency and must stay ungated.
    return endsWith(name, "_ns")
            && (name.find("_p50") != std::string::npos
                || name.find("_p99") != std::string::npos);
}

bool
Comparison::anyRegression() const
{
    return std::any_of(deltas.begin(), deltas.end(),
                       [](const MetricDelta& d) { return d.regressed; });
}

bool
Comparison::anyIncomparable() const
{
    return std::any_of(deltas.begin(), deltas.end(),
                       [](const MetricDelta& d) {
                           return d.incomparable;
                       });
}

bool
Comparison::anyFailure() const
{
    return !errors.empty() || anyRegression() || anyIncomparable();
}

std::optional<std::vector<std::pair<std::string, double>>>
parseMetrics(const std::string& json, const std::string& label,
             std::vector<std::string>& errors)
{
    const std::size_t key = json.find("\"metrics\"");
    if (key == std::string::npos) {
        errors.push_back(label + ": no \"metrics\" object");
        return std::nullopt;
    }
    const std::size_t open = json.find('{', key);
    const std::size_t close =
            open == std::string::npos ? open : json.find('}', open);
    if (close == std::string::npos) {
        errors.push_back(label + ": unterminated \"metrics\" object");
        return std::nullopt;
    }

    std::vector<std::pair<std::string, double>> out;
    std::size_t pos = open + 1;
    while (pos < close) {
        const std::size_t q1 = json.find('"', pos);
        if (q1 == std::string::npos || q1 >= close)
            break;  // no more pairs
        const std::size_t q2 = json.find('"', q1 + 1);
        const std::size_t colon =
                q2 == std::string::npos ? q2 : json.find(':', q2);
        if (colon == std::string::npos || colon >= close) {
            errors.push_back(label + ": malformed metric pair");
            return std::nullopt;
        }
        std::size_t vend = json.find(',', colon);
        if (vend == std::string::npos || vend > close)
            vend = close;
        const std::string name = json.substr(q1 + 1, q2 - q1 - 1);
        const std::string text =
                trim(json.substr(colon + 1, vend - colon - 1));
        const std::optional<double> v = vpred::parseDouble(text);
        if (!v) {
            errors.push_back(label + ": metric \"" + name
                             + "\" has non-numeric value '" + text + "'");
            return std::nullopt;
        }
        out.emplace_back(name, *v);
        pos = vend + 1;
    }
    return out;
}

std::optional<std::vector<std::pair<std::string, double>>>
parseScalingMetrics(const std::string& json, const std::string& label,
                    std::vector<std::string>& errors)
{
    std::vector<std::pair<std::string, double>> out;
    const std::size_t key = json.find("\"scaling\"");
    if (key == std::string::npos)
        return out;  // no sweep in this document; nothing to gate

    const auto fail = [&](const std::string& what) {
        errors.push_back(label + ": scaling table " + what);
        return std::nullopt;
    };

    // The emitter writes the "columns" array on one line and each
    // row as one bracketed line with no nested arrays, so bracket
    // scanning is exact (same contract as the metrics parser: this
    // reads ResultsJsonWriter's output, not general JSON).
    const std::size_t cols_key = json.find("\"columns\"", key);
    const std::size_t cols_open =
            cols_key == std::string::npos ? cols_key
                                          : json.find('[', cols_key);
    const std::size_t cols_close = cols_open == std::string::npos
            ? cols_open
            : json.find(']', cols_open);
    if (cols_close == std::string::npos)
        return fail("has no \"columns\" array");
    std::vector<std::string> columns;
    std::size_t pos = cols_open + 1;
    while (true) {
        const std::size_t q1 = json.find('"', pos);
        if (q1 == std::string::npos || q1 > cols_close)
            break;
        const std::size_t q2 = json.find('"', q1 + 1);
        if (q2 == std::string::npos || q2 > cols_close)
            return fail("has an unterminated column name");
        columns.push_back(json.substr(q1 + 1, q2 - q1 - 1));
        pos = q2 + 1;
    }
    const auto col_index = [&](std::string_view name) {
        for (std::size_t i = 0; i < columns.size(); ++i)
            if (columns[i] == name)
                return static_cast<std::ptrdiff_t>(i);
        return std::ptrdiff_t{-1};
    };
    const std::ptrdiff_t producers_col = col_index("producers");
    const std::ptrdiff_t shards_col = col_index("shards");
    if (producers_col < 0 || shards_col < 0)
        return fail("is missing a producers/shards column");

    const std::size_t rows_key = json.find("\"rows\"", cols_close);
    const std::size_t rows_open =
            rows_key == std::string::npos ? rows_key
                                          : json.find('[', rows_key);
    if (rows_open == std::string::npos)
        return fail("has no \"rows\" array");
    pos = rows_open + 1;
    while (true) {
        const std::size_t next = json.find_first_of("[]", pos);
        if (next == std::string::npos)
            return fail("has an unterminated \"rows\" array");
        if (json[next] == ']')
            break;  // end of the rows array
        const std::size_t row_close = json.find(']', next);
        if (row_close == std::string::npos)
            return fail("has an unterminated row");
        // Split the row's cells at commas (cells contain no nesting
        // and no commas).
        std::vector<std::string> cells;
        std::size_t cell_begin = next + 1;
        while (cell_begin < row_close) {
            std::size_t cell_end = json.find(',', cell_begin);
            if (cell_end == std::string::npos || cell_end > row_close)
                cell_end = row_close;
            cells.push_back(trim(
                    json.substr(cell_begin, cell_end - cell_begin)));
            cell_begin = cell_end + 1;
        }
        if (cells.size() != columns.size())
            return fail("has a row with " + std::to_string(cells.size())
                        + " cells for " + std::to_string(columns.size())
                        + " columns");
        const auto cell_number = [&](std::size_t i) {
            return vpred::parseDouble(cells[i]);
        };
        const auto producers =
                cell_number(static_cast<std::size_t>(producers_col));
        const auto shards =
                cell_number(static_cast<std::size_t>(shards_col));
        if (!producers || !shards)
            return fail("has a non-numeric producers/shards cell");
        const std::string stem = "scaling_p"
                + std::to_string(static_cast<long long>(*producers))
                + "_s"
                + std::to_string(static_cast<long long>(*shards));
        // Only the throughput column becomes a gated metric. The
        // per-row latency quantiles are deliberately left out: the
        // smoke sweep runs a far smaller stream population than the
        // committed grid, which moves tail latency by integer
        // factors while per-row throughput stays comparable — gating
        // them would fail every reduced-scale run on regime, not
        // regression.
        for (std::size_t i = 0; i < columns.size(); ++i) {
            const std::string name = stem + "_" + columns[i];
            if (!isThroughputMetric(name))
                continue;
            const auto v = cell_number(i);
            if (!v)
                return fail("has a non-numeric \"" + columns[i]
                            + "\" cell");
            out.emplace_back(name, *v);
        }
        pos = row_close + 1;
    }
    return out;
}

Comparison
compare(const std::string& baseline_json, const std::string& fresh_json,
        double threshold, double latency_threshold)
{
    Comparison cmp;
    auto base = parseMetrics(baseline_json, "baseline", cmp.errors);
    auto fresh = parseMetrics(fresh_json, "fresh", cmp.errors);
    const auto base_scaling =
            parseScalingMetrics(baseline_json, "baseline", cmp.errors);
    const auto fresh_scaling =
            parseScalingMetrics(fresh_json, "fresh", cmp.errors);
    if (!base || !fresh || !base_scaling || !fresh_scaling)
        return cmp;
    base->insert(base->end(), base_scaling->begin(),
                 base_scaling->end());
    fresh->insert(fresh->end(), fresh_scaling->begin(),
                  fresh_scaling->end());

    std::map<std::string, double> fresh_by_name(fresh->begin(),
                                                fresh->end());
    // A gated side is usable iff it is finite and strictly positive:
    // a zero rate means the bench never ran, a 0 ns quantile means
    // the producer timestamps were clamped or missing, and a NaN is
    // a malformed document that parsed as the literal "nan". Either
    // used to be skipped silently, turning a corrupted baseline into
    // a vacuous pass.
    const auto usable = [](double v) {
        return std::isfinite(v) && v > 0.0;
    };
    for (const auto& [name, bval] : *base) {
        const bool throughput = isThroughputMetric(name);
        const bool latency = isLatencyQuantileMetric(name);
        MetricDelta d;
        d.name = name;
        d.baseline = bval;
        const auto it = fresh_by_name.find(name);
        if (it != fresh_by_name.end()) {
            d.fresh = it->second;
            if ((throughput || latency)
                && (!usable(bval) || !usable(it->second))) {
                d.incomparable = true;
            } else if (usable(bval)) {
                d.ratio = it->second / bval;
            }
            if (d.ratio) {
                d.regressed = throughput
                        ? *d.ratio < 1.0 - threshold
                        : latency && *d.ratio > 1.0 + latency_threshold;
            }
            fresh_by_name.erase(it);
        } else if ((throughput || latency) && !usable(bval)) {
            // A corrupt baseline with no fresh counterpart is still a
            // corrupt baseline; refuse to bless it.
            d.incomparable = true;
        }
        cmp.deltas.push_back(std::move(d));
    }
    // Metrics only the fresh run has (new in this build): reported,
    // never a regression. This is what makes latency quantiles
    // comparable by absence — a baseline committed before the
    // quantiles existed gates nothing until it is refreshed.
    for (const auto& [name, fval] : *fresh) {
        if (fresh_by_name.count(name) == 0)
            continue;
        MetricDelta d;
        d.name = name;
        d.fresh = fval;
        cmp.deltas.push_back(std::move(d));
    }
    return cmp;
}

void
printReport(std::ostream& os, const Comparison& cmp, double threshold,
            double latency_threshold)
{
    for (const std::string& e : cmp.errors)
        os << "error: " << e << "\n";
    if (!cmp.errors.empty())
        return;

    const auto old_flags = os.flags();
    const auto old_prec = os.precision();
    os << std::fixed;
    for (const MetricDelta& d : cmp.deltas) {
        os << (d.regressed      ? "REGRESSED "
               : d.incomparable ? "INCOMPARABLE "
                                : "          ")
           << d.name << ": ";
        if (d.baseline)
            os << std::setprecision(3) << *d.baseline;
        else
            os << "(new)";
        os << " -> ";
        if (d.fresh)
            os << std::setprecision(3) << *d.fresh;
        else
            os << "(gone)";
        if (d.ratio)
            os << "  (x" << std::setprecision(3) << *d.ratio << ")";
        os << "\n";
    }
    const std::size_t thr_regressions = static_cast<std::size_t>(
            std::count_if(cmp.deltas.begin(), cmp.deltas.end(),
                          [](const MetricDelta& d) {
                              return d.regressed
                                      && isThroughputMetric(d.name);
                          }));
    const std::size_t lat_regressions = static_cast<std::size_t>(
            std::count_if(cmp.deltas.begin(), cmp.deltas.end(),
                          [](const MetricDelta& d) {
                              return d.regressed
                                      && !isThroughputMetric(d.name);
                          }));
    const std::size_t incomparable = static_cast<std::size_t>(
            std::count_if(cmp.deltas.begin(), cmp.deltas.end(),
                          [](const MetricDelta& d) {
                              return d.incomparable;
                          }));
    os << (thr_regressions + lat_regressions + incomparable == 0
                   ? "OK"
                   : "FAIL")
       << ": " << thr_regressions << " throughput metric(s) more than "
       << std::setprecision(0) << threshold * 100.0
       << "% below baseline, " << lat_regressions
       << " latency quantile(s) more than " << std::setprecision(0)
       << latency_threshold * 100.0 << "% above baseline";
    if (incomparable != 0)
        os << ", " << incomparable
           << " incomparable (zero/NaN gated metric — corrupt baseline"
              " or fresh run?)";
    os << "\n";
    os.flags(old_flags);
    os.precision(old_prec);
}

} // namespace bench_compare

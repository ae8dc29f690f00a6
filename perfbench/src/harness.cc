#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench
{

std::size_t
SpanRecorder::open(const char *name)
{
    Span span;
    span.name = name;
    span.startNs = nowNs();
    span.parent = stack_.empty() ? -1
                                 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    spans_[index].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
SpanRecorder::add(const char *name, std::int64_t start_ns,
                  std::int64_t end_ns)
{
    Span span;
    span.name = name;
    span.startNs = start_ns;
    span.endNs = end_ns;
    span.parent = stack_.empty() ? -1
                                 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back(span);
}

const char *
SpanRecorder::intern(const std::string &name)
{
    return interned_.emplace(name, name).first->second.c_str();
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                span.endNs - span.startNs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &span = spans_[i];
        out[span.name] += static_cast<double>(span.endNs - span.startNs -
                                              child_ns[i]) *
                          1e-9;
    }
    return out;
}

std::map<std::string, std::uint64_t>
SpanRecorder::counts() const
{
    std::map<std::string, std::uint64_t> out;
    for (const Span &span : spans_)
        out[span.name]++;
    return out;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os, const std::string &label,
                               std::size_t max_events) const
{
    std::vector<std::size_t> order(spans_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return spans_[a].startNs < spans_[b].startNs;
                     });
    const std::size_t written = std::min(order.size(), max_events);
    const std::int64_t origin = order.empty() ? 0 : spans_[order[0]].startNs;

    os << "{\"traceEvents\":[\n"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
          "\"tid\":0,\"args\":{\"name\":\"perfbench "
       << label << "\"}},\n"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
          "\"tid\":1,\"args\":{\"name\":\"driver\"}}";
    for (std::size_t k = 0; k < written; k++) {
        const std::size_t i = order[k];
        const Span &span = spans_[i];
        os << ",\n{\"name\":\"" << span.name
           << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":"
           << span.startNs - origin << ",\"dur\":" << span.endNs - span.startNs
           << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
           << ",\"parent\":" << span.parent << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":"
          "\"host-steady-ns\",\"dropped\":"
       << spans_.size() - written << "}}\n";
}

void
setValue(Values &values, const std::string &name, double value)
{
    for (auto &[key, existing] : values) {
        if (key == name) {
            existing = value;
            return;
        }
    }
    values.emplace_back(name, value);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
highestSupportedPercentile(std::size_t n)
{
    for (const double p : {99.9, 99.0, 90.0, 75.0}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0)
            return p;
    }
    return -1.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace perfbench

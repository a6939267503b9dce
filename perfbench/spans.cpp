/**
 * @file
 * SpanLog: the benchmark's in-memory span recorder.
 */
#include <fstream>
#include <iomanip>

#include "perfbench.hpp"

namespace perfbench {

std::uint32_t
SpanLog::open(const char* name, std::uint32_t parent, std::uint32_t run)
{
    if (!enabled_) {
        return 0;
    }
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.run = run;
    span.name = name;
    span.start = Clock::now();
    spans_.push_back(span);
    return span.id;
}

void
SpanLog::close(std::uint32_t id)
{
    if (id != 0) {
        spans_[id - 1].end = Clock::now();
    }
}

void
SpanLog::add(const char* name, std::uint32_t parent, std::uint32_t run,
             Clock::time_point start, Clock::time_point end)
{
    if (!enabled_) {
        return;
    }
    spans_.push_back(Span{static_cast<std::uint32_t>(spans_.size() + 1),
                          parent, run, name, start, end});
}

bool
SpanLog::write_json(const std::string& path, const std::string& header) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    out << std::fixed << std::setprecision(3);
    out << "{" << header << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << span.id
            << ",\"name\":\"" << span.name << "\",\"start_us\":"
            << us(span.start) << ",\"end_us\":" << us(span.end)
            << ",\"parent\":" << span.parent << ",\"run\":" << span.run
            << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench

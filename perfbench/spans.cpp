#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace segbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

ProcStatus read_proc_status() {
  ProcStatus status;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    fields >> key >> value;
    if (key == "VmRSS:") {
      status.rss_mb = value / 1024.0;
    } else if (key == "VmHWM:") {
      status.hwm_mb = value / 1024.0;
    } else if (key == "Threads:") {
      status.threads = static_cast<std::size_t>(value);
    }
  }
  return status;
}

void ProcSampler::start(Clock::time_point origin) {
  stop();
  // The first sample is taken here, before any span that follows opens.
  samples_.push_back({seconds_since(origin), read_proc_status()});
  running_ = true;
  thread_ = std::thread([this, origin] {
    while (running_) {
      Sample sample;
      sample.status = read_proc_status();
      if (sample.status.threads > 0) {
        sample.status.threads -= 1;  // the sampler's own thread
      }
      sample.t = seconds_since(origin);
      samples_.push_back(sample);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

void ProcSampler::stop() {
  running_ = false;
  if (thread_.joinable()) {
    thread_.join();
  }
}

int SpanLog::open(std::string name, int day) {
  SpanRecord record;
  record.name = std::move(name);
  record.day = day;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_s = now();
  spans_.push_back(std::move(record));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::close(int id) {
  spans_[id].end_s = now();
  open_.pop_back();
}

void SpanLog::annotate(const std::vector<ProcSampler::Sample>& samples) {
  if (samples.empty()) {
    return;
  }
  auto at_or_before = [&](double t) {
    auto it = std::upper_bound(samples.begin(), samples.end(), t,
                               [](double value, const auto& s) { return value < s.t; });
    return it == samples.begin() ? it : it - 1;
  };
  for (auto& span : spans_) {
    if (span.tid != 0) {
      continue;
    }
    const auto first = at_or_before(span.start_s);
    const auto last = at_or_before(span.end_s);
    double peak = first->status.rss_mb;
    std::size_t threads = first->status.threads;
    for (auto it = first; it <= last; ++it) {
      peak = std::max(peak, it->status.rss_mb);
      threads = std::max(threads, it->status.threads);
    }
    span.args["rss_before_mb"] = first->status.rss_mb;
    span.args["rss_peak_delta_mb"] = peak - first->status.rss_mb;
    span.args["hwm_after_mb"] = last->status.hwm_mb;
    span.args["threads_peak"] = static_cast<double>(threads);
  }
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::vector<ProcSampler::Sample>& samples) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* separator = "";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    char head[160];
    std::snprintf(head, sizeof head, "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,",
                  span.tid, span.start_s * 1e6, (span.end_s - span.start_s) * 1e6);
    out << separator << head << "\"name\":\"" << span.name << "\",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"day\":" << span.day;
    for (const auto& [key, value] : span.args) {
      char number[64];
      std::snprintf(number, sizeof number, "%.9g", value);
      out << ",\"" << key << "\":" << number;
    }
    out << "}}";
    separator = ",\n";
  }
  for (const auto& sample : samples) {
    char event[192];
    std::snprintf(event, sizeof event,
                  "{\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,\"name\":\"process\","
                  "\"args\":{\"rss_mb\":%.3f,\"threads\":%zu}}",
                  sample.t * 1e6, sample.status.rss_mb, sample.status.threads);
    out << separator << event;
    separator = ",\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace segbench

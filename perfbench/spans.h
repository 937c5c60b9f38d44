// Span recording for the benchmark's traced run, kept entirely outside the
// program: the driver opens a span around each call it makes into a
// layer's public function. Spans stay in memory and are written out once,
// as Chrome trace JSON, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace segbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// CPU time of the whole process, every thread included. Time the host
/// gives to other tenants, or steals from this VM, does not count, so CPU
/// seconds hold steady where wall seconds swing with the neighbours' load.
double cpu_seconds();

/// VmRSS / VmHWM / Threads from /proc/self/status (zeros where unreadable).
struct ProcStatus {
  double rss_mb = 0.0;
  double hwm_mb = 0.0;
  std::size_t threads = 0;
};
ProcStatus read_proc_status();

/// Samples /proc/self/status every millisecond on a background thread
/// between start() and stop(), so memory and threads that live only inside
/// one call (a pool the call builds and tears down) still show.
class ProcSampler {
 public:
  struct Sample {
    double t = 0.0;  ///< seconds since the origin given to start()
    ProcStatus status;
  };

  ProcSampler() = default;
  ~ProcSampler() { stop(); }
  ProcSampler(const ProcSampler&) = delete;
  ProcSampler& operator=(const ProcSampler&) = delete;

  /// Starts (or resumes) sampling; samples of earlier start/stop rounds
  /// are kept, so one series covers every sampled stretch of the run.
  void start(Clock::time_point origin);
  void stop();
  /// Complete only after stop(). Thread counts exclude the sampler itself.
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::atomic<bool> running_{false};
  std::vector<Sample> samples_;  // written by the sampler thread only
  std::thread thread_;
};

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the log's origin
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 for roots
  int day = -1;          ///< ISP-day id (-1: not tied to a day)
  int tid = 0;           ///< 0 = driver thread, 1 = ingest producer thread
  std::map<std::string, double> args;
};

/// In-memory span log. open()/close() nest on the driver thread; add()
/// records a finished span built elsewhere.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open one.
  int open(std::string name, int day);
  /// Closes span `id`, which must be the innermost open one.
  void close(int id);
  void arg(int id, const std::string& key, double value) { spans_[id].args[key] = value; }
  void add(SpanRecord record) { spans_.push_back(std::move(record)); }
  double now() const { return seconds_since(origin_); }
  Clock::time_point origin() const { return origin_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Adds, from the sampler's series, each driver-thread span's
  /// rss_before_mb, rss_peak_delta_mb (peak VmRSS inside the span minus
  /// VmRSS at its start), hwm_after_mb and threads_peak.
  void annotate(const std::vector<ProcSampler::Sample>& samples);

  /// Writes {"traceEvents": [...]}: one complete ("X") event per span and
  /// counter ("C") events for RSS and thread count.
  bool write_chrome_trace(const std::string& path,
                          const std::vector<ProcSampler::Sample>& samples) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span on a SpanLog that may be null (tracing off).
class Span {
 public:
  Span(SpanLog* log, std::string name, int day)
      : log_(log), id_(log != nullptr ? log->open(std::move(name), day) : -1) {}
  ~Span() {
    if (log_ != nullptr) {
      log_->close(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const std::string& key, double value) {
    if (log_ != nullptr) {
      log_->arg(id_, key, value);
    }
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace segbench

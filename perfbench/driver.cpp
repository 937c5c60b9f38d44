// Workload driver for the segugio benchmark: one process per workload.
//
//   segbench_driver --workload NAME --data DIR --seconds S --trace 0|1 --out RESULT.json
//                   [--scores SCORES.tsv] [--chrome TRACE.json]
//
// It loads the generator's inputs from DIR and times calls into the
// library's public functions from outside; no seg::obs span or timer of
// the program is read. With --trace 0 a run is a series of timed passes
// over the workload's days, each pass calling the public API exactly as a
// deployment would. With --trace 1 untraced passes through the same API
// alternate with passes that compose the same result from the layers'
// public functions (builder -> labels -> prune, extractor -> training set
// -> RandomForest::train, unknown set -> predict_proba) with a span around
// every call, and (daily-retrain only) one composed pass is repeated on a
// single worker. Every pass reports a digest of its scores so the checker
// can prove the passes, and the composition, agree bit for bit. Timed
// stretches are measured both in wall seconds and in CPU seconds of the
// whole process; the gated metrics use the CPU seconds.
//
// The driver only measures and reports; perfbench/run.py turns the result
// file into metrics and decides which ISP-days failed.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/segugio.h"
#include "dns/trace_source.h"
#include "features/extractor.h"
#include "features/training_set.h"
#include "graph/graph_compressed.h"
#include "graph/labeling.h"
#include "graph/oocore.h"
#include "graph/pruning.h"
#include "graph/sharded_builder.h"
#include "ml/random_forest.h"
#include "spans.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace {

using namespace seg;
using segbench::Clock;
using segbench::SpanLog;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "segbench_driver: %s\n", message.c_str());
  std::exit(2);
}

// Order-dependent hash over (name, score bits) in report order.
class Digest {
 public:
  void add(std::string_view name, double score) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof score);
    std::memcpy(&bits, &score, sizeof bits);
    hash_ = util::hash_combine(util::hash_combine(hash_, util::fnv1a64(name)), bits);
  }
  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  std::uint64_t hash_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs and set-up

struct Manifest {
  std::vector<dns::Day> days;
  std::vector<std::uint64_t> records;  // generator's record count per day
};

Manifest read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.txt");
  Manifest manifest;
  std::string key;
  bool complete = false;
  while (in >> key) {
    if (key == "day") {
      dns::Day day = 0;
      std::uint64_t count = 0;
      in >> day >> count;
      manifest.days.push_back(day);
      manifest.records.push_back(count);
    } else if (key == "end") {
      complete = true;
    } else {
      std::string value;
      in >> value;
    }
  }
  if (!complete || manifest.days.empty()) {
    die("incomplete manifest in " + dir);
  }
  return manifest;
}

graph::NameSet read_names(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    die("cannot open " + path);
  }
  graph::NameSet set;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      set.insert(line);
    }
  }
  return set;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    die("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Everything set-up produces. The serial stores stay alive only for
// tap-replay, whose every pass absorbs them into a fresh Pipeline.
struct Inputs {
  dns::PublicSuffixList psl;
  graph::NameSet whitelist;
  std::map<dns::Day, graph::NameSet> blacklists;
  std::unique_ptr<dns::DomainActivityIndex> activity;
  std::unique_ptr<dns::PassiveDnsDb> pdns;
  std::unique_ptr<dns::ShardedActivityIndex> sharded_activity;
  std::unique_ptr<dns::ShardedPassiveDnsDb> sharded_pdns;
  std::unique_ptr<core::Pipeline> pipeline;  // tap-replay only
};

struct SetupTimes {
  double total_s = 0.0;
  double cpu_s = 0.0;
  double load_s = 0.0;
  double absorb_s = 0.0;
};

// Loads the PSL, whitelist, blacklists and history stores, then absorbs the
// stores into their sharded form (inside a Pipeline for tap-replay).
std::unique_ptr<Inputs> set_up(const std::string& dir, const Manifest& manifest,
                               bool streaming, const core::SegugioConfig& config,
                               SpanLog* log, SetupTimes& times) {
  const auto start = Clock::now();
  const double start_cpu = segbench::cpu_seconds();
  auto inputs = std::make_unique<Inputs>();
  {
    segbench::Span span(log, "dns.history.load", -1);
    inputs->psl.add_rules_from_text(read_file(dir + "/psl.txt"));
    inputs->whitelist = read_names(dir + "/whitelist.txt");
    for (const auto day : manifest.days) {
      inputs->blacklists[day] =
          read_names(dir + "/blacklist-day" + std::to_string(day) + ".txt");
    }
    std::ifstream activity(dir + "/activity.txt");
    std::ifstream pdns(dir + "/pdns.txt");
    if (!activity || !pdns) {
      die("cannot open history stores in " + dir);
    }
    inputs->activity =
        std::make_unique<dns::DomainActivityIndex>(dns::DomainActivityIndex::load(activity));
    inputs->pdns = std::make_unique<dns::PassiveDnsDb>(dns::PassiveDnsDb::load(pdns));
  }
  times.load_s = segbench::seconds_since(start);
  {
    segbench::Span span(log, "dns.history.absorb", -1);
    if (streaming) {
      inputs->pipeline =
          std::make_unique<core::Pipeline>(inputs->psl, *inputs->activity, *inputs->pdns, config);
    } else {
      inputs->sharded_activity = std::make_unique<dns::ShardedActivityIndex>();
      inputs->sharded_pdns = std::make_unique<dns::ShardedPassiveDnsDb>();
      inputs->sharded_activity->absorb(*inputs->activity);
      inputs->sharded_pdns->absorb(*inputs->pdns);
      inputs->activity.reset();
      inputs->pdns.reset();
    }
  }
  times.total_s = segbench::seconds_since(start);
  times.cpu_s = segbench::cpu_seconds() - start_cpu;
  times.absorb_s = times.total_s - times.load_s;
  return inputs;
}

// ---------------------------------------------------------------------------
// Results

struct DayResult {
  dns::Day day = 0;
  std::uint64_t records = 0;  // records the program consumed for this day
  std::uint64_t skipped = 0;  // of those, records the out-of-core prepare skipped
  double learn_s = 0.0;       // prepare + train
  double learn_cpu_s = 0.0;   // its CPU time (tap-replay: train alone, after the session)
  double classify_s = 0.0;    // the day's first classify(), part of its lag
  std::vector<double> classify_calls_s;  // every classify() of the day, first included
  std::vector<double> repeat_cpu_s;  // CPU time of each repeated classify()
  double repeat_s = 0.0;      // repeated classify() calls, outside the timed region
  double repeat_total_cpu_s = 0.0;
  double lag_s = 0.0;         // day-cut -> report
  std::uint64_t unknown = 0;  // domains scored
  std::string digest;
  std::string error;
};

struct PassResult {
  std::string kind;  // "api", "composed", "composed-t1"
  double wall_s = 0.0;
  double cpu_s = 0.0;     // CPU time of the timed region, every thread
  double stream_s = 0.0;  // first next() -> last report (tap-replay)
  std::uint64_t stream_records = 0;
  std::uint64_t skipped = 0;
  std::uint64_t dropped = 0;
  util::IngestQueueStats queue;  // tap-replay
  std::vector<DayResult> days;
  std::string error;
};

struct ScoredDay {
  dns::Day day = 0;
  std::vector<std::pair<std::string, double>> scores;
};

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.9g", value);
  return text;
}

// ---------------------------------------------------------------------------
// The per-day work, through the API and as a composition of layer calls

struct Context {
  std::string dir;
  Manifest manifest;
  core::SegugioConfig config;
  Inputs* inputs = nullptr;
  SpanLog* log = nullptr;  // non-null only while a traced pass runs
  std::vector<ScoredDay>* keep_scores = nullptr;  // first API pass only
};

std::string report_digest(const core::DetectionReport& report) {
  Digest digest;
  for (const auto& scored : report.scores) {
    digest.add(scored.name, scored.score);
  }
  return digest.hex();
}

void finish_report(const core::DetectionReport& report, DayResult& result, const Context& ctx) {
  if (ctx.keep_scores != nullptr) {
    auto& keep = ctx.keep_scores->emplace_back();
    keep.day = result.day;
    for (const auto& scored : report.scores) {
      keep.scores.emplace_back(scored.name, scored.score);
    }
  }
  result.unknown = report.scores.size();
  result.digest = report_digest(report);
  result.classify_calls_s.push_back(result.classify_s);
}

// classify() calls per ISP-day in an API pass. One call takes 20-90 ms, so
// the classify rate needs many calls; the repeats run after the day's
// report, outside the timed region, with nothing else running in the
// process, and must score exactly as the first call did.
constexpr int kClassifyCalls = 6;

template <typename ClassifyFn>
void repeat_classify(const ClassifyFn& classify, DayResult& result) {
  const auto start = Clock::now();
  const double start_cpu = segbench::cpu_seconds();
  for (int i = 1; i < kClassifyCalls; ++i) {
    const auto call_start = Clock::now();
    const double call_cpu = segbench::cpu_seconds();
    const core::DetectionReport report = classify();
    result.repeat_cpu_s.push_back(segbench::cpu_seconds() - call_cpu);
    result.classify_calls_s.push_back(segbench::seconds_since(call_start));
    if (result.error.empty() && report_digest(report) != result.digest) {
      result.error = "a repeated classify() scored differently";
    }
  }
  result.repeat_s = segbench::seconds_since(start);
  result.repeat_total_cpu_s = segbench::cpu_seconds() - start_cpu;
}

// The composed train (only when `forest` is empty, which it then fills) and
// classify of one prepared graph, with a span around every layer call.
// Fills the day's scored-domain count, digest and classify time.
template <typename GraphT, typename ActivityT, typename PdnsT>
void composed_learn_classify(const GraphT& graph, const ActivityT& activity, const PdnsT& pdns,
                             const Context& ctx, std::optional<ml::RandomForest>& forest,
                             DayResult& result) {
  SpanLog* log = ctx.log;
  const int day = static_cast<int>(result.day);
  if (!forest) {
    segbench::Span train(log, "train", day);
    std::optional<features::FeatureExtractor> extractor;
    {
      segbench::Span span(log, "features.extractor", day);
      extractor.emplace(graph, activity, pdns, ctx.config.features);
    }
    std::optional<features::TrainingSetResult> training;
    {
      segbench::Span span(log, "features.train_set", day);
      training.emplace(features::build_training_set(graph, *extractor, ctx.config.training));
      span.arg("rows", static_cast<double>(training->dataset.num_rows()));
    }
    {
      segbench::Span span(log, "ml.forest.fit", day);
      forest.emplace(ctx.config.forest);
      forest->train(training->dataset);
      span.arg("rows", static_cast<double>(training->dataset.num_rows()));
    }
  }
  const auto classify_start = Clock::now();
  {
    segbench::Span classify(log, "classify", day);
    std::optional<features::FeatureExtractor> extractor;
    {
      segbench::Span span(log, "features.extractor", day);
      extractor.emplace(graph, activity, pdns, ctx.config.features);
    }
    std::optional<features::UnknownSet> unknown;
    {
      segbench::Span span(log, "features.unknown_set", day);
      unknown.emplace(features::build_unknown_set(graph, *extractor));
      span.arg("rows", static_cast<double>(unknown->domain_ids.size()));
    }
    std::vector<double> scores(unknown->domain_ids.size());
    {
      segbench::Span span(log, "ml.forest.score", day);
      util::parallel_for(scores.size(), [&](std::size_t row) {
        scores[row] = forest->predict_proba(unknown->dataset.row(row));
      });
      span.arg("rows", static_cast<double>(scores.size()));
    }
    Digest digest;
    for (std::size_t row = 0; row < scores.size(); ++row) {
      digest.add(graph.domain_name(unknown->domain_ids[row]), scores[row]);
    }
    result.unknown = scores.size();
    result.digest = digest.hex();
  }
  result.classify_s = segbench::seconds_since(classify_start);
}

// daily-retrain: prepare_graph -> train -> classify for one in-memory day.
DayResult batch_day(const dns::DayTrace& trace, const Context& ctx, bool composed) {
  DayResult result;
  result.day = trace.day;
  result.records = trace.records.size();
  const auto& inputs = *ctx.inputs;
  const auto& blacklist = inputs.blacklists.at(trace.day);
  SpanLog* log = ctx.log;
  const int day = static_cast<int>(trace.day);
  segbench::Span day_span(log, "day", day);
  const auto start = Clock::now();
  const double start_cpu = segbench::cpu_seconds();
  if (!composed) {
    const auto prep = core::Segugio::prepare_graph(trace, inputs.psl, blacklist, inputs.whitelist,
                                                   ctx.config.prepare_options());
    core::Segugio segugio(ctx.config);
    segugio.train(prep.graph, *inputs.sharded_activity, *inputs.sharded_pdns);
    result.learn_s = segbench::seconds_since(start);
    result.learn_cpu_s = segbench::cpu_seconds() - start_cpu;
    auto classify = [&] {
      return segugio.classify(prep.graph, *inputs.sharded_activity, *inputs.sharded_pdns);
    };
    const auto classify_start = Clock::now();
    const auto report = classify();
    result.classify_s = segbench::seconds_since(classify_start);
    result.lag_s = result.learn_s + result.classify_s;
    finish_report(report, result, ctx);
    repeat_classify(classify, result);
    return result;
  }

  std::optional<graph::MachineDomainGraph> pruned;
  {
    segbench::Span prepare(log, "prepare", day);
    std::optional<graph::MachineDomainGraph> built;
    {
      segbench::Span span(log, "graph.build", day);
      graph::ShardedGraphBuilder builder(inputs.psl);
      builder.add_trace(trace);
      built.emplace(builder.build());
      span.arg("records", static_cast<double>(trace.records.size()));
      span.arg("edges", static_cast<double>(built->edge_count()));
    }
    {
      segbench::Span span(log, "graph.label", day);
      graph::apply_labels(*built, blacklist, inputs.whitelist);
    }
    {
      segbench::Span span(log, "graph.prune", day);
      pruned.emplace(graph::prune(*built, ctx.config.pruning));
      span.arg("edges_kept_ratio", built->edge_count() > 0
                                       ? static_cast<double>(pruned->edge_count()) /
                                             static_cast<double>(built->edge_count())
                                       : 0.0);
    }
  }
  std::optional<ml::RandomForest> forest;
  composed_learn_classify(*pruned, *inputs.sharded_activity, *inputs.sharded_pdns, ctx, forest,
                          result);
  result.learn_s = segbench::seconds_since(start) - result.classify_s;
  result.lag_s = result.learn_s + result.classify_s;
  return result;
}

// oocore-bigday: prepare_graph_out_of_core -> map_graph -> train/classify on
// the mapped view.
DayResult oocore_day(dns::Day day_id, const Context& ctx, bool composed) {
  DayResult result;
  result.day = day_id;
  const auto& inputs = *ctx.inputs;
  SpanLog* log = ctx.log;
  const int day = static_cast<int>(day_id);
  const std::string trace_path = ctx.dir + "/day" + std::to_string(day_id) + ".bin";
  const std::string graph_path = ctx.dir + "/day" + std::to_string(day_id) + ".graphc";
  segbench::Span day_span(log, "day", day);
  const auto start = Clock::now();
  const double start_cpu = segbench::cpu_seconds();
  std::optional<graph::MappedGraph> mapped;
  {
    segbench::Span prepare(log, "prepare", day);
    graph::OutOfCoreConfig oocore;
    oocore.pruning = ctx.config.pruning;
    {
      segbench::Span span(log, "graph.oocore", day);
      const auto out = graph::prepare_graph_out_of_core(trace_path, inputs.psl,
                                                        inputs.blacklists.at(day_id),
                                                        inputs.whitelist, graph_path, oocore);
      result.records = out.records;
      result.skipped = out.skipped_records;
      span.arg("spill_bytes", static_cast<double>(out.spill_bytes));
      span.arg("spill_segments", static_cast<double>(out.spill_segments));
    }
    {
      segbench::Span span(log, "graph.graphc", day);
      mapped.emplace(graph::map_graph(graph_path));
      span.arg("bytes", static_cast<double>(mapped->file.size()));
    }
  }
  if (composed) {
    std::optional<ml::RandomForest> forest;
    composed_learn_classify(mapped->view, *inputs.sharded_activity, *inputs.sharded_pdns, ctx,
                            forest, result);
    result.learn_s = segbench::seconds_since(start) - result.classify_s;
  } else {
    core::Segugio segugio(ctx.config);
    segugio.train(mapped->view, *inputs.sharded_activity, *inputs.sharded_pdns);
    result.learn_s = segbench::seconds_since(start);
    result.learn_cpu_s = segbench::cpu_seconds() - start_cpu;
    auto classify = [&] {
      return segugio.classify(mapped->view, *inputs.sharded_activity, *inputs.sharded_pdns);
    };
    const auto classify_start = Clock::now();
    const auto report = classify();
    result.classify_s = segbench::seconds_since(classify_start);
    finish_report(report, result, ctx);
    repeat_classify(classify, result);
  }
  result.lag_s = result.learn_s + result.classify_s;
  mapped.reset();
  std::remove(graph_path.c_str());
  return result;
}

// Heap-vs-mmap check for oocore-bigday: the same day prepared on the heap
// by Segugio::prepare_graph, trained and classified there. Its digest must
// equal the mapped-graph digest.
DayResult heap_day(const dns::DayTrace& trace, const Context& ctx) {
  Context quiet = ctx;
  quiet.log = nullptr;
  quiet.keep_scores = nullptr;
  return batch_day(trace, quiet, /*composed=*/false);
}

// ---------------------------------------------------------------------------
// tap-replay: the capture through FileTraceSource into one ingest_stream
// session.

// Wraps the capture source. Records, per day, when the source yields the
// first record of the next day (or EOF) — the day-cut — and counts records.
// With `time_calls` it also sums the time spent inside next(): the wire
// decode layer's busy time.
class TapSource final : public dns::TraceSource {
 public:
  TapSource(dns::TraceSource& inner, Clock::time_point origin, bool time_calls)
      : inner_(inner), origin_(origin), time_calls_(time_calls) {}

  bool next(dns::QueryRecord& record) override {
    const auto start = Clock::now();
    if (!started_) {
      started_ = true;
      first_call_s_ = seconds(start);
    }
    const bool more = inner_.next(record);
    const bool cut = !more || !have_day_ || record.day != day_;
    if (cut) {
      const double at = seconds(Clock::now());
      std::lock_guard lock(mutex_);
      if (have_day_) {
        days_[day_].cut_s = at;
      }
      if (more) {
        day_ = record.day;
        have_day_ = true;
        current_ = &days_[day_];
        current_->first_s = at;
      }
    }
    // Only this (producer) thread writes *current_; the consumer reads
    // nothing but cut_s, under the mutex.
    if (current_ != nullptr) {
      if (more) {
        ++current_->records;
      }
      if (time_calls_) {
        const auto end = Clock::now();
        current_->busy_s += std::chrono::duration<double>(end - start).count();
        current_->last_s = seconds(end);
      }
    }
    return more;
  }
  std::uint64_t skipped() const override { return inner_.skipped(); }

  struct DayStats {
    double first_s = 0.0;  // first record of the day yielded
    double last_s = 0.0;   // end of the day's last next() call (timed only)
    double cut_s = -1.0;   // day-cut; -1 until it happens
    double busy_s = 0.0;
    std::uint64_t records = 0;
  };
  double cut_s(dns::Day day) const {
    std::lock_guard lock(mutex_);
    const auto it = days_.find(day);
    return it != days_.end() ? it->second.cut_s : -1.0;
  }
  double first_call_s() const { return first_call_s_; }
  // Read only after the session has joined the producer thread.
  const std::map<dns::Day, DayStats>& days() const { return days_; }

 private:
  double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  dns::TraceSource& inner_;
  Clock::time_point origin_;
  bool time_calls_;
  bool started_ = false;
  double first_call_s_ = 0.0;
  bool have_day_ = false;
  dns::Day day_ = 0;
  DayStats* current_ = nullptr;
  mutable std::mutex mutex_;
  std::map<dns::Day, DayStats> days_;  // structure guarded by mutex_ while streaming
};

PassResult tap_pass(const Context& ctx, core::Pipeline& pipeline, bool composed) {
  PassResult pass;
  pass.kind = composed ? "composed" : "api";
  const auto& inputs = *ctx.inputs;
  SpanLog* log = ctx.log;
  const auto origin = log != nullptr ? log->origin() : Clock::now();
  auto seconds = [&] { return segbench::seconds_since(origin); };

  dns::FileTraceSource file(ctx.dir + "/capture.dnstap", dns::TraceFormat::kDnstap);
  TapSource tap(file, origin, composed);
  std::optional<ml::RandomForest> forest;
  std::vector<core::PreparedDay> kept;  // API pass: for the repeated classify() calls
  double last_report_s = 0.0;
  const int pass_span = log != nullptr ? log->open(composed ? "pass.composed" : "pass.api", -1)
                                       : -1;
  const double start_s = seconds();
  const double start_cpu = segbench::cpu_seconds();

  auto on_day = [&](core::PreparedDay&& prepared) {
    DayResult result;
    result.day = prepared.day;
    const int day = static_cast<int>(prepared.day);
    const double arrived_s = seconds();
    const double cut_s = tap.cut_s(prepared.day);
    if (log != nullptr) {
      segbench::SpanRecord gap;
      gap.name = "core.pipeline.day_gap";
      gap.start_s = cut_s;
      gap.end_s = arrived_s;
      gap.parent = pass_span;
      gap.day = day;
      gap.args["reuse_ratio"] = prepared.carry.reuse_ratio();
      log->add(std::move(gap));
    }
    // The day's prepare runs in the session between the day-cut and
    // on_day; the training day adds train().
    if (!composed) {
      if (!pipeline.detector().is_trained()) {
        pipeline.train(prepared);
      }
      result.learn_s = seconds() - cut_s;
      const double classify_start = seconds();
      const auto report = pipeline.classify(prepared);
      result.classify_s = seconds() - classify_start;
      finish_report(report, result, ctx);
    } else {
      composed_learn_classify(prepared.graph, pipeline.activity(), pipeline.pdns(), ctx, forest,
                              result);
      result.learn_s = seconds() - cut_s - result.classify_s;
    }
    last_report_s = seconds();
    result.lag_s = last_report_s - cut_s;
    pass.days.push_back(std::move(result));
    if (!composed) {
      kept.push_back(std::move(prepared));
    }
  };

  try {
    const auto stats = pipeline.ingest_stream(
        tap, [&](dns::Day day) -> const graph::NameSet& { return inputs.blacklists.at(day); },
        inputs.whitelist, on_day);
    pass.skipped = stats.wire_skipped;
    pass.dropped = stats.queue.dropped_records + stats.queue.sampled_out_records;
    pass.stream_records = stats.records;
    pass.queue = stats.queue;
  } catch (const std::exception& error) {
    pass.error = error.what();
  }
  pass.wall_s = seconds() - start_s;
  pass.cpu_s = segbench::cpu_seconds() - start_cpu;
  pass.stream_s = last_report_s - tap.first_call_s();
  // After the session, with no producer thread running: the repeated
  // classify() calls, and a fresh detector trained on each streamed day's
  // graph (the session itself trains once). The one trained on the
  // session's training day must score that day as the session did.
  for (std::size_t i = 0; i < kept.size(); ++i) {  // kept[i] is pass.days[i]'s day
    DayResult& result = pass.days[i];
    repeat_classify([&] { return pipeline.classify(kept[i]); }, result);
    const double train_cpu = segbench::cpu_seconds();
    core::Segugio fresh(ctx.config);
    fresh.train(kept[i].graph, pipeline.activity(), pipeline.pdns());
    result.learn_cpu_s = segbench::cpu_seconds() - train_cpu;
    if (i == 0 && result.error.empty() &&
        report_digest(fresh.classify(kept[i].graph, pipeline.activity(), pipeline.pdns())) !=
            result.digest) {
      result.error = "a detector retrained on the training day scored it differently";
    }
  }
  for (auto& day : pass.days) {
    const auto it = tap.days().find(day.day);
    if (it != tap.days().end()) {
      day.records = it->second.records;
    }
  }
  if (log != nullptr) {
    log->close(pass_span);
    if (composed) {
      for (const auto& [day, stats] : tap.days()) {
        segbench::SpanRecord wire;
        wire.name = "dns.wire";
        wire.start_s = stats.first_s;
        wire.end_s = stats.last_s;
        wire.tid = 1;
        wire.day = static_cast<int>(day);
        wire.args["busy_s"] = stats.busy_s;
        wire.args["records"] = static_cast<double>(stats.records);
        log->add(std::move(wire));
      }
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Per-layer numbers from the span log

// Sums, per span name, the self time of every span under the given pass
// root (direct or nested). Only spans opened by this thread are nested.
std::map<std::string, double> self_times_under(const SpanLog& log, std::size_t root) {
  std::map<std::string, double> totals;
  const auto& spans = log.spans();
  std::vector<double> child_time(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child_time[span.parent] += span.end_s - span.start_s;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int up = spans[i].parent;
    while (up >= 0 && static_cast<std::size_t>(up) != root) {
      up = spans[up].parent;
    }
    if (up < 0) {
      continue;
    }
    const double self = spans[i].end_s - spans[i].start_s - child_time[i];
    // The classify-side extractor is kept apart from the train-side one so
    // it can be charged to classification.
    std::string name = spans[i].name;
    if (name == "features.extractor" && spans[i].parent >= 0 &&
        spans[spans[i].parent].name == "classify") {
      totals["features.extractor.classify"] += self;
    }
    totals[name] += self;
    // Counts add up over the pass; memory growth and thread count are the
    // largest any one call of the layer showed.
    for (const auto& [key, value] : spans[i].args) {
      if (key == "rss_peak_delta_mb") {
        totals[name + ".rss_delta_mb"] = std::max(totals[name + ".rss_delta_mb"], value);
      } else if (key == "threads_peak") {
        totals[name + ".threads"] = std::max(totals[name + ".threads"], value);
      } else if (key != "rss_before_mb" && key != "hwm_after_mb") {
        totals[name + "." + key] += value;
      }
    }
    totals[name + ".calls"] += 1.0;
  }
  return totals;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::string dir;
  std::string out;
  std::string scores;
  std::string chrome;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--data") {
      options.dir = value;
    } else if (flag == "--out") {
      options.out = value;
    } else if (flag == "--scores") {
      options.scores = value;
    } else if (flag == "--chrome") {
      options.chrome = value;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      die("unknown flag " + std::string(flag));
    }
  }
  if (options.workload.empty() || options.dir.empty() || options.out.empty()) {
    die("usage: segbench_driver --workload W --data DIR --seconds S --trace 0|1 --out FILE");
  }
  return options;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? static_cast<std::size_t>(CPU_COUNT(&set))
                                                     : 0;
}

std::vector<dns::DayTrace> decode_days(const std::string& dir, const Manifest& manifest) {
  std::vector<dns::DayTrace> traces;
  for (const auto day : manifest.days) {
    dns::FileTraceSource source(dir + "/day" + std::to_string(day) + ".bin",
                                dns::TraceFormat::kBinlog);
    dns::collect_days(source, [&](dns::DayTrace&& trace) { traces.push_back(std::move(trace)); });
  }
  return traces;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const std::string& workload = options.workload;
  if (workload != "daily-retrain" && workload != "tap-replay" && workload != "oocore-bigday") {
    die("unknown workload " + workload);
  }
  const bool streaming = workload == "tap-replay";
  const double base_rss_mb = segbench::read_proc_status().rss_mb;

  Context ctx;
  ctx.dir = options.dir;
  ctx.manifest = read_manifest(options.dir);
  SpanLog log;
  SpanLog* trace_log = options.trace ? &log : nullptr;
  segbench::ProcSampler sampler;
  if (options.trace) {
    sampler.start(log.origin());
  }

  // Set-up, three times; the last one's inputs are kept.
  constexpr int kSetups = 3;
  std::vector<SetupTimes> setups;
  double history_rss_delta_mb = 0.0;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs.reset();
    SetupTimes times;
    const double rss_before = segbench::read_proc_status().rss_mb;
    inputs = set_up(options.dir, ctx.manifest, streaming, ctx.config,
                    i + 1 == kSetups ? trace_log : nullptr, times);
    setups.push_back(times);
    if (i == 0) {
      history_rss_delta_mb = segbench::read_proc_status().rss_mb - rss_before;
    }
  }
  ctx.inputs = inputs.get();

  std::vector<dns::DayTrace> traces;
  if (workload == "daily-retrain") {
    traces = decode_days(options.dir, ctx.manifest);
  }

  std::vector<PassResult> passes;
  std::vector<ScoredDay> scores;
  std::vector<DayResult> checks;  // one-off reference results (heap check)
  const auto run_start = Clock::now();

  // One pass over the workload's timed days. daily-retrain's first day is
  // its warm-up day and is never timed.
  auto run_pass = [&](const std::string& kind) {
    const bool composed = kind != "api";
    PassResult pass;
    pass.kind = kind;
    if (streaming) {
      std::unique_ptr<core::Pipeline> fresh;
      if (inputs->pipeline == nullptr) {
        fresh = std::make_unique<core::Pipeline>(inputs->psl, *inputs->activity, *inputs->pdns,
                                                 ctx.config);
      }
      core::Pipeline& pipeline = fresh ? *fresh : *inputs->pipeline;
      pass = tap_pass(ctx, pipeline, composed);
      pass.kind = kind;
      inputs->pipeline.reset();
      return pass;
    }
    const int pass_span = ctx.log != nullptr ? log.open("pass." + kind, -1) : -1;
    const auto start = Clock::now();
    const double start_cpu = segbench::cpu_seconds();
    std::size_t first = workload == "daily-retrain" ? 1 : 0;
    for (std::size_t i = first; i < ctx.manifest.days.size(); ++i) {
      const dns::Day day = ctx.manifest.days[i];
      try {
        pass.days.push_back(workload == "daily-retrain" ? batch_day(traces[i], ctx, composed)
                                                        : oocore_day(day, ctx, composed));
      } catch (const std::exception& error) {
        DayResult failed;
        failed.day = day;
        failed.error = std::string("threw: ") + error.what();
        pass.days.push_back(failed);
      }
    }
    pass.wall_s = segbench::seconds_since(start);
    pass.cpu_s = segbench::cpu_seconds() - start_cpu;
    for (const auto& day : pass.days) {
      pass.wall_s -= day.repeat_s;
      pass.cpu_s -= day.repeat_total_cpu_s;
    }
    if (pass_span >= 0) {
      log.close(pass_span);
    }
    return pass;
  };

  if (workload == "daily-retrain") {
    (void)batch_day(traces.front(), ctx, /*composed=*/false);  // warm-up day
  }

  double peak_rss_mb = 0.0;
  if (!options.trace) {
    // Passes repeat while the next one is expected to end, at the latest,
    // half a pass past the time limit.
    ctx.keep_scores = &scores;
    double pass_s = 0.0;
    do {
      const auto pass_start = Clock::now();
      passes.push_back(run_pass("api"));
      pass_s = segbench::seconds_since(pass_start);
      ctx.keep_scores = nullptr;
    } while (segbench::seconds_since(run_start) + 0.5 * pass_s < options.seconds);
    peak_rss_mb = segbench::read_proc_status().hwm_mb;
  } else {
    // Untraced API passes (no spans, sampler stopped) alternate with traced
    // composed passes, so drift over the run hits both sides of the
    // tracing-overhead difference alike. The first API pass is the digest
    // reference.
    sampler.stop();
    double pair_s = 0.0;
    do {
      const auto pair_start = Clock::now();
      passes.push_back(run_pass("api"));
      sampler.start(log.origin());
      ctx.log = trace_log;
      passes.push_back(run_pass("composed"));
      ctx.log = nullptr;
      sampler.stop();
      pair_s = segbench::seconds_since(pair_start);
    } while (segbench::seconds_since(run_start) + 0.5 * pair_s < options.seconds);
    if (workload == "daily-retrain") {
      sampler.start(log.origin());
      ctx.log = trace_log;
      util::set_parallelism(1);
      passes.push_back(run_pass("composed-t1"));
      util::set_parallelism(0);
      ctx.log = nullptr;
      sampler.stop();
    }
    log.annotate(sampler.samples());
  }

  if (workload == "oocore-bigday") {
    // Heap-vs-mmap: decode day 0 and run the heap path on it.
    const auto day0 = decode_days(options.dir, Manifest{{ctx.manifest.days.front()}, {0}});
    try {
      checks.push_back(heap_day(day0.front(), ctx));
    } catch (const std::exception& error) {
      DayResult failed;
      failed.day = ctx.manifest.days.front();
      failed.error = std::string("threw: ") + error.what();
      checks.push_back(failed);
    }
  }

  // --- Per-layer numbers (traced run) ---------------------------------
  std::map<std::string, double> layers;
  if (options.trace) {
    const auto& spans = log.spans();
    std::map<std::string, std::vector<double>> per_pass;
    std::map<std::string, double> t1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != -1 || spans[i].name.rfind("pass.", 0) != 0) {
        continue;
      }
      const auto totals = self_times_under(log, i);
      if (spans[i].name == "pass.composed") {
        for (const auto& [name, value] : totals) {
          per_pass[name].push_back(value);
        }
      } else {
        t1 = totals;
      }
    }
    // Pass walls, and for the untraced API passes the time of each day's
    // first classify() call, summed per pass.
    std::vector<double> api_walls;
    std::vector<double> composed_walls;
    std::vector<double> api_classify;
    for (const auto& pass : passes) {
      if (pass.kind == "composed") {
        composed_walls.push_back(pass.wall_s);
      } else if (pass.kind == "api") {
        api_walls.push_back(pass.wall_s);
        double classify = 0.0;
        for (const auto& day : pass.days) {
          classify += day.classify_s;
        }
        api_classify.push_back(classify);
      }
    }
    auto pass_median = [&](const std::string& name) {
      const auto it = per_pass.find(name);
      return it != per_pass.end() ? median(it->second) : 0.0;
    };
    auto per_call = [&](const std::string& name, const std::string& key) {
      const double calls = pass_median(name + ".calls");
      return calls > 0 ? pass_median(name + "." + key) / calls : 0.0;
    };
    for (const char* name :
         {"graph.build", "graph.label", "graph.prune", "graph.oocore", "features.extractor",
          "features.train_set", "features.unknown_set", "ml.forest.fit", "ml.forest.score"}) {
      layers[std::string(name) + ".busy_s"] = pass_median(name);
      layers[std::string(name) + ".busy_s.t1"] = t1.count(name) ? t1.at(name) : 0.0;
    }
    layers["graph.build.records"] = pass_median("graph.build.records");
    layers["graph.build.edges"] = pass_median("graph.build.edges");
    layers["graph.build.rss_delta_mb"] = pass_median("graph.build.rss_delta_mb");
    layers["graph.prune.edges_kept_ratio"] = per_call("graph.prune", "edges_kept_ratio");
    layers["graph.prune.rss_delta_mb"] = pass_median("graph.prune.rss_delta_mb");
    layers["graph.oocore.spill_bytes"] = pass_median("graph.oocore.spill_bytes");
    layers["graph.oocore.spill_segments"] = pass_median("graph.oocore.spill_segments");
    layers["graph.oocore.rss_delta_mb"] = pass_median("graph.oocore.rss_delta_mb");
    layers["graph.graphc.map_s"] = pass_median("graph.graphc");
    layers["graph.graphc.bytes"] = pass_median("graph.graphc.bytes");
    layers["features.train_set.rows"] = pass_median("features.train_set.rows");
    layers["features.unknown_set.rows"] = pass_median("features.unknown_set.rows");
    layers["ml.forest.fit.rows"] = pass_median("ml.forest.fit.rows");
    layers["ml.forest.fit.threads"] = pass_median("ml.forest.fit.threads");
    layers["ml.forest.score.rows"] = pass_median("ml.forest.score.rows");
    // Report assembly: the API classify() call minus what the composition
    // spends on the classify-side extractor, the unknown set and scoring.
    layers["core.report.busy_s"] =
        median(api_classify) - pass_median("features.extractor.classify") -
        pass_median("features.unknown_set") - pass_median("ml.forest.score");
    layers["trace.overhead_s"] = median(composed_walls) - median(api_walls);

    // Wire decode and the day gap come from spans outside the pass trees.
    double wire_busy = 0.0;
    double wire_records = 0.0;
    std::vector<double> gaps;
    std::vector<double> reuse;
    std::size_t composed_passes = composed_walls.size();
    for (const auto& span : spans) {
      if (span.name == "dns.wire") {
        wire_busy += span.args.at("busy_s");
        wire_records += span.args.at("records");
      } else if (span.name == "core.pipeline.day_gap") {
        gaps.push_back(span.end_s - span.start_s);
        reuse.push_back(span.args.at("reuse_ratio"));
      }
    }
    layers["dns.wire.busy_s"] = composed_passes > 0 ? wire_busy / composed_passes : 0.0;
    layers["dns.wire.records"] = composed_passes > 0 ? wire_records / composed_passes : 0.0;
    layers["dns.wire.records_per_s"] = wire_busy > 0 ? wire_records / wire_busy : 0.0;
    layers["dns.wire.wall_share"] =
        composed_passes > 0 ? layers["dns.wire.busy_s"] / median(composed_walls) : 0.0;
    layers["core.pipeline.day_gap_s"] = median(gaps);
    layers["graph.name_cache.reuse_ratio"] = median(reuse);
    // Queue counters: blocked pushes per session (median), the deepest the
    // queue got, and every record dropped or skipped in any session.
    std::vector<double> blocked;
    for (const auto& pass : passes) {
      blocked.push_back(static_cast<double>(pass.queue.blocked_pushes));
      layers["util.ingest_queue.max_depth"] = std::max(
          layers["util.ingest_queue.max_depth"], static_cast<double>(pass.queue.max_depth));
      layers["util.ingest_queue.dropped_records"] += static_cast<double>(pass.dropped);
      layers["dns.wire.skipped"] += static_cast<double>(pass.skipped);
    }
    layers["util.ingest_queue.blocked_pushes"] = median(blocked);

    std::vector<double> load;
    std::vector<double> absorb;
    for (const auto& setup : setups) {
      load.push_back(setup.load_s);
      absorb.push_back(setup.absorb_s);
    }
    layers["dns.history.load_s"] = median(load);
    layers["dns.history.absorb_s"] = median(absorb);
    layers["dns.history.rss_delta_mb"] = history_rss_delta_mb;
    layers["process.base_rss_mb"] = base_rss_mb;
    if (!options.chrome.empty() && !log.write_chrome_trace(options.chrome, sampler.samples())) {
      die("cannot write " + options.chrome);
    }
  }

  // --- Result file ----------------------------------------------------
  std::ofstream out(options.out);
  out << "{\n\"workload\": " << json_string(workload) << ",\n\"trace\": " << options.trace
      << ",\n\"host\": {\"nproc\": " << affinity_cpus()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"seg_threads\": " << util::parallelism() << ", \"build_type\": "
      << json_string(SEGBENCH_BUILD_TYPE) << "},\n\"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << num(setups[i].total_s);
  }
  out << "],\n\"setup_cpu_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << num(setups[i].cpu_s);
  }
  out << "],\n\"peak_rss_mb\": " << num(peak_rss_mb) << ",\n\"expected_records\": [";
  for (std::size_t i = 0; i < ctx.manifest.records.size(); ++i) {
    out << (i ? ", " : "") << "[" << ctx.manifest.days[i] << ", " << ctx.manifest.records[i]
        << "]";
  }
  auto write_day = [&](const DayResult& day) {
    out << "{\"day\": " << day.day << ", \"records\": " << day.records
        << ", \"skipped\": " << day.skipped << ", \"learn_s\": " << num(day.learn_s)
        << ", \"learn_cpu_s\": " << num(day.learn_cpu_s)
        << ", \"classify_s\": " << num(day.classify_s) << ", \"classify_calls_s\": [";
    for (std::size_t i = 0; i < day.classify_calls_s.size(); ++i) {
      out << (i ? ", " : "") << num(day.classify_calls_s[i]);
    }
    out << "], \"repeat_cpu_s\": [";
    for (std::size_t i = 0; i < day.repeat_cpu_s.size(); ++i) {
      out << (i ? ", " : "") << num(day.repeat_cpu_s[i]);
    }
    out << "], \"lag_s\": " << num(day.lag_s) << ", \"unknown\": " << day.unknown
        << ", \"digest\": " << json_string(day.digest) << ", \"error\": " << json_string(day.error)
        << "}";
  };
  out << "],\n\"passes\": [\n";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const auto& pass = passes[p];
    out << (p ? ",\n" : "") << "{\"kind\": " << json_string(pass.kind)
        << ", \"wall_s\": " << num(pass.wall_s) << ", \"cpu_s\": " << num(pass.cpu_s)
        << ", \"stream_s\": " << num(pass.stream_s)
        << ", \"stream_records\": " << pass.stream_records << ", \"skipped\": " << pass.skipped
        << ", \"dropped\": " << pass.dropped << ", \"error\": " << json_string(pass.error)
        << ", \"days\": [";
    for (std::size_t d = 0; d < pass.days.size(); ++d) {
      out << (d ? ", " : "");
      write_day(pass.days[d]);
    }
    out << "]}";
  }
  out << "],\n\"heap_check\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out << (i ? ", " : "");
    write_day(checks[i]);
  }
  out << "],\n\"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    out << (first ? "" : ",\n ") << json_string(name) << ": " << num(value);
    first = false;
  }
  out << "}\n}\n";
  if (!out) {
    die("cannot write " + options.out);
  }

  if (!options.scores.empty()) {
    std::ofstream scores_out(options.scores);
    for (const auto& day : scores) {
      for (const auto& [name, score] : day.scores) {
        scores_out << day.day << '\t' << name << '\t' << num(score) << '\n';
      }
    }
    if (!scores_out) {
      die("cannot write " + options.scores);
    }
  }
  return 0;
}

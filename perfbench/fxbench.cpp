// fxbench: the fxtraf benchmark program.  One process runs one workload
// as a closed loop — a single caller runs the workload's trials back to
// back, pass after pass — and prints its end-to-end metrics, or with
// --trace 1 its per-layer metrics, as the last line of stdout.  See
// README.md beside this file for why each workload exists and what each
// metric measures; run.py builds this binary and is the entry point.
//
// Every layer is measured from outside: fxbench times the public
// calls a campaign makes for each trial and reads the counters those
// calls already return.  Packet trials are driven as construction ->
// Trial::finish() -> destruction (finish() runs the program itself;
// calling run() first would simulate it twice).  Flow trials make the
// calls apps::run_flow_trial makes, one by one, so each can be timed.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "apps/source_registry.hpp"
#include "apps/trial.hpp"
#include "bench/bench_common.hpp"
#include "core/characterization.hpp"
#include "ethernet/topology.hpp"
#include "flow/lowering.hpp"
#include "flow/measure.hpp"
#include "flow/network.hpp"
#include "flow/simulation.hpp"
#include "fx/runtime.hpp"
#include "fxc/parser.hpp"
#include "fxc/sema/predictor.hpp"
#include "pvm/task.hpp"
#include "simcore/coro.hpp"
#include "simcore/simulator.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/streaming.hpp"
#include "trace/digest.hpp"

#ifndef FXBENCH_BUILD_TYPE
#define FXBENCH_BUILD_TYPE "unknown"
#endif

namespace fxtraf::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Bytes the process holds on its heap (glibc's allocated arena bytes
/// plus mmapped blocks); 0 where the C library does not report them.
[[nodiscard]] double heap_in_use_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
#else
  return 0.0;
#endif
}

/// Ends every teardown.  glibc keeps the small blocks a teardown frees
/// in its fast bins and coalesces them only when a later request asks
/// for a large block, usually in the next trial's constructor.  That
/// put 60 ms of the previous trial's frees into the 0.1 ms set-up of a
/// star trial at seed 3.  One large request here makes each teardown
/// pay for its own frees; `volatile` keeps the compiler from dropping
/// the malloc/free pair.
void settle_heap() {
  void* volatile block = std::malloc(std::size_t{1} << 16);
  std::free(block);
}

// ---- Spans ------------------------------------------------------------

/// One timed call: Chrome trace-event "complete" event fields plus the
/// causal parent and the trial it belongs to.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  int trial = -1;   ///< trial id, -1 for a pass
};

/// In-memory span store.  Timing is always on (the end-to-end metrics
/// need it); recording is what --trace 1 adds.
class Tracer {
 public:
  [[nodiscard]] bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  int open(const char* name, int trial, Clock::time_point start) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, ns_of(start), 0, parent, trial});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int index, Clock::time_point end) {
    spans_[static_cast<std::size_t>(index)].end_ns = ns_of(end);
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Self time per span name over spans [first, end): each span's
  /// duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t first) const {
    std::vector<std::int64_t> child_ns(spans_.size() - first, 0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(first)) {
        child_ns[static_cast<std::size_t>(parent) - first] +=
            spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      self[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i - first]) *
          1e-9;
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// chrome://tracing or Perfetto.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"trial\":%d}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<double>(s.start_ns) / 1000.0,
                    static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                    s.parent, s.trial);
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t ns_of(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  bool recording_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Times one call into a layer and, while the tracer records, keeps it
/// as a span nested under the innermost open span.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int trial)
      : tracer_(tracer),
        start_(Clock::now()),
        index_(tracer.recording() ? tracer.open(name, trial, start_) : -1) {}
  ~Span() {
    if (!stopped_) stop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span; returns its duration in seconds.
  double stop() {
    const Clock::time_point end = Clock::now();
    if (index_ >= 0) tracer_.close(index_, end);
    stopped_ = true;
    return std::chrono::duration<double>(end - start_).count();
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int index_;
  bool stopped_ = false;
};

// ---- Workloads --------------------------------------------------------

/// What runs after simulate: the analysis path a campaign applies.
enum class Analysis { kCharacterize, kStreamSummary, kNone, kFlowMeasure };

struct TrialSpec {
  std::string label;
  apps::TrialScenario scenario;
  Analysis analysis = Analysis::kNone;
};

struct Workload {
  std::string name;
  std::vector<TrialSpec> trials;
  /// One pass's wall time on the reference host (README.md).  A run
  /// makes round(--seconds / nominal_pass_s) timed passes, so the work
  /// measured is fixed by --seconds rather than by the program's speed:
  /// two commits time the same passes, and heap growth from pass to
  /// pass (large on pdes-ring) weighs the same in both.
  double nominal_pass_s = 1.0;
};

[[nodiscard]] eth::TopologySpec star_100mb() {
  eth::TopologySpec star;
  star.kind = eth::TopologySpec::Kind::kStar;
  star.link_rate_bps = 100e6;
  return star;
}

/// The six registry kernels at `scale` and `processors` on `topology`,
/// appended to `trials` with labels `prefix` + kernel name.
void add_registry_trials(const std::string& prefix, double scale,
                         int processors, const eth::TopologySpec& topology,
                         bool streamed, std::uint64_t seed,
                         std::vector<TrialSpec>& trials) {
  for (const apps::KernelEntry& entry : apps::all_kernels(scale)) {
    TrialSpec t;
    t.label = prefix + entry.name;
    t.scenario.kernel = entry.name;
    t.scenario.scale = scale;
    t.scenario.processors = processors;
    t.scenario.seed = seed;
    // The figure benches' testbed (1% deschedule).  The trial sizes the
    // host count from `processors`, and the registry supplies each
    // kernel's PVM assembly (T2DFFT's fragment list).
    t.scenario.testbed = bench::paper_testbed(bench::RunOptions{});
    t.scenario.testbed.topology = topology;
    if (streamed) {
      t.scenario.telemetry.enabled = true;
      t.scenario.telemetry.store_packets = false;
      t.analysis = Analysis::kStreamSummary;
    } else {
      t.analysis = Analysis::kCharacterize;
    }
    trials.push_back(std::move(t));
  }
}

/// bench/pdes_scale_sweep's staggered neighbour ring: rank r waits
/// r * 500 ns, then each round sends `bytes` to rank r-1 and receives
/// from r+1, so the fabric sees a pipeline rather than a flood.
[[nodiscard]] fx::FxProgram make_ring(int hosts, int rounds,
                                      std::size_t bytes) {
  fx::FxProgram program;
  program.name = "pdes-ring";
  program.processors = hosts;
  program.rank_body = [rounds, bytes](fx::FxContext& ctx,
                                      int rank) -> sim::Co<void> {
    const int p = ctx.processors();
    pvm::Task& task = ctx.vm().task(rank);
    sim::Simulator& sim = ctx.workstation(rank).simulator();
    co_await sim::delay(sim, sim::nanos(500) * rank);
    const int dst = (rank + p - 1) % p;
    const int src = (rank + 1) % p;
    for (int round = 0; round < rounds; ++round) {
      pvm::MessageBuilder builder = task.make_builder();
      builder.pack_bytes(bytes);
      co_await task.send(dst, builder.finish(/*tag=*/1 + round));
      co_await task.recv(src, /*tag=*/1 + round);
    }
  };
  return program;
}

/// A flow trial of source-registry kernel `source`.
[[nodiscard]] TrialSpec flow_trial(const std::string& source, int processors,
                                   int hosts, double scale,
                                   std::uint64_t seed) {
  TrialSpec t;
  t.label = source + "-p" + std::to_string(processors) + "-h" +
            std::to_string(hosts);
  t.analysis = Analysis::kFlowMeasure;
  t.scenario.kernel = source;
  t.scenario.fidelity = apps::Fidelity::kFlow;
  t.scenario.processors = processors;
  t.scenario.hosts = hosts;
  t.scenario.scale = scale;
  t.scenario.seed = seed;
  t.scenario.testbed.topology = star_100mb();
  t.scenario.telemetry.enabled = true;
  t.scenario.telemetry.store_packets = false;
  return t;
}

/// Sizes are documented in README.md; `smoke` shrinks every workload to
/// well under a second for the self-test.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed,
                                                    bool smoke) {
  Workload w;
  w.name = name;
  if (name == "serial-packet") {
    // The paper's experiment (P=4 on the 10 Mb/s CSMA/CD bus, buffered
    // capture, core::characterize), then the same kernels at P=16 on a
    // 100 Mb/s star with bounded-memory streamed telemetry.
    add_registry_trials("bus-", smoke ? 0.02 : 1.0, 0, eth::TopologySpec{},
                        /*streamed=*/false, seed, w.trials);
    add_registry_trials("star-", smoke ? 0.02 : 0.1, smoke ? 4 : 16,
                        star_100mb(), /*streamed=*/true, seed, w.trials);
    w.nominal_pass_s = 4.0;
  } else if (name == "pdes-ring") {
    const int hosts = smoke ? 64 : 10'000;
    const int rounds = smoke ? 1 : 5;
    const std::size_t bytes = smoke ? 1024 : 16384;
    TrialSpec t;
    t.label = "ring";
    t.analysis = Analysis::kNone;
    t.scenario.kernel = "pdes-ring";
    t.scenario.processors = hosts;
    t.scenario.seed = seed;
    // 3 workers plus the coordinating caller: one thread per core on
    // the 4-vCPU reference host.
    t.scenario.sim_threads = smoke ? 2 : 3;
    t.scenario.testbed.topology = star_100mb();
    t.scenario.make_program = [hosts, rounds, bytes] {
      return make_ring(hosts, rounds, bytes);
    };
    w.trials.push_back(std::move(t));
    w.nominal_pass_s = 3.9;
  } else if (name == "flow-scale") {
    const int dense_p = smoke ? 16 : 256;
    const double scale = smoke ? 0.05 : 1.0;
    w.trials.push_back(flow_trial("fft2d", dense_p, dense_p, scale, seed));
    w.trials.push_back(flow_trial("airshed", dense_p, dense_p, scale, seed));
    w.trials.push_back(
        flow_trial("fft2d", 8, smoke ? 1000 : 1'000'000, scale, seed));
    w.nominal_pass_s = 0.85;
  } else {
    return std::nullopt;
  }
  if (smoke) w.nominal_pass_s = 0.05;
  return w;
}

// ---- One trial --------------------------------------------------------

/// Per-layer counters of one trial (summed over a pass).  Keys are the
/// per-layer metric names; ratio metrics are derived from the sums.
using Counts = std::map<std::string, double>;

struct TrialOutcome {
  std::string error;  ///< empty = the trial passed every check
  trace::TraceDigest digest;
  double fundamental_hz = 0.0;
  double sim_seconds = 0.0;  ///< flow trials (checked against run_trial)
  double setup_s = 0.0;
  double simulate_s = 0.0;
  Counts counts;
  /// Flow trials: the metric registry run_flow_trial would return.
  std::shared_ptr<telemetry::MetricRegistry> metrics;
};

void add_audit_counts(const fault::AuditReport& audit, Counts& c) {
  c["ethernet.collision_drops"] += static_cast<double>(audit.drops_collision);
  c["ethernet.bridge_forwarded"] +=
      static_cast<double>(audit.bridge_frames_forwarded);
  c["ethernet.bridge_flooded"] +=
      static_cast<double>(audit.bridge_flood_copies);
  c["ethernet.queue_drops"] += static_cast<double>(audit.drops_queue);
  c["net.tcp_retransmissions"] +=
      static_cast<double>(audit.tcp_retransmissions);
  c["net.tcp_timeouts"] += static_cast<double>(audit.tcp_timeouts);
  c["net.tcp_fast_retransmits"] +=
      static_cast<double>(audit.tcp_fast_retransmits);
}

TrialOutcome run_packet_trial(const TrialSpec& spec, Tracer& tracer,
                              int id) {
  TrialOutcome o;
  std::unique_ptr<apps::Trial> trial;
  {
    Span setup(tracer, "apps.setup", id);
    trial = std::make_unique<apps::Trial>(spec.scenario);
    o.setup_s = setup.stop();
  }
  apps::TrialRun run;
  const double cpu0 = process_cpu_seconds();
  {
    Span simulate(tracer, "apps.simulate", id);
    run = trial->finish();
    o.simulate_s = simulate.stop();
  }
  const double cpu_s = process_cpu_seconds() - cpu0;
  o.digest = run.digest;
  Counts& c = o.counts;
  const auto events = static_cast<double>(run.events_executed);
  c["simcore.events"] += events;
  c["simcore.allocs"] += run.allocations_per_event * events;
  c["trace.packets"] += static_cast<double>(run.packets_seen);
  c["trace.bytes"] += static_cast<double>(run.digest.total_bytes);
  add_audit_counts(run.audit, c);
  if (pdes::Engine* engine = trial->engine()) {
    const pdes::ShardPlan& plan = engine->shard_plan();
    double max_host_shard = 0.0;
    for (int s = 0; s < plan.shards; ++s) {
      if (s == plan.fabric_shard) continue;
      max_host_shard = std::max(
          max_host_shard,
          static_cast<double>(engine->shard_sim(s).events_executed()));
    }
    c["pdes.windows"] += static_cast<double>(engine->windows());
    c["pdes.events"] += static_cast<double>(engine->events_executed());
    c["pdes.fabric_events"] +=
        static_cast<double>(engine->fabric_sim().events_executed());
    c["pdes.max_host_shard_events"] += max_host_shard;
    c["pdes.cpu_s"] += cpu_s;
    c["pdes.wall_s"] += o.simulate_s;
  }

  switch (spec.analysis) {
    case Analysis::kCharacterize: {
      if (run.capture_truncated || run.packets.size() != run.packets_seen) {
        throw std::runtime_error("buffered capture incomplete");
      }
      Span analysis(tracer, "core.characterize", id);
      const core::TrafficCharacterization ch = core::characterize(run.packets);
      analysis.stop();
      o.fundamental_hz = ch.fundamental.frequency_hz;
      c["core.bandwidth_bins"] += static_cast<double>(ch.bandwidth.size());
      break;
    }
    case Analysis::kStreamSummary: {
      if (!run.streamed) throw std::runtime_error("trial was not streamed");
      Span analysis(tracer, "telemetry.summary", id);
      o.fundamental_hz = run.stream.fundamental_hz;
      c["telemetry.bandwidth_bins"] +=
          static_cast<double>(run.stream.bandwidth_bins);
      c["telemetry.spectral_segments"] +=
          static_cast<double>(run.stream.spectral_segments);
      break;
    }
    case Analysis::kNone:
    case Analysis::kFlowMeasure:
      break;
  }

  Span teardown(tracer, "apps.teardown", id);
  trial.reset();
  run = apps::TrialRun{};
  settle_heap();
  return o;
}

/// The calls apps::run_flow_trial makes (src/apps/flow_trial.cpp), one
/// at a time so that each can be timed.  The chain must keep doing what
/// run_flow_trial does for these scenarios; the warm-up pass checks its
/// digest, simulated time and exported metrics against apps::run_trial.
TrialOutcome run_flow_chain(const TrialSpec& spec, Tracer& tracer, int id) {
  const apps::TrialScenario& scenario = spec.scenario;
  TrialOutcome o;
  const auto kernel = apps::source_kernel_by_name(scenario.kernel);
  if (!kernel) {
    throw std::invalid_argument("no source kernel " + scenario.kernel);
  }

  Span setup(tracer, "flow.setup", id);
  fxc::SourceProgram program;
  {
    Span parse(tracer, "fxc.parse", id);
    program = fxc::parse_source(kernel->source);
    if (scenario.processors > 0) {
      program = fxc::scale_to_processors(program, scenario.processors);
    }
  }
  if (scenario.scale != 1.0) {
    program.iterations = std::max(
        1, static_cast<int>(std::llround(program.iterations * scenario.scale)));
  }
  std::optional<flow::FlowNetwork> network;
  {
    Span build(tracer, "flow.network", id);
    network.emplace(scenario.testbed.topology, scenario.hosts);
  }
  flow::FlowProgram flows;
  {
    Span lower(tracer, "flow.lower", id);
    flow::FlowLoweringOptions lowering;
    lowering.shared_medium = network->shared_bus();
    flows = flow::lower_to_flows(program, lowering);
  }
  flows.name = scenario.kernel;
  const int iterations = flows.iterations;
  flow::FlowSimOptions options;
  options.bandwidth_bin = scenario.telemetry.bandwidth_bin;
  options.keep_bandwidth_series = scenario.telemetry.enabled;
  auto simulator = std::make_unique<sim::Simulator>(scenario.seed);
  std::unique_ptr<flow::FlowSimulation> simulation;
  {
    Span construct(tracer, "flow.construct", id);
    simulation = std::make_unique<flow::FlowSimulation>(
        *simulator, *network, std::move(flows), std::move(options));
  }
  o.setup_s = setup.stop();

  flow::FlowSimResult result;
  {
    Span simulate(tracer, "flow.simulate", id);
    simulation->start();
    simulator->run();
    result = simulation->finish();
    o.simulate_s = simulate.stop();
  }
  flow::MeasuredFundamentals fundamentals;
  {
    Span measure(tracer, "flow.measure", id);
    std::vector<double> pair_bytes;
    pair_bytes.reserve(result.pairs.size());
    for (const flow::PairBytes& p : result.pairs) {
      pair_bytes.push_back(p.capture_bytes);
    }
    flow::FundamentalsInput in;
    in.bandwidth_kbs = result.bandwidth_kbs;
    in.bin_seconds = scenario.telemetry.bandwidth_bin.seconds();
    in.pair_capture_bytes = pair_bytes;
    in.iterations = iterations;
    fundamentals = flow::measure_fundamentals(in);
  }
  const std::uint64_t events_executed = simulator->events_executed();
  const double allocs_per_event =
      simulator->scheduler_stats().allocations_per_event();
  {
    // run_flow_trial's telemetry block: the stream summary and the
    // trial's metric registry.
    Span export_span(tracer, "telemetry.export", id);
    telemetry::StreamSummary stream;
    stream.packets = result.flows_completed;
    stream.bytes =
        static_cast<std::uint64_t>(std::llround(result.capture_bytes));
    stream.span_s = std::max(0.0, result.sim_seconds - result.first_traffic_s);
    stream.digest = result.digest;
    stream.bandwidth_bins = result.bandwidth_kbs.size();
    if (stream.span_s > 0) {
      stream.avg_bandwidth_kbs = result.capture_bytes / 1024.0 / stream.span_s;
    }
    stream.connections = result.connections;
    stream.spectral_segments = 1;
    stream.fundamental_hz = fundamentals.fundamental_hz;
    stream.harmonic_power_fraction = fundamentals.harmonic_power_fraction;
    if (scenario.telemetry.keep_bandwidth_series) {
      stream.bandwidth_series = result.bandwidth_kbs;
    }
    auto metrics = std::make_shared<telemetry::MetricRegistry>();
    metrics->counter("fxtraf_sim_events_total").add(events_executed);
    metrics->gauge("fxtraf_trial_sim_seconds", telemetry::GaugeMerge::kMax)
        .set(result.sim_seconds);
    metrics->counter("fxtraf_flow_flows_completed_total")
        .add(result.flows_completed);
    metrics->gauge("fxtraf_flow_peak_concurrent", telemetry::GaugeMerge::kMax)
        .set(static_cast<double>(result.peak_concurrent_flows));
    telemetry::StreamingAnalyzer::export_metrics(stream, *metrics);
    o.fundamental_hz = stream.fundamental_hz;
    o.metrics = std::move(metrics);
  }
  o.digest = result.digest;
  o.sim_seconds = result.sim_seconds;
  Counts& c = o.counts;
  const auto events = static_cast<double>(events_executed);
  c["simcore.events"] += events;
  c["simcore.allocs"] += allocs_per_event * events;
  c["trace.packets"] += static_cast<double>(result.flows_completed);
  c["trace.bytes"] += static_cast<double>(result.digest.total_bytes);
  c["flow.events"] += events;
  c["flow.flows"] += static_cast<double>(result.flows_completed);
  c["flow.peak_concurrent_flows"] =
      static_cast<double>(result.peak_concurrent_flows);

  Span teardown(tracer, "flow.teardown", id);
  simulation.reset();
  simulator.reset();
  network.reset();
  result = flow::FlowSimResult{};
  settle_heap();
  return o;
}

// ---- Checks -----------------------------------------------------------

/// Expected outputs per (profile, workload, seed, trial, field), read
/// from pins.tsv.  Seed "*" pins a value for every seed.
class Pins {
 public:
  [[nodiscard]] static Pins load(const std::string& path) {
    Pins pins;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read pins file " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string profile, workload, seed, trial, field, value;
      if (!std::getline(fields, profile, '\t') ||
          !std::getline(fields, workload, '\t') ||
          !std::getline(fields, seed, '\t') ||
          !std::getline(fields, trial, '\t') ||
          !std::getline(fields, field, '\t') ||
          !std::getline(fields, value)) {
        throw std::runtime_error("malformed pin line: " + line);
      }
      pins.values_[key(profile, workload, seed, trial, field)] = value;
    }
    return pins;
  }

  [[nodiscard]] const std::string* find(const std::string& profile,
                                        const std::string& workload,
                                        std::uint64_t seed,
                                        const std::string& trial,
                                        const std::string& field) const {
    for (const std::string& s : {std::to_string(seed), std::string("*")}) {
      const auto it = values_.find(key(profile, workload, s, trial, field));
      if (it != values_.end()) return &it->second;
    }
    return nullptr;
  }

 private:
  [[nodiscard]] static std::string key(const std::string& profile,
                                       const std::string& workload,
                                       const std::string& seed,
                                       const std::string& trial,
                                       const std::string& field) {
    return profile + '\t' + workload + '\t' + seed + '\t' + trial + '\t' +
           field;
  }

  std::map<std::string, std::string> values_;
};

/// The outputs a pin can name.  serial-packet pins the full digest and
/// the fundamental (its packet digests must never move); pdes-ring and
/// flow-scale pin counts and bytes, because PDES and cost-model work may
/// legitimately change their digests.
[[nodiscard]] std::map<std::string, std::string> pin_fields(
    const TrialOutcome& o) {
  char hz[64];
  std::snprintf(hz, sizeof hz, "%.12g", o.fundamental_hz);
  return {{"digest", trace::to_string(o.digest)},
          {"fundamental_hz", hz},
          {"packets", std::to_string(o.digest.packet_count)},
          {"bytes", std::to_string(o.digest.total_bytes)}};
}

[[nodiscard]] bool same_value(const std::string& field,
                              const std::string& got,
                              const std::string& want) {
  if (field != "fundamental_hz") return got == want;
  const double g = std::stod(got);
  const double w = std::stod(want);
  return std::abs(g - w) <= 1e-9 * std::max(1.0, std::abs(w));
}

struct CheckContext {
  const Pins* pins = nullptr;
  std::string profile;
  std::string workload;
  std::uint64_t seed = 0;
};

/// Empty when `o` matches its pins and, when given, the same trial's
/// reference outcome from this process's warm-up pass.
[[nodiscard]] std::string check(const CheckContext& ctx,
                                const std::string& label,
                                const TrialOutcome& o,
                                const TrialOutcome* reference) {
  if (o.digest.packet_count == 0) return "no packets captured";
  if (reference != nullptr) {
    if (!(o.digest == reference->digest)) {
      return "digest " + trace::to_string(o.digest) +
             " differs from this run's first pass " +
             trace::to_string(reference->digest);
    }
    if (o.fundamental_hz != reference->fundamental_hz) {
      return "fundamental differs from this run's first pass";
    }
  }
  for (const auto& [field, got] : pin_fields(o)) {
    const std::string* want =
        ctx.pins->find(ctx.profile, ctx.workload, ctx.seed, label, field);
    if (want != nullptr && !same_value(field, got, *want)) {
      return "pin " + field + ": got " + got + ", want " + *want;
    }
  }
  return {};
}

[[nodiscard]] std::string prometheus_text(
    const std::shared_ptr<telemetry::MetricRegistry>& registry) {
  std::ostringstream out;
  if (registry) telemetry::write_prometheus(out, *registry);
  return out.str();
}

/// Once per run, untimed: fxbench's own chain of flow calls must give
/// exactly what apps::run_trial gives for the same scenario.
[[nodiscard]] std::string cross_check_flow(const TrialSpec& spec,
                                           const TrialOutcome& mine) {
  const apps::TrialRun reference = apps::run_trial(spec.scenario);
  if (!(reference.digest == mine.digest)) {
    return "flow chain digest " + trace::to_string(mine.digest) +
           " != run_trial digest " + trace::to_string(reference.digest);
  }
  if (reference.sim_seconds != mine.sim_seconds ||
      reference.stream.fundamental_hz != mine.fundamental_hz) {
    return "flow chain sim time or fundamental differs from run_trial";
  }
  if (prometheus_text(reference.metrics) != prometheus_text(mine.metrics)) {
    return "flow chain metrics differ from run_trial's";
  }
  return {};
}

// ---- Passes -----------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;      ///< pass minus set-up
  double setup_s = 0.0;
  double simulate_s = 0.0;
  double packets = 0.0;
  double heap_retained_bytes = 0.0;  ///< heap in use after minus before
  Counts counts;
  std::map<std::string, double> self_s;  ///< traced passes only
  std::size_t spans = 0;                 ///< spans recorded in the pass
  int attempted = 0;
  int failed = 0;
};

/// Counters sum over a pass's trials; maxima and peaks keep the largest.
void merge_counts(const Counts& from, Counts& into) {
  for (const auto& [key, value] : from) {
    if (key.find(".max_") != std::string::npos ||
        key.find(".peak_") != std::string::npos) {
      into[key] = std::max(into[key], value);
    } else {
      into[key] += value;
    }
  }
}

class Runner {
 public:
  Runner(Workload workload, CheckContext ctx)
      : workload_(std::move(workload)), ctx_(std::move(ctx)) {}

  Tracer& tracer() { return tracer_; }

  /// The untimed warm-up pass: fills caches, allocator pools and lazy
  /// set-up, records each trial's reference outputs, and cross-checks
  /// the flow chain against apps::run_trial.
  PassResult warm_up() { return run_pass(/*warm=*/true); }

  PassResult timed_pass(bool traced) {
    tracer_.set_recording(traced);
    PassResult pass = run_pass(/*warm=*/false);
    tracer_.set_recording(false);
    return pass;
  }

  [[nodiscard]] const std::vector<TrialOutcome>& references() const {
    return references_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  PassResult run_pass(bool warm) {
    PassResult pass;
    const std::size_t first_span = tracer_.spans().size();
    const double heap_before = heap_in_use_bytes();
    const Clock::time_point start = Clock::now();
    {
      Span span(tracer_, "pass", -1);
      for (std::size_t i = 0; i < workload_.trials.size(); ++i) {
        const TrialSpec& spec = workload_.trials[i];
        const int id = next_trial_id_++;
        TrialOutcome o;
        try {
          Span trial_span(tracer_, "trial", id);
          o = spec.scenario.fidelity == apps::Fidelity::kFlow
                  ? run_flow_chain(spec, tracer_, id)
                  : run_packet_trial(spec, tracer_, id);
          o.error = check(ctx_, spec.label, o,
                          warm ? nullptr : &references_[i]);
          if (warm && o.error.empty() &&
              spec.analysis == Analysis::kFlowMeasure) {
            o.error = cross_check_flow(spec, o);
          }
        } catch (const std::exception& e) {
          o.error = std::string("threw: ") + e.what();
        }
        if (warm) references_.push_back(o);
        ++pass.attempted;
        if (!o.error.empty()) {
          ++pass.failed;
          errors_.push_back(workload_.name + "/" + spec.label + ": " +
                            o.error);
        }
        pass.setup_s += o.setup_s;
        pass.simulate_s += o.simulate_s;
        pass.packets += static_cast<double>(o.digest.packet_count);
        merge_counts(o.counts, pass.counts);
      }
    }
    pass.wall_s =
        std::chrono::duration<double>(Clock::now() - start).count() -
        pass.setup_s;
    pass.heap_retained_bytes = heap_in_use_bytes() - heap_before;
    pass.spans = tracer_.spans().size() - first_span;
    if (pass.spans > 0) pass.self_s = tracer_.self_seconds(first_span);
    return pass;
  }

  Workload workload_;
  CheckContext ctx_;
  Tracer tracer_;
  std::vector<TrialOutcome> references_;
  std::vector<std::string> errors_;
  int next_trial_id_ = 0;
};

// ---- Reporting --------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
[[nodiscard]] double median_of(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return median(v);
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[nodiscard]] std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

[[nodiscard]] std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// End-to-end metrics: medians over the timed passes (tracing off).
/// `rss_mib` is the process's peak RSS after its first pass.
[[nodiscard]] std::vector<Metric> end_to_end(
    const std::vector<PassResult>& passes, double rss_mib) {
  return {
      {"wall_s", "s", median_of(passes, [](const PassResult& p) {
         return p.wall_s;
       })},
      {"setup_s", "s", median_of(passes, [](const PassResult& p) {
         return p.setup_s;
       })},
      {"ns_per_packet", "ns", median_of(passes, [](const PassResult& p) {
         return ratio(p.simulate_s * 1e9, p.packets);
       })},
      {"peak_rss_mb", "MiB", rss_mib},
  };
}

/// What recording one span adds to a pass: the time per open/close
/// pair on a scratch tracer that records, minus the same on one that
/// only reads the clock, as every untraced span does.  The median of
/// five batches of 2^16 spans.
[[nodiscard]] double span_record_seconds() {
  constexpr int kSpans = 1 << 16;
  const auto per_span = [](bool recording) {
    Tracer scratch;
    scratch.set_recording(recording);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) Span span(scratch, "calibration", i);
    return std::chrono::duration<double>(Clock::now() - start).count() /
           kSpans;
  };
  std::vector<double> costs;
  for (int batch = 0; batch < 5; ++batch) {
    costs.push_back(per_span(true) - per_span(false));
  }
  return median(costs);
}

/// Per-layer metrics from the traced passes; counters come from the
/// last pass (they repeat exactly from pass to pass).  `rss_end_mib` is
/// the process's peak RSS after every timed pass.
[[nodiscard]] std::vector<Metric> per_layer(
    const std::vector<PassResult>& passes, double rss_end_mib) {
  Counts c = passes.back().counts;
  const auto self = [&passes](const char* span) {
    return median_of(passes, [span](const PassResult& p) {
      const auto it = p.self_s.find(span);
      return it == p.self_s.end() ? 0.0 : it->second;
    });
  };
  const double simulate_s =
      median_of(passes, [](const PassResult& p) { return p.simulate_s; });
  // Passes vary by 10-30% and a pass records 5 to 61 spans, so the
  // difference between traced and untraced pass times is host noise;
  // the overhead is computed from the calibrated cost of one span.
  const double spans_per_pass = median_of(passes, [](const PassResult& p) {
    return static_cast<double>(p.spans);
  });
  return {
      {"simcore.events", "count", c["simcore.events"]},
      {"simcore.ns_per_event", "ns",
       ratio(simulate_s * 1e9, c["simcore.events"])},
      {"simcore.allocs_per_event", "ratio",
       ratio(c["simcore.allocs"], c["simcore.events"])},
      {"ethernet.collision_drops", "count", c["ethernet.collision_drops"]},
      {"ethernet.bridge_forwarded", "count", c["ethernet.bridge_forwarded"]},
      {"ethernet.bridge_flooded", "count", c["ethernet.bridge_flooded"]},
      {"ethernet.queue_drops", "count", c["ethernet.queue_drops"]},
      {"net.tcp_retransmissions", "count", c["net.tcp_retransmissions"]},
      {"net.tcp_timeouts", "count", c["net.tcp_timeouts"]},
      {"net.tcp_fast_retransmits", "count", c["net.tcp_fast_retransmits"]},
      {"trace.packets", "count", c["trace.packets"]},
      {"trace.bytes", "B", c["trace.bytes"]},
      {"core.characterize_s", "s", self("core.characterize")},
      {"core.bandwidth_bins", "count", c["core.bandwidth_bins"]},
      {"telemetry.bandwidth_bins", "count", c["telemetry.bandwidth_bins"]},
      {"telemetry.spectral_segments", "count",
       c["telemetry.spectral_segments"]},
      {"apps.teardown_s", "s", self("apps.teardown")},
      {"apps.heap_retained_mb", "MiB",
       median_of(passes,
                 [](const PassResult& p) { return p.heap_retained_bytes; }) /
           (1024.0 * 1024.0)},
      {"apps.peak_rss_end_mb", "MiB", rss_end_mib},
      {"pdes.windows", "count", c["pdes.windows"]},
      {"pdes.events_per_window", "count",
       ratio(c["pdes.events"], c["pdes.windows"])},
      {"pdes.fabric_event_share", "ratio",
       ratio(c["pdes.fabric_events"], c["pdes.events"])},
      {"pdes.max_host_shard_events", "count", c["pdes.max_host_shard_events"]},
      {"pdes.cpu_per_wall", "ratio", ratio(c["pdes.cpu_s"], c["pdes.wall_s"])},
      {"flow.network_s", "s", self("flow.network")},
      {"flow.lower_s", "s", self("flow.lower")},
      {"flow.simulate_s", "s", self("flow.simulate")},
      {"flow.events", "count", c["flow.events"]},
      {"flow.flows", "count", c["flow.flows"]},
      {"flow.peak_concurrent_flows", "count", c["flow.peak_concurrent_flows"]},
      {"flow.measure_s", "s", self("flow.measure")},
      {"fxc.parse_s", "s", self("fxc.parse")},
      {"tracing.overhead_s", "s", spans_per_pass * span_record_seconds()},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
  bool smoke = false;
  bool print_pins = false;
  std::string pins_path = "perfbench/pins.tsv";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fxbench: %s\n"
               "usage: fxbench --workload NAME [--seed N] [--seconds S]\n"
               "               [--trace 0|1] [--smoke] [--pins FILE]\n"
               "               [--print-pins]\n"
               "workloads: serial-packet pdes-ring flow-scale\n",
               why.c_str());
  std::exit(2);
}

[[nodiscard]] Options parse_args(int argc, char** argv) {
  Options opt;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::size_t used = 0;
      if (arg == "--workload") {
        opt.workload = value(i);
      } else if (arg == "--seed") {
        const std::string v = value(i);
        opt.seed = std::stoull(v, &used);
        if (used != v.size() || v[0] == '-') usage("bad --seed " + v);
      } else if (arg == "--seconds") {
        const std::string v = value(i);
        opt.seconds = std::stod(v, &used);
        if (used != v.size() || !(opt.seconds > 0)) usage("bad --seconds " + v);
      } else if (arg == "--trace") {
        const std::string v = value(i);
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--pins") {
        opt.pins_path = value(i);
      } else if (arg == "--print-pins") {
        opt.print_pins = true;
      } else {
        usage("unknown argument " + arg);
      }
    }
  } catch (const std::logic_error&) {
    usage("bad numeric argument");
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

int run(const Options& opt) {
  const std::optional<Workload> workload =
      make_workload(opt.workload, opt.seed, opt.smoke);
  if (!workload) usage("unknown workload " + opt.workload);
  const Pins pins = Pins::load(opt.pins_path);
  CheckContext ctx{&pins, opt.smoke ? "smoke" : "full", workload->name,
                   opt.seed};

  std::printf(
      "host {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"profile\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(compiler()).c_str(), FXBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(opt.seed), workload->name.c_str(),
      ctx.profile.c_str());
  std::fflush(stdout);

  Runner runner(*workload, ctx);
  const PassResult warm = runner.warm_up();
  // Peak RSS of a fresh process that has run every trial once.  Each
  // later pass adds what its trials leave allocated
  // (apps.heap_retained_mb) and the fragmentation around it; the traced
  // run reports the peak after the timed passes (apps.peak_rss_end_mb).
  const double rss_mib = peak_rss_mib();
  int attempted = 0;
  int failed = 0;
  if (opt.print_pins) {
    for (std::size_t i = 0; i < workload->trials.size(); ++i) {
      for (const auto& [field, v] : pin_fields(runner.references()[i])) {
        std::printf("%s\t%s\t%llu\t%s\t%s\t%s\n", ctx.profile.c_str(),
                    workload->name.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    workload->trials[i].label.c_str(), field.c_str(),
                    v.c_str());
      }
    }
  }

  const auto pass_count =
      std::max(1L, std::lround(opt.seconds / workload->nominal_pass_s));
  std::vector<PassResult> passes;
  for (long i = 0; i < pass_count; ++i) {
    passes.push_back(runner.timed_pass(opt.trace));
  }
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  // A failing warm-up pass (or flow cross-check) fails the run even
  // though it is excluded from the timed metrics.
  const bool correct = failed == 0 && warm.failed == 0;
  for (const std::string& e : runner.errors()) {
    std::fprintf(stderr, "FAIL %s\n", e.c_str());
  }

  const std::vector<Metric> metrics = opt.trace
                                          ? per_layer(passes, peak_rss_mib())
                                          : end_to_end(passes, rss_mib);
  std::printf("passes %zu timed (+1 warm-up), %d trials per pass; "
              "wall_s, setup_s per pass:",
              passes.size(), static_cast<int>(workload->trials.size()));
  for (const PassResult& p : passes) {
    std::printf(" %.4f,%.6f", p.wall_s, p.setup_s);
  }
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-30s %16.9g %s\n", "error_rate",
              ratio(static_cast<double>(failed), attempted), "ratio");

  if (opt.trace) {
    const std::filesystem::path dir = ".bench_build/traces";
    const std::filesystem::path path =
        dir / (workload->name + (opt.smoke ? "-smoke" : "") + "-seed" +
               std::to_string(opt.seed) + ".json");
    std::error_code ignored;
    std::filesystem::create_directories(dir, ignored);
    if (!runner.tracer().write_chrome_json(path.string())) {
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
      return 1;
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fxtraf::perfbench

int main(int argc, char** argv) {
  const fxtraf::perfbench::Options opt =
      fxtraf::perfbench::parse_args(argc, argv);
  try {
    return fxtraf::perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fxbench: %s\n", e.what());
    return 1;
  }
}

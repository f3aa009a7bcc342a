// The four benchmark workloads (README.md has the tables):
//
//   classic   n = 400, DutyCycledScheduleMac, any-to-any Bernoulli traffic;
//   metro     n = 10^4, sparse slot-addressable convergecast, no fast-forward;
//   lifetime  the classic schedule to past the first battery death, with
//             frame fast-forwarding on;
//   campaign  runner::Campaign over five MACs x {no faults, fault storm}.
//
// Every workload drives the libraries through their public APIs only and
// sets only the SimConfig fields that define an experiment (seed, queue
// capacity, battery, fast_forward, fault plan); pipeline knobs keep their
// defaults. An untraced run reports the end-to-end metrics. A traced run
// wraps the MAC and traffic source in timing decorators, enables the span
// profiler, and reports the per-layer metrics; it also repeats the same
// work untraced and requires identical SimStats and FastForwardStats.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "runner/runner.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace ttdc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDegree = 6;
/// Battery of the lifetime workload, and the reference battery for the
/// projected lifetime the other workloads report.
constexpr double kLifetimeBatteryMj = 2e6;
/// Fixed Monte-Carlo budget of the Requirement 3 check (the exact checker
/// does not finish in minutes at n = 400, D = 6).
constexpr std::size_t kReq3Trials = 200;
constexpr std::uint64_t kReq3Seed = 0x7265713321ull;

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------ decorators

/// Times every begin_slot()/fill_slot_sets() call and forwards every
/// virtual of MacProtocol, so the wrapped MAC behaves exactly as the bare
/// one (a missed fast_forward_period() would silently disarm replay).
class TimedMac final : public sim::MacProtocol {
 public:
  explicit TimedMac(sim::MacProtocol& inner) : inner_(inner) {}

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override {
    const auto t0 = Clock::now();
    inner_.begin_slot(slot, rng);
    ns += elapsed_ns(t0);
  }
  [[nodiscard]] bool can_receive(std::size_t node) const override {
    return inner_.can_receive(node);
  }
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override {
    return inner_.wants_transmit(node, target);
  }
  [[nodiscard]] sim::RadioState idle_state(std::size_t node) const override {
    return inner_.idle_state(node);
  }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    const auto t0 = Clock::now();
    const bool batched = inner_.fill_slot_sets(receivers, transmitters);
    ns += elapsed_ns(t0);
    ++fills;
    tx += transmitters.count();
    rx += receivers.count();
    if (!receivers.is_dense() || !transmitters.is_dense()) ++sparse_fills;
    return batched;
  }
  [[nodiscard]] bool sender_gates_on_receiver() const override {
    return inner_.sender_gates_on_receiver();
  }
  [[nodiscard]] std::uint64_t fast_forward_period() const override {
    return inner_.fast_forward_period();
  }
  bool on_topology_change(const net::Graph& graph) override {
    return inner_.on_topology_change(graph);
  }

  mutable std::uint64_t ns = 0;
  mutable std::uint64_t fills = 0;
  mutable std::uint64_t tx = 0;
  mutable std::uint64_t rx = 0;
  mutable std::uint64_t sparse_fills = 0;

 private:
  sim::MacProtocol& inner_;
};

/// Times every generate() call (the simulator calls it once per stepped
/// slot), counts emissions, and forwards the lookahead contract.
class TimedTraffic final : public sim::TrafficSource {
 public:
  explicit TimedTraffic(sim::TrafficSource& inner)
      : inner_(inner), counting_([this](std::size_t origin, std::size_t destination) {
          ++emits;
          (*emit_)(origin, destination);
        }) {}
  TimedTraffic(const TimedTraffic&) = delete;
  TimedTraffic& operator=(const TimedTraffic&) = delete;

  void generate(std::uint64_t slot, util::Xoshiro256& rng, const sim::EmitFn& emit) override {
    emit_ = &emit;
    const auto t0 = Clock::now();
    inner_.generate(slot, rng, counting_);
    ns += elapsed_ns(t0);
    ++slots;
  }
  [[nodiscard]] bool supports_lookahead() const override { return inner_.supports_lookahead(); }
  [[nodiscard]] std::uint64_t next_emission(std::uint64_t from) const override {
    return inner_.next_emission(from);
  }

  std::uint64_t ns = 0;
  std::uint64_t slots = 0;
  std::uint64_t emits = 0;

 private:
  sim::TrafficSource& inner_;
  const sim::EmitFn* emit_ = nullptr;
  sim::EmitFn counting_;
};

/// Decorator totals, summed over every traced simulation of a run.
struct LayerTotals {
  double run_ns = 0.0;  // wall time inside Simulator::run
  double traffic_ns = 0.0;
  double mac_ns = 0.0;
  double stepped_slots = 0.0;
  double emits = 0.0;
  double fills = 0.0;
  double tx = 0.0;
  double rx = 0.0;
  double sparse_fills = 0.0;

  void add(const TimedMac& mac, const TimedTraffic& traffic, double run_ns_in) {
    run_ns += run_ns_in;
    traffic_ns += static_cast<double>(traffic.ns);
    mac_ns += static_cast<double>(mac.ns);
    stepped_slots += static_cast<double>(traffic.slots);
    emits += static_cast<double>(traffic.emits);
    fills += static_cast<double>(mac.fills);
    tx += static_cast<double>(mac.tx);
    rx += static_cast<double>(mac.rx);
    sparse_fills += static_cast<double>(mac.sparse_fills);
  }
  void add(const LayerTotals& o) {
    run_ns += o.run_ns;
    traffic_ns += o.traffic_ns;
    mac_ns += o.mac_ns;
    stepped_slots += o.stepped_slots;
    emits += o.emits;
    fills += o.fills;
    tx += o.tx;
    rx += o.rx;
    sparse_fills += o.sparse_fills;
  }
};

// ------------------------------------------------------------ world

double radius_for(std::size_t n) {
  return std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
}

/// Topology plus the paper's schedule for it, with per-layer build times.
struct World {
  std::size_t n = 0;
  net::Graph graph;
  std::size_t sink = 0;  // the node nearest the centre of the unit square
  core::Schedule non_sleeping;
  core::Schedule duty;
  double topology_s = 0.0;
  double family_s = 0.0;
  double construct_s = 0.0;
};

/// Unit-disk deployment number `deployment` over n uniform positions.
/// Deployments are fixed per workload, not drawn from the run seed: the
/// seed drives traffic, MAC coins and faults, so the spread between seeds
/// measures the load, not a lottery over network shapes.
net::Graph make_topology(std::size_t n, std::uint64_t deployment, std::size_t* sink) {
  util::Xoshiro256 rng(util::mix64(deployment ^ 0x746f706full));
  const net::Positions pos = net::random_positions(n, rng);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < n; ++v) {
    const double d = std::hypot(pos.x[v] - 0.5, pos.y[v] - 0.5);
    if (d < best) {
      best = d;
      *sink = v;
    }
  }
  return net::unit_disk_graph(pos, radius_for(n), kDegree);
}

/// The duty-cycled schedule of every workload:
/// Construct(non_sleeping_from_family(best CFF plan), D, D, n/3).
std::pair<core::Schedule, core::Schedule> make_schedules(std::size_t n, double* family_s,
                                                         double* construct_s) {
  util::Timer timer;
  const comb::SetFamily family = comb::build_plan(comb::best_plan(n, kDegree), n);
  *family_s = timer.seconds();
  timer.restart();
  core::Schedule non_sleeping = core::non_sleeping_from_family(family);
  core::Schedule duty = core::construct_duty_cycled(non_sleeping, kDegree, kDegree, n / 3);
  *construct_s = timer.seconds();
  return {std::move(non_sleeping), std::move(duty)};
}

std::unique_ptr<World> build_world(std::size_t n) {
  util::Timer timer;
  std::size_t sink = 0;
  net::Graph graph = make_topology(n, /*deployment=*/0, &sink);
  const double topology_s = timer.seconds();
  double family_s = 0.0;
  double construct_s = 0.0;
  auto [non_sleeping, duty] = make_schedules(n, &family_s, &construct_s);
  return std::make_unique<World>(World{n, std::move(graph), sink, std::move(non_sleeping),
                                       std::move(duty), topology_s, family_s, construct_s});
}

double schedule_mb(const core::Schedule& s) {
  const double words = static_cast<double>((s.num_nodes() + 63) / 64);
  return static_cast<double>(s.frame_length()) * 2.0 * words * 8.0 / (1024.0 * 1024.0);
}

/// Theorem 7 frame length and a fixed-seed sampled Requirement 3 check.
void check_schedule(const core::Schedule& non_sleeping, const core::Schedule& duty,
                    const std::string& label, Result& r) {
  const std::size_t n = duty.num_nodes();
  const std::size_t alpha_t_star = core::optimal_transmitters_alpha(n, kDegree, kDegree);
  const std::size_t expected = core::constructed_frame_length(non_sleeping, alpha_t_star, n / 3);
  if (duty.frame_length() != expected) {
    r.fail(label + ": frame length " + std::to_string(duty.frame_length()) +
           " != Theorem 7's " + std::to_string(expected));
  }
  util::Xoshiro256 rng(kReq3Seed);
  if (const auto violation = core::check_requirement3_sampled(duty, kDegree, kReq3Trials, rng)) {
    r.fail(label + ": Requirement 3 violated: " + violation->to_string());
  }
}

// ------------------------------------------------------------ checks

/// Packet conservation and the transmission-outcome identity. Returns an
/// empty string when both hold.
std::string conservation_error(const sim::Simulator& sim) {
  const sim::SimStats& s = sim.stats();
  std::uint64_t queued = 0;
  for (std::size_t v = 0; v < sim.graph().num_nodes(); ++v) queued += sim.queue_size(v);
  std::ostringstream os;
  if (s.generated != s.delivered + s.queue_drops + queued) {
    os << "packet conservation: generated " << s.generated << " != delivered " << s.delivered
       << " + dropped " << s.queue_drops << " + queued " << queued;
  }
  const std::uint64_t outcomes = s.hop_successes + s.collisions + s.receiver_asleep +
                                 s.channel_losses + s.sync_losses + s.burst_losses +
                                 s.drift_losses;
  if (s.transmissions != outcomes) {
    os << (os.tellp() > 0 ? "; " : "") << "transmission outcomes: " << s.transmissions
       << " transmissions != " << outcomes << " outcomes";
  }
  return os.str();
}

bool same_ff(const sim::FastForwardStats& a, const sim::FastForwardStats& b) {
  return a.frames_replayed == b.frames_replayed && a.slots_replayed == b.slots_replayed &&
         a.frames_recorded == b.frames_recorded && a.frames_discarded == b.frames_discarded &&
         a.memo_evictions == b.memo_evictions && a.graph_invalidations == b.graph_invalidations &&
         a.fallback_arrival == b.fallback_arrival &&
         a.fallback_fault_event == b.fallback_fault_event &&
         a.fallback_battery == b.fallback_battery && a.fallback_recorder == b.fallback_recorder &&
         a.fallback_verify == b.fallback_verify;
}

// ------------------------------------------------------------ metrics

double energy_mj(const sim::SimStats& s, std::size_t v) {
  static constexpr sim::RadioState kStates[] = {sim::RadioState::kTransmit,
                                                sim::RadioState::kReceive,
                                                sim::RadioState::kListen, sim::RadioState::kSleep};
  const sim::EnergyModel model;
  double e = 0.0;
  for (std::size_t k = 0; k < 4; ++k) e += model.energy_mj(kStates[k], s.state_slots[v][k]);
  return e + model.wakeup_mj * static_cast<double>(s.wake_transitions[v]);
}

/// Slot at which the hungriest node would exhaust the reference battery
/// at the drain rate measured over `s` (for workloads without a battery).
double projected_lifetime_slots(const sim::SimStats& s) {
  double worst = 0.0;
  for (std::size_t v = 0; v < s.state_slots.size(); ++v) worst = std::max(worst, energy_mj(s, v));
  const double rate = worst / static_cast<double>(s.slots_run);
  return rate > 0.0 ? kLifetimeBatteryMj / rate : 0.0;
}

/// The modelled end-to-end metrics: a pure function of the seed.
struct Modelled {
  double delivery_ratio = 0.0;
  double latency_p99 = 0.0;
  double energy_per_delivered = 0.0;
  double lifetime_slots = 0.0;
};

Modelled modelled(const sim::SimStats& s, bool measured_lifetime) {
  Modelled m;
  m.delivery_ratio = s.delivery_ratio();
  m.latency_p99 = static_cast<double>(s.latency.percentile(99.0));
  m.energy_per_delivered = s.energy_per_delivery_mj(sim::EnergyModel{});
  m.lifetime_slots = measured_lifetime ? static_cast<double>(s.first_death_slot)
                                       : projected_lifetime_slots(s);
  return m;
}

/// Host-speed probe: how much slower than on a quiet host this process
/// runs right now.
///
/// Other tenants of the host slow it down in phases of a few seconds to
/// more than a run, by up to 1.6x, mostly through shared core and cache
/// resources; a fixed ALU loop (host.calib_ns) barely sees them. The probe
/// (probe_ns(), a fixed kernel shaped like the slot loop) does, so every
/// host time is divided by the probe's slowdown measured at most
/// kProbeSeconds before it (and after it, for long operations): the
/// metrics read as times on the quiet reference host. The probe is the
/// benchmark's own code, so a change to the libraries moves the metrics
/// and never the probe.
class HostSpeed {
 public:
  /// The probe's time on a quiet host: its fastest time seen on the
  /// reference host (a 4-vCPU KVM guest on a Xeon Sapphire Rapids).
  static constexpr double kReferenceNs = 120e3;
  static constexpr double kProbeSeconds = 0.1;

  /// Slowdown factor now; re-probes when the last probe is too old, or
  /// always when `fresh`.
  double factor(bool fresh = false) {
    if (fresh || probed_ < 0.0 || clock_.seconds() - probed_ >= kProbeSeconds) {
      factor_ = probe_ns() / kReferenceNs;
      factors_.push_back(factor_);
      probed_ = clock_.seconds();
    }
    return factor_;
  }
  /// Slowdown over an operation of `seconds` that began when the factor
  /// read `before`: the mean of `before` and a fresh probe when the
  /// operation outlasted half a probe period, else `before`.
  double around(double before, double seconds) {
    return seconds >= 0.5 * kProbeSeconds ? 0.5 * (before + factor(true)) : before;
  }
  [[nodiscard]] const std::vector<double>& factors() const { return factors_; }

 private:
  util::Timer clock_;
  double probed_ = -1.0;
  double factor_ = 1.0;
  std::vector<double> factors_;
};

/// Host times of every piece of a run's fixed work, over its repetitions.
///
/// Each workload repeats the same fixed work (same seeds, same chunks) as
/// often as its budget allows. Every piece -- a chunk, a lifetime run, a
/// campaign, a cell -- keeps all its normalized repetitions; throughput and
/// the median read the median of each piece, and the tail reads every
/// repetition.
class OpTimes {
 public:
  /// Records one normalized host time of piece `key`, in seconds.
  void add(std::size_t key, double seconds) {
    if (times_.size() <= key) times_.resize(key + 1);
    times_[key].push_back(seconds);
    ++samples_;
  }
  /// Median time of every piece, seconds.
  [[nodiscard]] std::vector<double> typical() const {
    std::vector<double> out;
    for (const auto& t : times_) out.push_back(median(t));
    return out;
  }
  /// Every recorded time, seconds.
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> out;
    for (const auto& t : times_) out.insert(out.end(), t.begin(), t.end());
    return out;
  }
  [[nodiscard]] double total_s() const {
    double sum = 0.0;
    for (const double s : typical()) sum += s;
    return sum;
  }
  [[nodiscard]] std::size_t pieces() const { return times_.size(); }
  [[nodiscard]] std::size_t samples() const { return samples_; }

 private:
  std::vector<std::vector<double>> times_;
  std::size_t samples_ = 0;
};

/// Normalized set-up timings of one run. Set-ups timed with time() run
/// back to back; `spread` more, throwaway ones run between timed
/// operations, one whenever due, so that their median samples the whole
/// run instead of a single phase of the host. Workloads with a large
/// set-up spread none.
class SetupTimes {
 public:
  SetupTimes(HostSpeed& host, int spread, double seconds)
      : host_(host), spread_(spread), period_(seconds / (spread + 1)) {}

  template <typename F>
  void time(F&& setup) {
    const double before = host_.factor();
    const util::Timer timer;
    setup();
    const double seconds = timer.seconds();
    seconds_.push_back(seconds / host_.around(before, seconds));
  }
  /// Runs a throwaway set-up when one is due `now` seconds into timing.
  template <typename F>
  void maybe(double now, F&& setup) {
    if (spread_done_ < spread_ && now >= period_ * (spread_done_ + 1)) {
      time(setup);
      ++spread_done_;
    }
  }
  /// Runs the spread set-ups a short timed part left undone.
  template <typename F>
  void finish(F&& setup) {
    while (spread_done_ < spread_) maybe(period_ * (spread_done_ + 1), setup);
  }
  [[nodiscard]] double median_s() const { return median(seconds_); }

 private:
  HostSpeed& host_;
  int spread_;
  double period_;
  int spread_done_ = 0;
  std::vector<double> seconds_;
};

/// Reports the end-to-end metrics, in BENCHMARK.json order. `units` are
/// the pieces the throughputs divide by -- together they hold `slots`
/// simulated slots and `ops` operations -- and `ops_s` the operations
/// behind the chunk percentiles. They are the same pieces except on
/// campaign, whose cells run concurrently inside one campaign.
///
/// The p99 reads every timing of a sequential operation. A concurrent one
/// (a campaign cell) stretches whenever another tenant takes one of the
/// cores it shares, so its tail reads the median of each cell instead.
void report_end_to_end(Result& r, double setup_s, const OpTimes& units, double slots,
                       double ops, const OpTimes& ops_s, bool concurrent,
                       const HostSpeed& host, const Modelled& m) {
  std::vector<double> op_ms;
  for (const double s : ops_s.typical()) op_ms.push_back(s * 1e3);
  std::vector<double> all_ms;
  for (const double s : concurrent ? ops_s.typical() : ops_s.all()) all_ms.push_back(s * 1e3);
  // The p99 needs ten timings beyond it; with fewer than 1,000 (lifetime)
  // the highest percentile that has them stands in.
  const double n_all = static_cast<double>(all_ms.size());
  const double tail_pct = n_all >= 1000.0 ? 99.0 : std::max(50.0, 100.0 * (1.0 - 10.0 / n_all));
  const double unit_s = units.total_s();
  r.metric("setup_s", setup_s, "s");
  r.metric("slots_per_s", per(slots, unit_s), "1/s");
  r.metric("chunk_ms_p50", median(op_ms), "ms");
  r.metric("chunk_ms_p99", percentile(all_ms, tail_pct), "ms");
  r.metric("cells_per_s", per(ops, unit_s), "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("delivery_ratio", m.delivery_ratio, "ratio");
  r.metric("latency_p99_slots", m.latency_p99, "slots");
  r.metric("energy_per_delivered_mj", m.energy_per_delivered, "mJ");
  r.metric("lifetime_slots", m.lifetime_slots, "slots");
  std::ostringstream os;
  os << "timing: " << units.samples() << " timings of " << units.pieces() << " pieces; "
     << all_ms.size() << " timings of " << op_ms.size() << " operations, tail percentile p"
     << tail_pct << "; host slowdown "
     << "median " << median(host.factors()) << ", least " << percentile(host.factors(), 0.0)
     << " over " << host.factors().size() << " probes";
  r.note(os.str());
}

/// Per-layer numbers of set-up: construction, topology and routing.
struct SetupLayers {
  double family_s = 0.0;
  double construct_s = 0.0;
  double schedule_mb = 0.0;
  double frame_length = 0.0;
  double topology_s = 0.0;
  double routing_s = 0.0;
};

/// Per-layer numbers of one traced run of a workload's fixed work.
struct RunLayers {
  LayerTotals sim;
  sim::SimStats stats;  // pipeline and fault counts
  sim::FastForwardStats ff;
  double slots_run = 0.0;
  double replay_ns = 0.0;
  double collect_ns = 0.0;
  double resolve_ns = 0.0;
  double energy_ns = 0.0;
  std::vector<double> cell_ms;
  double cell_setup_ms = 0.0;
  double cell_setup_fraction = 0.0;
  double busy_fraction = 0.0;
  double artifact_hits = 0.0;
  double artifact_misses = 0.0;
  double retries = 0.0;
  double quarantined = 0.0;
  double journal_bytes = 0.0;

  /// Reads the span profiler's flat per-site totals (inflated by the
  /// profiler's own cost, which is why these are labelled as such).
  void read_profiler() {
    for (const auto& s : obs::Profiler::instance().samples()) {
      const double ns = s.total_seconds * 1e9;
      if (s.name == "sim.step.collect") collect_ns += ns;
      if (s.name == "sim.step.resolve") resolve_ns += ns;
      if (s.name == "sim.step.energy") energy_ns += ns;
      if (s.name == "sim.ff.replay") replay_ns += ns;
    }
  }
};

void report_per_layer(Result& r, const SetupLayers& setup, const RunLayers& l,
                      double trace_overhead) {
  const LayerTotals& t = l.sim;
  const double stepped = t.stepped_slots;
  r.metric("combinatorics.family_s", setup.family_s, "s");
  r.metric("core.construct_s", setup.construct_s, "s");
  r.metric("core.schedule_mb", setup.schedule_mb, "MB");
  r.metric("core.frame_length", setup.frame_length, "slots");
  r.metric("net.topology_s", setup.topology_s, "s");
  r.metric("net.routing_columns_s", setup.routing_s, "s");
  r.metric("sim.traffic.ns_per_slot", per(t.traffic_ns, stepped), "ns");
  r.metric("sim.traffic.emits", t.emits, "count");
  r.metric("sim.mac.ns_per_slot", per(t.mac_ns, stepped), "ns");
  r.metric("sim.mac.tx_per_slot", per(t.tx, t.fills), "count");
  r.metric("sim.mac.rx_per_slot", per(t.rx, t.fills), "count");
  r.metric("sim.mac.sparse_fraction", per(t.sparse_fills, t.fills), "ratio");
  const double pipeline_ns = std::max(0.0, t.run_ns - t.traffic_ns - t.mac_ns - l.replay_ns);
  r.metric("sim.pipeline.ns_per_slot", per(pipeline_ns, stepped), "ns");
  const sim::SimStats& s = l.stats;
  r.metric("sim.pipeline.transmissions", static_cast<double>(s.transmissions), "count");
  r.metric("sim.pipeline.hop_successes", static_cast<double>(s.hop_successes), "count");
  r.metric("sim.pipeline.collisions", static_cast<double>(s.collisions), "count");
  r.metric("sim.pipeline.receiver_asleep", static_cast<double>(s.receiver_asleep), "count");
  r.metric("sim.pipeline.queue_drops", static_cast<double>(s.queue_drops), "count");
  r.metric("sim.pipeline.hop_success_ratio", s.success_ratio(), "ratio");
  r.metric("sim.step.collect.ns_per_slot", per(l.collect_ns, stepped), "ns");
  r.metric("sim.step.resolve.ns_per_slot", per(l.resolve_ns, stepped), "ns");
  r.metric("sim.step.energy.ns_per_slot", per(l.energy_ns, stepped), "ns");
  const sim::FastForwardStats& f = l.ff;
  r.metric("sim.fastforward.replayed_fraction",
           per(static_cast<double>(f.slots_replayed), l.slots_run), "ratio");
  r.metric("sim.fastforward.frames_replayed", static_cast<double>(f.frames_replayed), "count");
  r.metric("sim.fastforward.frames_recorded", static_cast<double>(f.frames_recorded), "count");
  r.metric("sim.fastforward.frames_discarded", static_cast<double>(f.frames_discarded), "count");
  r.metric("sim.fastforward.memo_evictions", static_cast<double>(f.memo_evictions), "count");
  r.metric("sim.fastforward.fallback_arrival", static_cast<double>(f.fallback_arrival), "count");
  r.metric("sim.fastforward.fallback_battery", static_cast<double>(f.fallback_battery), "count");
  r.metric("sim.fastforward.fallback_verify", static_cast<double>(f.fallback_verify), "count");
  r.metric("sim.ff.replay.ns_per_frame",
           per(l.replay_ns, static_cast<double>(f.frames_replayed)), "ns");
  r.metric("sim.fault.crashes", static_cast<double>(s.fault_crashes), "count");
  r.metric("sim.fault.jam_bursts", static_cast<double>(s.fault_jam_bursts), "count");
  r.metric("sim.fault.burst_losses", static_cast<double>(s.burst_losses), "count");
  r.metric("sim.fault.drift_losses", static_cast<double>(s.drift_losses), "count");
  r.metric("runner.cell_ms_p50", l.cell_ms.empty() ? 0.0 : percentile(l.cell_ms, 50.0), "ms");
  r.metric("runner.cell_ms_p99", l.cell_ms.empty() ? 0.0 : percentile(l.cell_ms, 99.0), "ms");
  r.metric("runner.cell_setup_fraction", l.cell_setup_fraction, "ratio");
  r.metric("runner.busy_fraction", l.busy_fraction, "ratio");
  r.metric("runner.artifact_hit_ratio",
           per(l.artifact_hits, l.artifact_hits + l.artifact_misses), "ratio");
  r.metric("runner.artifact_misses", l.artifact_misses, "count");
  r.metric("runner.retries", l.retries, "count");
  r.metric("runner.quarantined", l.quarantined, "count");
  r.metric("runner.journal_bytes", l.journal_bytes, "bytes");
  r.metric("obs.trace_overhead", trace_overhead, "ratio");
}

/// What one execution of a workload's fixed work hands back.
struct FixedWork {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  sim::FastForwardStats ff;
};

/// Runs `body` untraced and then traced, in pairs, until `seconds` have
/// passed (at least one pair). `body(traced, layers)` executes the
/// workload's fixed work; the traced call also fills `layers`. Both sides
/// of every pair must agree exactly on SimStats and FastForwardStats.
/// Returns the last traced run's layers; `overhead` gets the median
/// traced/untraced wall-time ratio minus one.
template <typename Body>
RunLayers traced_pairs(double seconds, Result& r, double* overhead, Body body) {
  util::Timer total;
  std::vector<double> ratios;
  RunLayers layers;
  do {
    RunLayers unused;
    const FixedWork plain = body(false, unused);
    layers = RunLayers{};
    obs::Profiler::instance().reset();
    FixedWork traced;
    {
      const obs::ProfilerSession session;
      traced = body(true, layers);
    }
    layers.read_profiler();
    ++r.attempted;
    if (plain.digest != traced.digest || !same_ff(plain.ff, traced.ff)) {
      ++r.failed;
      r.fail("traced run diverged: digest " + hex(traced.digest) + " vs untraced " +
             hex(plain.digest));
    }
    ratios.push_back(traced.seconds / plain.seconds);
    if (ratios.size() == 1) r.note("digest " + hex(plain.digest) + " (untraced and traced)");
  } while (total.seconds() < seconds);
  r.note("traced/untraced pairs: " + std::to_string(ratios.size()));
  *overhead = median(ratios) - 1.0;
  return layers;
}

// ------------------------------------------------------------ classic, metro

struct SimSpec {
  std::size_t n = 0;
  bool convergecast = false;  // slot-addressable convergecast, else Bernoulli
  double rate = 0.0;          // per node per slot
  std::uint64_t chunk = 0;    // slots per timed Simulator::run call; 0 = one frame
  std::uint64_t warmup_chunks = 0;
  std::uint64_t model_chunks = 0;  // fixed prefix behind the modelled metrics
  std::uint64_t pass_chunks = 0;   // timed chunks of every pass over the fixed work
  int setup_reps = 1;     // back to back before timing; the last one is kept
  int spread_setups = 0;  // throwaway set-ups spread over the timed part
};

/// One simulator over a world, optionally behind the timing decorators.
struct Rig {
  std::unique_ptr<sim::MacProtocol> mac;
  std::unique_ptr<sim::TrafficSource> traffic;
  std::unique_ptr<TimedMac> timed_mac;
  std::unique_ptr<TimedTraffic> timed_traffic;
  std::unique_ptr<sim::Simulator> sim;
};

Rig make_rig(const World& w, bool convergecast, double rate, std::uint64_t seed,
             const sim::SimConfig& base, bool traced) {
  Rig rig;
  rig.mac = std::make_unique<sim::DutyCycledScheduleMac>(w.duty);
  if (convergecast) {
    rig.traffic = std::make_unique<sim::LookaheadConvergecastTraffic>(
        w.n, w.sink, rate, util::mix64(seed ^ 0x74726166ull));
  } else {
    rig.traffic = std::make_unique<sim::BernoulliTraffic>(w.n, rate);
  }
  sim::MacProtocol* mac = rig.mac.get();
  sim::TrafficSource* traffic = rig.traffic.get();
  if (traced) {
    rig.timed_mac = std::make_unique<TimedMac>(*mac);
    rig.timed_traffic = std::make_unique<TimedTraffic>(*traffic);
    mac = rig.timed_mac.get();
    traffic = rig.timed_traffic.get();
  }
  sim::SimConfig config = base;
  config.seed = util::mix64(seed ^ 0x73696dull);
  rig.sim = std::make_unique<sim::Simulator>(w.graph, *mac, *traffic, config);
  return rig;
}

/// Seed of the `stream`-th independent load of a run (lifetime traffic
/// streams, campaign master seeds).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return util::mix64(seed) + stream;
}

std::uint64_t chunk_slots(const SimSpec& spec, const World& w) {
  return spec.chunk != 0 ? spec.chunk : w.duty.frame_length();
}

/// Set-up layers of a world. Routing is timed on a fresh table over the
/// columns the workload's traffic needs: every destination for any-to-any
/// traffic, the sink's column otherwise.
SetupLayers setup_layers(const World& w, bool all_columns) {
  SetupLayers s;
  s.family_s = w.family_s;
  s.construct_s = w.construct_s;
  s.topology_s = w.topology_s;
  s.schedule_mb = schedule_mb(w.duty);
  s.frame_length = static_cast<double>(w.duty.frame_length());
  util::Timer timer;
  net::RoutingTable table(w.graph);
  if (all_columns) {
    table.build_all_columns();
  } else {
    (void)table.next_hop(w.sink == 0 ? 1 : 0, w.sink);
  }
  s.routing_s = timer.seconds();
  return s;
}

Result run_chunked(const Options& o, const SimSpec& spec) {
  Result r;
  const sim::SimConfig base;  // every experiment field at its default
  if (o.trace) {
    const auto world = build_world(spec.n);
    check_schedule(world->non_sleeping, world->duty, "schedule", r);
    const std::uint64_t k = chunk_slots(spec, *world);
    double overhead = 0.0;
    const RunLayers layers = traced_pairs(o.seconds, r, &overhead, [&](bool traced,
                                                                        RunLayers& out) {
      Rig rig = make_rig(*world, spec.convergecast, spec.rate, o.seed, base, traced);
      const auto t0 = Clock::now();
      for (std::uint64_t c = 0; c < spec.warmup_chunks + spec.model_chunks; ++c) rig.sim->run(k);
      const double ns = static_cast<double>(elapsed_ns(t0));
      if (traced) {
        out.sim.add(*rig.timed_mac, *rig.timed_traffic, ns);
        out.stats = rig.sim->stats();
        out.ff = rig.sim->fast_forward_stats();
        out.slots_run = static_cast<double>(rig.sim->now());
      }
      return FixedWork{ns * 1e-9, digest(rig.sim->stats()), rig.sim->fast_forward_stats()};
    });
    report_per_layer(r, setup_layers(*world, !spec.convergecast), layers, overhead);
    return r;
  }

  // Set-up: world, MAC, traffic, Simulator, warm-up.
  HostSpeed host;
  SetupTimes setup(host, spec.spread_setups, o.seconds);
  std::unique_ptr<World> world;
  Rig rig;
  const auto build = [&](std::unique_ptr<World>& w, Rig& g) {
    w = build_world(spec.n);
    g = make_rig(*w, spec.convergecast, spec.rate, o.seed, base, false);
    for (std::uint64_t c = 0; c < spec.warmup_chunks; ++c) g.sim->run(chunk_slots(spec, *w));
  };
  const auto throwaway = [&] {
    std::unique_ptr<World> w;
    Rig g;
    build(w, g);
  };
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    rig = Rig{};
    world.reset();
    setup.time([&] { build(world, rig); });
  }
  const std::uint64_t k = chunk_slots(spec, *world);

  // Passes over the same fixed work until the budget is spent: a rig built
  // from the run's seed and warmed up, then `pass_chunks` timed chunks.
  // The first pass goes on to the fixed prefix behind the modelled metrics;
  // every later pass gets a fresh rig (untimed) and must repeat the first
  // one's SimStats exactly.
  OpTimes chunks;
  std::optional<sim::SimStats> prefix;
  std::uint64_t pass_digest = 0;
  std::uint64_t passes = 0;
  util::Timer total;
  do {
    if (passes > 0) {
      rig = Rig{};  // release the old Simulator before building the next
      rig = make_rig(*world, spec.convergecast, spec.rate, o.seed, base, false);
      for (std::uint64_t c = 0; c < spec.warmup_chunks; ++c) rig.sim->run(k);
    }
    const std::uint64_t count =
        passes == 0 ? std::max(spec.pass_chunks, spec.model_chunks) : spec.pass_chunks;
    for (std::uint64_t c = 0; c < count; ++c) {
      setup.maybe(total.seconds(), throwaway);
      const double factor = host.factor();
      const auto t0 = Clock::now();
      rig.sim->run(k);
      const double ns = static_cast<double>(elapsed_ns(t0));
      if (c < spec.pass_chunks) chunks.add(c, ns * 1e-9 / factor);
      ++r.attempted;
      std::string err = conservation_error(*rig.sim);
      if (c + 1 == spec.pass_chunks) {
        const std::uint64_t d = digest(rig.sim->stats());
        if (passes == 0) {
          pass_digest = d;
        } else if (d != pass_digest) {
          err = "pass is not deterministic";
        }
      }
      if (!err.empty()) {
        ++r.failed;
        r.fail("pass " + std::to_string(passes + 1) + ", chunk " + std::to_string(c + 1) +
               ": " + err);
      }
      if (passes == 0 && c + 1 == spec.model_chunks) prefix = rig.sim->stats();
    }
    ++passes;
  } while (total.seconds() < o.seconds);
  setup.finish(throwaway);
  check_schedule(world->non_sleeping, world->duty, "schedule", r);
  r.note("digest " + hex(digest(*prefix)) + " (first " +
         std::to_string(spec.warmup_chunks + spec.model_chunks) + " chunks of " +
         std::to_string(k) + " slots); " + std::to_string(passes) + " passes of " +
         std::to_string(spec.pass_chunks) + " timed chunks");
  const double pass_chunks = static_cast<double>(spec.pass_chunks);
  report_end_to_end(r, setup.median_s(), chunks, pass_chunks * static_cast<double>(k),
                    pass_chunks, chunks, false, host, modelled(*prefix, false));
  return r;
}

// ------------------------------------------------------------ lifetime

struct LifetimeSpec {
  std::size_t n = 0;
  double frames_per_arrival = 0.0;
  double battery_mj = 0.0;
  std::uint64_t horizon = 0;    // first run() of a lifetime run, in slots
  std::uint64_t streams = 0;    // traffic streams behind the modelled metrics
  std::uint64_t ff_prefix = 0;  // slots compared with fast-forward on and off
  int spread_setups = 0;        // throwaway set-ups spread over the timed part
};

/// One lifetime run from slot 0 to just past the first death, with one of
/// the workload's traffic streams. run() gets whole horizons so frame
/// replay can lump as many frames as it likes.
struct LifetimeRun {
  double seconds = 0.0;
  std::uint64_t slots = 0;
  sim::SimStats stats;
  sim::FastForwardStats ff;
  std::string error;
};

double lifetime_rate(const World& w, double frames_per_arrival) {
  // Per-node rate whose aggregate is one arrival per `frames_per_arrival`
  // frames: 1 - (1 - r)^(n-1) = p_any.
  const double p_any = 1.0 / (frames_per_arrival * static_cast<double>(w.duty.frame_length()));
  return -std::expm1(std::log1p(-p_any) / static_cast<double>(w.n - 1));
}

sim::SimConfig lifetime_config(const LifetimeSpec& spec, bool fast_forward) {
  sim::SimConfig config;
  config.battery_mj = spec.battery_mj;
  config.fast_forward = fast_forward;
  return config;
}

LifetimeRun lifetime_run(const World& w, const LifetimeSpec& spec, std::uint64_t seed,
                         bool traced, RunLayers* layers) {
  Rig rig = make_rig(w, true, lifetime_rate(w, spec.frames_per_arrival), seed,
                     lifetime_config(spec, true), traced);
  LifetimeRun out;
  const auto t0 = Clock::now();
  rig.sim->run(spec.horizon);
  // Deaths depend slightly on the traffic; step on in short bursts until
  // the first one has happened.
  for (int extra = 0; extra < 64 && rig.sim->stats().deaths == 0; ++extra) {
    rig.sim->run(16 * w.duty.frame_length());
  }
  const double ns = static_cast<double>(elapsed_ns(t0));
  out.seconds = ns * 1e-9;
  out.slots = rig.sim->now();
  out.stats = rig.sim->stats();
  out.ff = rig.sim->fast_forward_stats();
  if (out.stats.deaths == 0) out.error = "no node died";
  if (const std::string err = conservation_error(*rig.sim); !err.empty()) out.error = err;
  if (traced) {
    layers->sim.add(*rig.timed_mac, *rig.timed_traffic, ns);
    layers->stats.merge(out.stats);
    layers->slots_run += static_cast<double>(out.slots);
  }
  return out;
}

void add_ff(sim::FastForwardStats& into, const sim::FastForwardStats& f) {
  into.frames_replayed += f.frames_replayed;
  into.slots_replayed += f.slots_replayed;
  into.frames_recorded += f.frames_recorded;
  into.frames_discarded += f.frames_discarded;
  into.memo_evictions += f.memo_evictions;
  into.graph_invalidations += f.graph_invalidations;
  into.fallback_arrival += f.fallback_arrival;
  into.fallback_fault_event += f.fallback_fault_event;
  into.fallback_battery += f.fallback_battery;
  into.fallback_recorder += f.fallback_recorder;
  into.fallback_verify += f.fallback_verify;
}

/// SimStats with fast-forward on and off must match over an untimed prefix.
void check_fast_forward(const World& w, const LifetimeSpec& spec, std::uint64_t seed, Result& r) {
  std::uint64_t digests[2] = {0, 0};
  for (const bool ff : {false, true}) {
    Rig rig = make_rig(w, true, lifetime_rate(w, spec.frames_per_arrival), seed,
                       lifetime_config(spec, ff), false);
    rig.sim->run(spec.ff_prefix);
    digests[ff ? 1 : 0] = digest(rig.sim->stats());
  }
  if (digests[0] != digests[1]) {
    r.fail("fast-forward changed SimStats over the first " + std::to_string(spec.ff_prefix) +
           " slots: " + hex(digests[1]) + " vs " + hex(digests[0]));
  }
}

Result run_lifetime(const Options& o, const LifetimeSpec& spec) {
  Result r;
  if (o.trace) {
    const auto world = build_world(spec.n);
    double overhead = 0.0;
    // Fixed work: one run per traffic stream, merged.
    const RunLayers layers = traced_pairs(o.seconds, r, &overhead, [&](bool traced,
                                                                        RunLayers& out) {
      FixedWork work;
      sim::SimStats merged;
      for (std::uint64_t stream = 0; stream < spec.streams; ++stream) {
        LifetimeRun run =
            lifetime_run(*world, spec, stream_seed(o.seed, stream), traced, &out);
        if (!run.error.empty()) r.fail(run.error);
        work.seconds += run.seconds;
        merged.merge(run.stats);
        add_ff(work.ff, run.ff);
      }
      out.ff = work.ff;
      work.digest = digest(merged);
      return work;
    });
    report_per_layer(r, setup_layers(*world, false), layers, overhead);
    return r;
  }

  // Set-up: world and the first run's Simulator.
  HostSpeed host;
  SetupTimes setup(host, spec.spread_setups, o.seconds);
  std::unique_ptr<World> world;
  const auto build = [&](std::unique_ptr<World>& w) {
    w = build_world(spec.n);
    const Rig rig = make_rig(*w, true, lifetime_rate(*w, spec.frames_per_arrival),
                             stream_seed(o.seed, 0), lifetime_config(spec, true), false);
  };
  const auto throwaway = [&] {
    std::unique_ptr<World> w;
    build(w);
  };
  setup.time([&] { build(world); });

  // Passes over every traffic stream until the budget is spent. Each run
  // keeps the median of its passes; the first pass is merged into the
  // modelled metrics, and every later run must repeat its stream's first
  // result exactly.
  OpTimes runs;
  double pass_slots = 0.0;
  std::vector<std::uint64_t> digests;
  sim::SimStats merged;
  std::uint64_t passes = 0;
  util::Timer total;
  do {
    for (std::uint64_t stream = 0; stream < spec.streams; ++stream) {
      setup.maybe(total.seconds(), throwaway);
      const double before = host.factor();
      LifetimeRun run = lifetime_run(*world, spec, stream_seed(o.seed, stream), false, nullptr);
      runs.add(stream, run.seconds / host.around(before, run.seconds));
      ++r.attempted;
      std::string err = run.error;
      if (passes == 0) {
        digests.push_back(digest(run.stats));
        merged.merge(run.stats);
        pass_slots += static_cast<double>(run.slots);
      } else if (digest(run.stats) != digests[stream]) {
        err = "run is not deterministic";
      }
      if (!err.empty()) {
        ++r.failed;
        r.fail("pass " + std::to_string(passes + 1) + ", stream " + std::to_string(stream) +
               ": " + err);
      }
    }
    ++passes;
  } while (total.seconds() < o.seconds);
  setup.finish(throwaway);
  check_schedule(world->non_sleeping, world->duty, "schedule", r);
  check_fast_forward(*world, spec, stream_seed(o.seed, 0), r);
  r.note("digest " + hex(digest(merged)) + " (" + std::to_string(spec.streams) +
         " runs, one per traffic stream); " + std::to_string(passes) + " passes");
  report_end_to_end(r, setup.median_s(), runs, pass_slots, static_cast<double>(spec.streams),
                    runs, false, host, modelled(merged, true));
  return r;
}

// ------------------------------------------------------------ campaign

struct CampaignSpec {
  std::size_t n = 0;
  std::size_t replicas = 0;  // topologies per campaign (each runs every MAC x fault cell)
  std::uint64_t cell_slots = 0;
  double rate = 0.0;         // convergecast, per node per slot
  std::uint64_t streams = 0;  // campaign seeds behind the modelled metrics
  int spread_setups = 0;      // throwaway set-ups spread over the timed part
};

constexpr const char* kMacs[] = {"tt-duty", "aloha", "uncoord", "smac", "tdma"};
constexpr double kIntensities[] = {0.0, 1.0};

/// The full fault storm of the fault-resilience sweep (intensity 1).
sim::FaultPlanConfig storm(std::uint64_t horizon) {
  sim::FaultPlanConfig fc;
  fc.horizon_slots = horizon;
  fc.crash_rate = 4e-5;
  fc.mean_downtime_slots = 300;
  fc.link_loss.p_good_to_bad = 0.004;
  fc.link_loss.p_bad_to_good = 0.05;
  fc.battery_spike_rate = 2e-5;
  fc.battery_spike_mj = 2.0;
  fc.num_jammers = 1;
  fc.jam_duty = 0.05;
  return fc;
}

std::unique_ptr<sim::MacProtocol> make_mac(const std::string& kind, const core::Schedule& duty,
                                           const net::Graph& g) {
  const std::size_t n = g.num_nodes();
  if (kind == "tt-duty") return std::make_unique<sim::DutyCycledScheduleMac>(duty);
  if (kind == "aloha") return std::make_unique<sim::SlottedAlohaMac>(n, 0.08);
  if (kind == "uncoord") return std::make_unique<sim::UncoordinatedSleepMac>(n, 0.4, 0.2);
  if (kind == "smac") return std::make_unique<sim::CommonActivePeriodMac>(n, 20, 5, 0.2);
  return std::make_unique<sim::ColoringTdmaMac>(g);
}

/// Inputs shared by every cell of a campaign (built in set-up).
struct CampaignWorld {
  std::vector<net::Graph> graphs;
  std::vector<std::size_t> sinks;
  double topology_s = 0.0;
};

/// Per-cell measurements, written by cell bodies into their own index.
struct CellTimes {
  std::vector<double> cell_ms;
  std::vector<double> setup_ms;  // part of cell_ms before Simulator::run
  std::vector<double> routing_s;
  std::vector<LayerTotals> layers;
  double family_s = 0.0;  // written once, by the schedule artifact's builder
  double construct_s = 0.0;
};

struct CampaignOutcome {
  runner::CampaignResult result;
  CellTimes times;
  double seconds = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double journal_bytes = 0.0;
};

std::unique_ptr<runner::Campaign> make_campaign(const CampaignSpec& spec, const CampaignWorld& w,
                                                std::uint64_t seed, const std::string& journal,
                                                bool traced, CellTimes& times) {
  runner::CampaignOptions options;
  options.master_seed = util::mix64(seed ^ 0x63616d70ull);
  runner::ResilienceOptions resilience;
  resilience.journal_path = journal;
  resilience.resume = false;
  options.resilience = resilience;
  auto campaign = std::make_unique<runner::Campaign>(options);
  const std::size_t cells = spec.replicas * std::size(kMacs) * std::size(kIntensities);
  times.cell_ms.assign(cells, 0.0);
  times.setup_ms.assign(cells, 0.0);
  times.routing_s.assign(cells, 0.0);
  times.layers.assign(cells, LayerTotals{});
  const std::string key = "perfbench:duty:n=" + std::to_string(spec.n);
  for (std::size_t rep = 0; rep < spec.replicas; ++rep) {
    for (const char* kind : kMacs) {
      for (const double x : kIntensities) {
        std::string name = std::string(kind) + ":i" + std::to_string(static_cast<int>(x)) +
                           ":r" + std::to_string(rep);
        campaign->add(std::move(name), [&spec, &w, &times, key, rep, kind, x,
                                        traced](runner::CellContext& ctx) {
          util::Timer cell_timer;
          const net::Graph& g = w.graphs[rep];
          util::Timer routing_timer;
          const auto routing = ctx.artifacts().routing(g);
          times.routing_s[ctx.index()] = routing_timer.seconds();
          const auto duty = ctx.artifacts().schedule(key, [&spec, &times] {
            auto [non_sleeping, duty] = make_schedules(spec.n, &times.family_s,
                                                       &times.construct_s);
            return std::move(duty);
          });
          auto mac = make_mac(kind, *duty, g);
          sim::ConvergecastTraffic traffic(g.num_nodes(), w.sinks[rep], spec.rate);
          sim::SimConfig config;
          config.seed = ctx.seed();
          config.shared_routing = routing.get();
          std::unique_ptr<sim::FaultPlan> plan;
          if (x > 0.0) {
            plan = std::make_unique<sim::FaultPlan>(storm(spec.cell_slots), g.num_nodes(),
                                                    ctx.seed());
            config.fault_plan = plan.get();
          }
          sim::MacProtocol* m = mac.get();
          sim::TrafficSource* t = &traffic;
          std::optional<TimedMac> timed_mac;
          std::optional<TimedTraffic> timed_traffic;
          if (traced) {
            m = &timed_mac.emplace(*mac);
            t = &timed_traffic.emplace(traffic);
          }
          sim::Simulator sim(g, *m, *t, config);
          times.setup_ms[ctx.index()] = cell_timer.millis();
          const auto t0 = Clock::now();
          sim.run(spec.cell_slots);
          if (traced) {
            times.layers[ctx.index()].add(*timed_mac, *timed_traffic,
                                          static_cast<double>(elapsed_ns(t0)));
          }
          if (const std::string err = conservation_error(sim); !err.empty()) {
            throw std::runtime_error(err);
          }
          ctx.record(sim.stats());
          ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
          times.cell_ms[ctx.index()] = cell_timer.millis();
        });
      }
    }
  }
  return campaign;
}

CampaignWorld make_campaign_world(const CampaignSpec& spec) {
  util::Timer timer;
  CampaignWorld w;
  for (std::size_t rep = 0; rep < spec.replicas; ++rep) {
    std::size_t sink = 0;
    w.graphs.push_back(make_topology(spec.n, rep, &sink));
    w.sinks.push_back(sink);
  }
  w.topology_s = timer.seconds();
  return w;
}

CampaignOutcome run_campaign_once(const CampaignSpec& spec, const CampaignWorld& w,
                                  std::uint64_t seed, const std::string& journal, bool traced) {
  CampaignOutcome out;
  const auto campaign = make_campaign(spec, w, seed, journal, traced, out.times);
  const auto t0 = Clock::now();
  out.result = campaign->run();
  out.seconds = static_cast<double>(elapsed_ns(t0)) * 1e-9;
  out.hits = static_cast<double>(campaign->artifacts().hits());
  out.misses = static_cast<double>(campaign->artifacts().misses());
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(journal, ec);
  out.journal_bytes = ec ? 0.0 : static_cast<double>(bytes);
  std::filesystem::remove(journal, ec);
  return out;
}

std::uint64_t campaign_digest(const runner::CampaignResult& result) {
  return util::fnv1a64(result.aggregate_json(), digest(result.aggregate));
}

/// Non-partial aggregate, no quarantined cell, and every cell's own
/// conservation identities (checked inside the cell body, which throws and
/// gets the cell quarantined on failure).
std::string campaign_error(const runner::CampaignResult& result) {
  if (!result.quarantined.empty()) {
    std::string err = std::to_string(result.quarantined.size()) + " quarantined cell(s):";
    for (const std::size_t i : result.quarantined) err += " " + result.cells[i].error;
    return err;
  }
  if (result.aggregate.partial) return "partial aggregate";
  return {};
}

Result run_campaign(const Options& o, const CampaignSpec& spec) {
  Result r;
  std::filesystem::create_directories(o.tmpdir);
  const std::string journal = o.tmpdir + "/campaign.journal";
  const CampaignWorld w = make_campaign_world(spec);
  if (o.trace) {
    SetupLayers setup;
    setup.topology_s = w.topology_s;
    double overhead = 0.0;
    // Fixed work: one campaign per seed stream.
    const RunLayers layers = traced_pairs(o.seconds, r, &overhead, [&](bool traced,
                                                                        RunLayers& out) {
      FixedWork work;
      std::uint64_t h = util::kFnvOffsetBasis;
      double busy_ms = 0.0;
      double worker_s = 0.0;
      setup.routing_s = 0.0;
      for (std::uint64_t stream = 0; stream < spec.streams; ++stream) {
        CampaignOutcome c =
            run_campaign_once(spec, w, stream_seed(o.seed, stream), journal, traced);
        if (const std::string err = campaign_error(c.result); !err.empty()) r.fail(err);
        work.seconds += c.seconds;
        h = util::fnv1a64_u64(h, campaign_digest(c.result));
        if (!traced) continue;
        for (const LayerTotals& cell : c.times.layers) out.sim.add(cell);
        for (const double s : c.times.routing_s) setup.routing_s += s;
        setup.family_s = c.times.family_s;
        setup.construct_s = c.times.construct_s;
        out.stats.merge(c.result.aggregate);
        out.slots_run += static_cast<double>(c.result.aggregate.slots_run);
        out.cell_ms.insert(out.cell_ms.end(), c.times.cell_ms.begin(), c.times.cell_ms.end());
        for (const double ms : c.times.cell_ms) busy_ms += ms;
        for (const double ms : c.times.setup_ms) out.cell_setup_ms += ms;
        worker_s += c.seconds * static_cast<double>(c.result.workers);
        out.artifact_hits += c.hits;
        out.artifact_misses += c.misses;
        for (const auto& cell : c.result.cells) out.retries += cell.attempts - 1.0;
        out.quarantined += static_cast<double>(c.result.quarantined.size());
        out.journal_bytes += c.journal_bytes;
      }
      out.busy_fraction = per(busy_ms * 1e-3, worker_s);
      out.cell_setup_fraction = per(out.cell_setup_ms, busy_ms);
      work.digest = h;
      return work;
    });
    setup.routing_s /= static_cast<double>(spec.streams);
    // Size and frame length of the schedule the TT cells ran.
    double family_s = 0.0;
    double construct_s = 0.0;
    const auto schedules = make_schedules(spec.n, &family_s, &construct_s);
    setup.schedule_mb = schedule_mb(schedules.second);
    setup.frame_length = static_cast<double>(schedules.second.frame_length());
    report_per_layer(r, setup, layers, overhead);
    return r;
  }

  // Set-up: replica topologies, the Campaign and its cells.
  HostSpeed host;
  SetupTimes setup(host, spec.spread_setups, o.seconds);
  const auto throwaway = [&] {
    const CampaignWorld world = make_campaign_world(spec);
    CellTimes times;
    const auto campaign =
        make_campaign(spec, world, stream_seed(o.seed, 0), journal, false, times);
  };
  setup.time(throwaway);

  // Campaigns cycle through the seed streams until the budget is spent.
  // Each campaign, and each of its cells, keeps the median of its
  // repetitions; the first pass is merged into the modelled metrics, and
  // every later campaign must repeat its stream's aggregate exactly.
  OpTimes campaigns;
  OpTimes cells;
  double pass_slots = 0.0;
  double pass_cells = 0.0;
  std::vector<std::uint64_t> digests;
  sim::SimStats merged;
  std::uint64_t h = util::kFnvOffsetBasis;
  std::uint64_t runs = 0;
  int workers = 0;
  util::Timer total;
  while (runs < spec.streams || total.seconds() < o.seconds) {
    setup.maybe(total.seconds(), throwaway);
    const std::uint64_t stream = runs % spec.streams;
    const double factor = host.factor();
    CampaignOutcome c = run_campaign_once(spec, w, stream_seed(o.seed, stream), journal, false);
    ++runs;
    const std::size_t n_cells = c.times.cell_ms.size();
    campaigns.add(stream, c.seconds / factor);
    for (std::size_t i = 0; i < n_cells; ++i) {
      cells.add(stream * n_cells + i, c.times.cell_ms[i] * 1e-3 / factor);
    }
    workers = c.result.workers;
    r.attempted += c.result.cells.size();
    r.failed += c.result.quarantined.size();
    if (const std::string err = campaign_error(c.result); !err.empty()) r.fail(err);
    const std::uint64_t d = campaign_digest(c.result);
    if (digests.size() < spec.streams) {
      digests.push_back(d);
      h = util::fnv1a64_u64(h, d);
      merged.merge(c.result.aggregate);
      pass_slots += static_cast<double>(c.result.aggregate.slots_run);
      pass_cells += static_cast<double>(n_cells);
    } else if (d != digests[stream]) {
      r.fail("campaign aggregate is not deterministic");
    }
  }

  setup.finish(throwaway);
  double family_s = 0.0;
  double construct_s = 0.0;
  const auto schedules = make_schedules(spec.n, &family_s, &construct_s);
  check_schedule(schedules.first, schedules.second, "campaign schedule", r);
  r.note("digest " + hex(h) + " (" + std::to_string(spec.streams) + " campaigns of " +
         std::to_string(static_cast<std::uint64_t>(pass_cells) / spec.streams) + " cells on " +
         std::to_string(workers) + " workers); " + std::to_string(runs) + " campaigns run");
  report_end_to_end(r, setup.median_s(), campaigns, pass_slots, pass_cells, cells, true, host,
                    modelled(merged, false));
  return r;
}

}  // namespace

// ------------------------------------------------------------ helpers

std::uint64_t digest(const sim::SimStats& s) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto fold = [&h](std::uint64_t v) { h = util::fnv1a64_u64(h, v); };
  for (const std::uint64_t v :
       {s.slots_run, s.generated, s.delivered, s.hop_successes, s.transmissions, s.collisions,
        s.receiver_asleep, s.channel_losses, s.sync_losses, s.queue_drops, s.first_death_slot,
        s.deaths, s.fault_crashes, s.fault_recoveries, s.fault_battery_spikes,
        s.fault_jam_bursts, s.burst_losses, s.drift_losses,
        static_cast<std::uint64_t>(s.partial)}) {
    fold(v);
  }
  std::vector<std::uint64_t> samples = s.latency.samples();
  std::sort(samples.begin(), samples.end());
  fold(samples.size());
  for (const std::uint64_t v : samples) fold(v);
  fold(s.state_slots.size());
  for (const auto& per_node : s.state_slots) {
    for (const std::uint64_t v : per_node) fold(v);
  }
  fold(s.delivered_by_origin.size());
  for (const std::uint64_t v : s.delivered_by_origin) fold(v);
  fold(s.wake_transitions.size());
  for (const std::uint64_t v : s.wake_transitions) fold(v);
  return h;
}

Result run_workload(const Options& o) {
  const bool small = o.small;
  if (o.workload == "classic") {
    SimSpec spec;
    spec.n = small ? 60 : 400;
    spec.rate = small ? 1e-3 : 5e-5;
    spec.chunk = 0;  // one frame
    spec.warmup_chunks = 2;
    spec.model_chunks = small ? 20 : 3000;
    spec.pass_chunks = small ? 10 : 1000;
    spec.spread_setups = small ? 2 : 20;
    return run_chunked(o, spec);
  }
  if (o.workload == "metro") {
    SimSpec spec;
    spec.n = small ? 600 : 10000;
    spec.convergecast = true;
    spec.rate = 1.0 / (300.0 * static_cast<double>(spec.n - 1));
    spec.chunk = 256;
    spec.warmup_chunks = 2;
    spec.model_chunks = small ? 32 : 2048;
    spec.pass_chunks = small ? 16 : 1000;
    spec.setup_reps = small ? 2 : 3;  // ~3 s and ~450 MB each: back to back
    return run_chunked(o, spec);
  }
  if (o.workload == "lifetime") {
    LifetimeSpec spec;
    spec.n = small ? 60 : 400;
    spec.frames_per_arrival = small ? 10.0 : 150.0;
    spec.battery_mj = small ? 2e4 : kLifetimeBatteryMj;
    spec.horizon = small ? 52000 : 4840000;  // just short of the first death
    spec.streams = small ? 2 : 48;
    spec.ff_prefix = small ? 20000 : 200000;
    spec.spread_setups = small ? 2 : 20;
    return run_lifetime(o, spec);
  }
  if (o.workload == "campaign") {
    CampaignSpec spec;
    spec.n = small ? 40 : 100;
    spec.replicas = small ? 1 : 4;
    spec.cell_slots = small ? 300 : 1000;
    spec.rate = 2e-4;
    spec.streams = small ? 2 : 25;
    spec.spread_setups = small ? 2 : 20;
    return run_campaign(o, spec);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench

#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

namespace ttdc::obs {

namespace {

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) c = '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

void write_double(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << v;
  }
}

}  // namespace

bool prometheus_valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' || c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!(head(c) || std::isdigit(static_cast<unsigned char>(c)) != 0)) return false;
  }
  return true;
}

bool prometheus_valid_label_name(const std::string& name) {
  // Same as a metric name minus the colon (colons are reserved for
  // recording rules).
  return prometheus_valid_metric_name(name) && name.find(':') == std::string::npos;
}

std::string prometheus_escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_text(const std::vector<MetricSnapshot>& snapshot) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const MetricSnapshot& m : snapshot) {
    const std::string name = sanitize(m.name);
    if (!m.help.empty()) {
      os << "# HELP " << name << ' ' << prometheus_escape_help(m.help) << '\n';
    }
    switch (m.type) {
      case MetricSnapshot::Type::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << ' ' << m.counter_value << '\n';
        break;
      case MetricSnapshot::Type::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ';
        write_double(os, m.gauge_value);
        os << '\n';
        break;
      case MetricSnapshot::Type::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          cumulative += m.buckets[i];
          os << name << "_bucket{le=\"";
          write_double(os, m.bounds[i]);
          os << "\"} " << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << m.count << '\n';
        os << name << "_sum ";
        write_double(os, m.sum);
        os << '\n';
        os << name << "_count " << m.count << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string prometheus_text(const MetricsRegistry& registry) {
  return prometheus_text(registry.snapshot());
}

void publish_sim_stats(const sim::SimStats& stats, MetricsRegistry& registry,
                       const std::string& prefix) {
  const auto g = [&](const char* suffix, const char* help) -> Gauge& {
    return registry.gauge(prefix + std::string(suffix), help);
  };
  g("_slots_run", "slots simulated").set(static_cast<double>(stats.slots_run));
  g("_generated", "packets generated").set(static_cast<double>(stats.generated));
  g("_delivered", "packets delivered end to end").set(static_cast<double>(stats.delivered));
  g("_transmissions", "transmission attempts").set(static_cast<double>(stats.transmissions));
  g("_hop_successes", "per-hop receptions").set(static_cast<double>(stats.hop_successes));
  g("_collisions", "receptions lost to collisions").set(static_cast<double>(stats.collisions));
  g("_receiver_asleep", "receptions lost: receiver not listening")
      .set(static_cast<double>(stats.receiver_asleep));
  g("_channel_losses", "receptions lost to channel error")
      .set(static_cast<double>(stats.channel_losses));
  g("_sync_losses", "receptions lost to sync miss").set(static_cast<double>(stats.sync_losses));
  g("_queue_drops", "packets dropped at full or unroutable queues")
      .set(static_cast<double>(stats.queue_drops));
  g("_delivery_ratio", "delivered / generated").set(stats.delivery_ratio());
  g("_hop_success_ratio", "hop successes / transmissions").set(stats.success_ratio());
  g("_awake_fraction", "fraction of node-slots not asleep").set(stats.awake_fraction());
  g("_latency_mean_slots", "mean delivery latency").set(stats.latency.mean());
  g("_latency_p50_slots", "median delivery latency")
      .set(static_cast<double>(stats.latency.percentile(50)));
  g("_latency_p95_slots", "95th-percentile delivery latency")
      .set(static_cast<double>(stats.latency.percentile(95)));
  g("_latency_max_slots", "max delivery latency")
      .set(static_cast<double>(stats.latency.max()));
  g("_deaths", "battery-depleted nodes").set(static_cast<double>(stats.deaths));
  g("_fault_crashes", "injected node crashes").set(static_cast<double>(stats.fault_crashes));
  g("_fault_recoveries", "injected node recoveries")
      .set(static_cast<double>(stats.fault_recoveries));
  g("_fault_battery_spikes", "injected battery spikes")
      .set(static_cast<double>(stats.fault_battery_spikes));
  g("_fault_jam_bursts", "injected jam bursts").set(static_cast<double>(stats.fault_jam_bursts));
  g("_burst_losses", "receptions lost to bursty (Gilbert-Elliott) links")
      .set(static_cast<double>(stats.burst_losses));
  g("_drift_losses", "receptions lost to clock drift")
      .set(static_cast<double>(stats.drift_losses));
}

}  // namespace ttdc::obs

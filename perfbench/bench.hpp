// Shared types of the ttdc benchmark program: the run options, the result a
// workload hands back, and the measurement helpers every workload uses
// (percentiles, peak RSS, the host-speed canary, the SimStats digest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes for the self-test: same code paths, sub-second runs.
  bool small = false;
  /// Scratch directory inside the checkout (campaign journals).
  std::string tmpdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result (digests, sample
  /// counts, the canary, every failed check).
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check; the run then reports correct=false.
  void fail(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Nearest-rank percentile of `v` (taken by value: callers keep their order).
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Host-speed canary: ns per iteration of a fixed CPU-bound loop.
double calib_ns();

/// Host-speed probe: ns per repetition of a fixed kernel shaped like the
/// slot loop (per-node coin flips, schedule-row intersections, queue
/// writes), with its data warm.
double probe_ns();

/// FNV-1a over every SimStats field, latency samples and per-node vectors
/// included. Samples are hashed in sorted order, so a percentile() query
/// (which reorders them in place) never changes the digest.
std::uint64_t digest(const ttdc::sim::SimStats& stats);

/// Runs one workload; throws std::invalid_argument for an unknown name.
Result run_workload(const Options& options);

}  // namespace perfbench

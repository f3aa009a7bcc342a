// ttdc benchmark program.
//
//   ttdc_perfbench --workload <classic|metro|lifetime|campaign> --seed <n>
//                  --seconds <s> --trace <0|1> [--small] [--tmpdir <dir>]
//
// Prints notes (digests, sample counts, the host-speed canary, failed
// checks), then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any correctness check failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/timer.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve(), so it would report
  // the launching process's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double calib_ns() {
  constexpr int kIters = 20'000'000;
  const ttdc::util::Timer timer;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < kIters; ++i) {
    h = (h ^ static_cast<std::uint64_t>(i)) * 0x100000001b3ull;
    asm volatile("" : "+r"(h));  // keep the dependent chain un-vectorised
  }
  return timer.seconds() * 1e9 / kIters;
}

double probe_ns() {
  constexpr std::size_t kNodes = 400;
  constexpr std::size_t kRows = 1449;
  constexpr std::size_t kWords = 14;  // two rows of ceil(400/64) words
  constexpr int kReps = 8;
  static const std::vector<std::uint64_t> schedule = [] {
    std::vector<std::uint64_t> rows(kRows * kWords);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& w : rows) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
    return rows;
  }();
  static std::vector<std::uint32_t> queue(4096);
  const auto pass = [] {
    std::uint64_t s0 = 1, s1 = 2, s2 = 3, s3 = 4;  // xoshiro256+ state
    std::uint64_t hits = 0;
    std::size_t tail = 0;
    for (std::size_t slot = 0; slot < kRows; slot += 7) {
      for (std::uint32_t v = 0; v < kNodes; ++v) {
        const std::uint64_t coin = s0 + s3;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);
        if ((coin >> 11) < (1ull << 40)) queue[tail++ & 4095] = v;
      }
      const std::uint64_t* a = &schedule[slot * kWords];
      const std::uint64_t* b = &schedule[((slot * 31) % kRows) * kWords + kWords / 2];
      for (std::size_t w = 0; w < kWords / 2; ++w) {
        hits += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
      }
    }
    asm volatile("" : : "r"(hits), "r"(tail));
  };
  pass();  // warm: the probe's data back in cache after the workload's
  const ttdc::util::Timer timer;
  for (int rep = 0; rep < kReps; ++rep) pass();
  return timer.seconds() * 1e9 / kReps;
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "error: " << why << "\n"
            << "usage: ttdc_perfbench --workload <classic|metro|lifetime|campaign> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--tmpdir <dir>]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--small") {
        o.small = true;
      } else if (arg == "--workload" && has_value) {
        o.workload = argv[++i];
        have_workload = true;
      } else if (arg == "--seed" && has_value) {
        o.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        o.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        o.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--tmpdir" && has_value) {
        o.tmpdir = argv[++i];
      } else {
        return usage(("unexpected argument '" + arg + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  const double calib_before = perfbench::calib_ns();
  perfbench::Result r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const double calib_after = perfbench::calib_ns();
  if (o.trace) r.metric("host.calib_ns", 0.5 * (calib_before + calib_after), "ns");

  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) r.fail("metric " + m.name + " is not finite");
  }
  if (r.attempted == 0) r.fail("no operation was attempted");

  std::cout << "workload " << o.workload << " seed " << o.seed << " trace " << (o.trace ? 1 : 0)
            << (o.small ? " (small)" : "") << "\n";
  std::cout << "host.calib_ns before " << calib_before << " after " << calib_after << "\n";
  for (const auto& line : r.notes) std::cout << line << "\n";
  for (const auto& m : r.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << json_number(std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return r.correct ? 0 : 1;
}

// perfbench_runner: runs one workload once and prints its record as one
// JSON line. run.py starts one process per run, so peak memory and set-up
// time belong to that run alone.
//
//   perfbench_runner --workload NAME --seed N [--traced [--spans FILE]]
//   perfbench_runner --workload NAME --seed N --setup-only
//   perfbench_runner --selftest
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fn>
std::string json_object(const Map& map, Fn&& value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, v] : map) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + value(v);
  }
  return out + "}";
}

std::string to_json(const perfbench::RunRecord& r) {
  const auto with_unit = [](const perfbench::Value& v) {
    return "{\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  };
  std::string out = "{";
  out += "\"workload\": " + json_string(r.workload);
  out += ", \"seed\": " + std::to_string(r.seed);
  out += ", \"traced\": ";
  out += r.mode == perfbench::Mode::kTraced ? "true" : "false";
  out += ", \"setup_s\": " + json_number(r.setup_s);
  out += ", \"run_wall_s\": " + json_number(r.run_wall_s);
  out += ", \"peak_rss_mb\": " + json_number(r.peak_rss_mb);
  out += ", \"digest\": " + json_string(r.digest);
  out += ", \"invariant_violations\": " + std::to_string(r.invariant_violations);
  out += ", \"unfinished\": " + std::to_string(r.unfinished);
  out += ", \"ops\": " + json_object(r.ops, json_number);
  out += ", \"outcomes\": " + json_object(r.outcomes, with_unit);
  out += ", \"layer\": " + json_object(r.layer, with_unit);
  return out + "}";
}

int usage() {
  std::cerr << "usage: perfbench_runner --workload NAME --seed N "
               "[--traced [--spans FILE] | --setup-only]\n"
               "       perfbench_runner --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans;
  std::uint64_t seed = 0;
  bool have_seed = false;
  perfbench::Mode mode = perfbench::Mode::kUntraced;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      return perfbench::run_selftests() == 0 ? 0 : 1;
    } else if (arg == "--traced") {
      mode = perfbench::Mode::kTraced;
    } else if (arg == "--setup-only") {
      mode = perfbench::Mode::kSetupOnly;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans = argv[++i];
    } else if (arg == "--seed" && has_value) {
      try {
        seed = std::stoull(argv[++i]);
        have_seed = true;
      } catch (const std::exception&) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed) return usage();

  try {
    perfbench::RunRecord record =
        perfbench::run_workload(workload, seed, mode, spans);
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    record.peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;
    std::cout << to_json(record) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

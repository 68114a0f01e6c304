// swift_perfbench: one run of one workload of the striped-I/O benchmark.
//
//   swift_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --scratch DIR
//
// Prints a human-readable report, then one "RECORD {json}" line with the op
// counts, every metric and, for medians, their per-repetition spread. Exits
// 1 when an op returned wrong bytes or a self-test failed, 2 on bad
// arguments or when a metric could not be measured. perfbench/run.py builds and runs it; see README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"

namespace {

using perfbench::Metric;
using perfbench::RunArgs;
using perfbench::RunReport;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
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

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintReport(const RunArgs& args, const RunReport& report) {
  std::printf("workload %s  seed %llu  %.0f s  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const Metric& metric : report.metrics) {
    std::printf("  %-40s %14.6g %-10s", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (metric.spread.count > 0) {
      std::printf(" [min %.6g  max %.6g  n=%zu]", metric.spread.min, metric.spread.max,
                  metric.spread.count);
    }
    std::printf("  %s\n", metric.note.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::printf("  ops attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), report.correct ? "yes" : "NO");

  std::string record = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + JsonNumber(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"correct\": " + (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) + ", \"notes\": [";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    record += (i == 0 ? "" : ", ") + JsonString(report.notes[i]);
  }
  record += "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    record += (i == 0 ? "" : ", ") + JsonString(metric.name) +
              ": {\"value\": " + JsonNumber(metric.value) +
              ", \"unit\": " + JsonString(metric.unit);
    if (metric.spread.count > 0) {
      record += ", \"runs\": " + std::to_string(metric.spread.count) +
                ", \"min\": " + JsonNumber(metric.spread.min) +
                ", \"median\": " + JsonNumber(metric.spread.median) +
                ", \"max\": " + JsonNumber(metric.spread.max);
    }
    record += ", \"note\": " + JsonString(metric.note) + "}";
  }
  std::printf("RECORD %s}}\n", record.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: swift_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--scratch DIR\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr || args.scratch_dir.empty() || args.seconds <= 0) {
    return Usage();
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  const RunReport report =
      args.trace ? perfbench::RunTraced(*spec, args) : perfbench::RunEndToEnd(*spec, args);
  PrintReport(args, report);
  if (!report.correct) {
    return 1;
  }
  return report.complete ? 0 : 2;
}

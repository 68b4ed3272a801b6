// IMP end-to-end benchmark driver.
//
//   imp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scale F] [--out DIR] [--corrupt-query K]
//
// Prints human-readable notes, then, as the LAST line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}; the same result
// (plus seed, inputs digest and notes) goes to DIR/<workload>_seed<N>_
// trace<T>.json when --out is given. Exit code 0 iff every answer passed
// the oracle and every sketch passed the Thm 6.1 check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.h"

namespace {

/// Keep memory the process frees for its own later use. Every episode frees
/// a whole database and builds the next one; memory handed back to the
/// kernel would be faulted in afresh by the next set-up and its first
/// capture, at a cost set by the host's memory pressure, not by the engine.
void KeepFreedMemory() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest heap allocation
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "imp_perfbench: %s\nusage: imp_perfbench --workload "
               "{agg_read|agg_churn|join_eager} --seed N "
               "--seconds S --trace 0|1 [--scale F] [--out DIR] "
               "[--corrupt-query K]\n",
               why);
  std::exit(2);
}

double ParseNumber(const char* flag, const char* text) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string ResultLine(const perfbench::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  KeepFreedMemory();
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(ParseNumber("--seed", value));
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber("--seconds", value);
      have_seconds = true;
    } else if (flag == "--trace") {
      std::string t = value;
      if (t != "0" && t != "1") Usage("--trace takes 0 or 1");
      options.trace = t == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      options.scale = ParseNumber("--scale", value);
      if (options.scale <= 0) Usage("--scale must be positive");
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--corrupt-query") {
      options.corrupt_query = static_cast<long>(ParseNumber(flag.c_str(), value));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == options.workload;
  }
  if (!known) Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  perfbench::RunResult result = perfbench::RunWorkload(options);
  std::printf("# inputs_digest=%s\n", result.inputs_digest.c_str());
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = ResultLine(result);
  if (!options.out_dir.empty()) {
    std::string path = options.out_dir + "/" + options.workload + "_seed" +
                       std::to_string(options.seed) + "_trace" +
                       (options.trace ? "1" : "0") + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::string notes;
      for (size_t i = 0; i < result.notes.size(); ++i) {
        notes += (i ? ", \"" : "\"") + JsonEscape(result.notes[i]) + "\"";
      }
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                   "\"seconds\": %s, \"scale\": %s, \"inputs_digest\": "
                   "\"%s\", \"notes\": [%s], \"result\": %s}\n",
                   options.workload.c_str(),
                   static_cast<unsigned long long>(options.seed),
                   options.trace ? 1 : 0, Number(options.seconds).c_str(),
                   Number(options.scale).c_str(),
                   result.inputs_digest.c_str(), notes.c_str(), line.c_str());
      std::fclose(f);
    } else {
      std::printf("# WARNING cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

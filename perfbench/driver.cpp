// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --clktune <path> --work-dir <dir> --references <file>
//                    [--record] [--source <id>]
//
// perfbench/run.py builds this binary and is the command to use.  Standard
// output carries a provenance line, then (with --record) the outputs to
// record as references, then as its last line the result object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// Exit codes: 0 every check passed, 1 a check failed or the run aborted,
// 2 usage error or a non-Release build.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

using clktune::util::Json;
namespace pb = clktune::perfbench;

const std::map<std::string, void (*)(const pb::Options&, pb::RunReport&)>&
workloads() {
  static const std::map<std::string,
                        void (*)(const pb::Options&, pb::RunReport&)>
      table = {{"paper_flow", pb::run_paper_flow},
               {"eval_heavy", pb::run_eval_heavy},
               {"serve_mix", pb::run_serve_mix}};
  return table;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

int run(int argc, char** argv) {
  pb::Options options;
  std::string references_path, source = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--clktune") {
      options.clktune = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--references") {
      references_path = value();
    } else if (arg == "--record") {
      options.record = true;
    } else if (arg == "--source") {
      source = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  const auto workload = workloads().find(options.workload);
  if (workload == workloads().end())
    usage("unknown workload '" + options.workload + "'");
  if (!have_seed || options.seconds <= 0.0 || options.work_dir.empty() ||
      options.clktune.empty())
    usage("needs --seed, --seconds > 0, --clktune and --work-dir");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    usage(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
          " build; configure with -DCMAKE_BUILD_TYPE=Release");

  if (!options.record) {
    const Json all = clktune::util::read_json_file(references_path);
    if (const Json* refs = all.find(options.workload))
      options.references = *refs;
  }
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (pb::kThreads >= nproc)
    std::fprintf(stderr,
                 "perfbench: warning: %d threads on %ld CPUs; numbers are "
                 "not comparable with a run below nproc\n",
                 pb::kThreads, nproc);
  Json provenance = Json::object();
  provenance.set("workload", options.workload);
  provenance.set("seed", options.seed);
  provenance.set("variant", options.variant());
  provenance.set("seconds", options.seconds);
  provenance.set("trace", options.trace);
  provenance.set("threads", pb::kThreads);
  provenance.set("clients", static_cast<std::uint64_t>(pb::kClients));
  provenance.set("nproc", static_cast<std::int64_t>(nproc));
  provenance.set("build_type", PERFBENCH_BUILD_TYPE);
  provenance.set("source", source);
  Json line = Json::object();
  line.set("provenance", std::move(provenance));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);

  pb::RunReport report(options.trace);
  workload->second(options, report);
  std::filesystem::remove_all(options.work_dir);

  if (options.record) {
    Json recorded = Json::object();
    recorded.set("recorded", report.recorded_json());
    std::printf("%s\n", recorded.dump().c_str());
  }
  std::printf("%s\n", report.result_json().dump().c_str());
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}

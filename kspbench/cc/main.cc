// kspbench: the kSP end-to-end benchmark binary.
//
//   kspbench gen --workload W --seed N --dir D
//       writes the inputs of workload W for seed N into D.
//   kspbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                [--trace-out FILE]
//       sets up from the inputs in D, measures for S seconds, checks every
//       answer, and prints one JSON result line last.
//   kspbench selfcheck
//       checks the reference evaluator against hand-known and brute-force
//       answers.
//
// run.py wraps these; see README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kspbench gen --workload W --seed N --dir D\n"
               "       kspbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D [--trace-out FILE]\n"
               "       kspbench selfcheck\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "selfcheck") return kspbench::RunSelfCheck();

  kspbench::RunConfig config;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || config.dir.empty()) return Usage();

  if (command == "gen") {
    return kspbench::Generate(config.workload, config.seed, config.dir);
  }
  if (command != "run") return Usage();
  if (config.workload == "engine-mem") return kspbench::RunEngineMem(config);
  if (config.workload == "serve-disk-zipf") {
    return kspbench::RunServeDiskZipf(config);
  }
  if (config.workload == "shard-scatter") {
    return kspbench::RunShardScatter(config);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
  return 2;
}

// Demonstrates the scenario service end to end, in one process: start a
// `clktune serve`-equivalent daemon on an ephemeral port, submit the
// quickstart scenario twice over TCP, and show that the second submission
// is served from the content-addressed cache with byte-identical bytes.
//
// Equivalent shell session against the real daemon:
//
//   clktune serve --port 20160 --cache-dir artifacts/cache &
//   clktune submit examples/scenarios/quickstart.json --port 20160
//   clktune submit examples/scenarios/quickstart.json --port 20160  # cached
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "serve/client.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/json.h"
#include "util/timer.h"

int main() {
  using clktune::util::Json;
  namespace serve = clktune::serve;

  serve::ServeOptions options;
  options.port = 0;  // ephemeral
  options.threads = static_cast<int>(clktune::util::env_long(
      "CLKTUNE_THREADS", 0));
  serve::ScenarioServer server(std::move(options));
  server.start();
  std::thread accept_loop([&server] { server.serve_forever(); });
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // ctest/IDE working directories vary; look upward for the repo layout.
  Json doc;
  {
    std::string prefix;
    for (int up = 0; up < 4; ++up) {
      try {
        doc = clktune::util::read_json_file(
            prefix + "examples/scenarios/quickstart.json");
        break;
      } catch (const std::exception&) {
        prefix += "../";
      }
    }
  }
  if (doc.is_null()) {
    std::fprintf(stderr, "cannot find examples/scenarios/quickstart.json\n");
    return 1;
  }
  // Shrink the budgets so the demo stays snappy (overridable via env).
  const long samples = clktune::util::env_long("CLKTUNE_SAMPLES", 1000);
  doc.find("insertion")->set("num_samples", samples);
  doc.find("evaluation")->set("samples", samples);
  doc.find("clock")->set("period_samples", samples);

  for (const char* label : {"cold", "warm"}) {
    const clktune::util::Stopwatch timer;
    const serve::SubmitOutcome outcome =
        serve::Client("127.0.0.1", server.port()).run(doc);
    if (!outcome.ok() || outcome.results.size() != 1) {
      std::fprintf(stderr, "submit failed\n");
      return 1;
    }
    const Json& result = outcome.results[0];
    std::printf(
        "%s submit: %s  T=%.1f ps  tuned yield %.2f%%  cached=%llu"
        "  (%.2f s)\n",
        label, result.at("name").as_string().c_str(),
        result.at("clock_period_ps").as_double(),
        100.0 * result.at("yield").at("tuned").at("yield").as_double(),
        static_cast<unsigned long long>(outcome.cached), timer.seconds());
  }

  server.stop();
  accept_loop.join();
  return 0;
}

// oracled_ctl — command-line client for the oracled advice service.
//
//   oracled_ctl [--socket PATH] ping
//   oracled_ctl [--socket PATH] upload <file|->
//   oracled_ctl [--socket PATH] advise <task> --digest D [--source N]
//               [--tree bfs|dfs|kruskal|light] [--fraction Q]
//               [--oracle-seed S]
//   oracled_ctl [--socket PATH] run <task> --digest D [--source N]
//               [--scheduler sync|random|fifo|lifo|linkfifo|adversarial]
//               [--seed N] [--fault-rate P] [--fault-seed S]
//               [--deadline-ms T] [--tree K] [--fraction Q]
//               [--oracle-seed S]
//   oracled_ctl [--socket PATH] metrics
//   oracled_ctl [--socket PATH] stats
//   oracled_ctl [--socket PATH] shutdown
//
// Prints the response body on stdout. Exit code mirrors the service's
// status ladder (the CLI's contract): 0 = ok / task solved, 1 = the task
// failed (a reportable result), 2 = infrastructure error (bad usage,
// unreachable daemon, unknown digest, malformed request).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/client.h"
#include "util/parse_number.h"

namespace {

using namespace oraclesize::service;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr
      << "usage:\n"
      << "  oracled_ctl [--socket PATH] ping\n"
      << "  oracled_ctl [--socket PATH] upload <file|->\n"
      << "  oracled_ctl [--socket PATH] advise <task> --digest D\n"
      << "      [--source N] [--tree K] [--fraction Q] [--oracle-seed S]\n"
      << "  oracled_ctl [--socket PATH] run <task> --digest D [--source N]\n"
      << "      [--scheduler X] [--seed N] [--fault-rate P] "
         "[--fault-seed S]\n"
      << "      [--deadline-ms T] [--tree K] [--fraction Q] "
         "[--oracle-seed S]\n"
      << "  oracled_ctl [--socket PATH] metrics | stats | shutdown\n";
  std::exit(2);
}

/// A numeric flag (util/parse_number.h); a bad one exits 2 with usage.
template <typename T>
T number(const std::string& s, const std::string& what) {
  try {
    return oraclesize::parse_number<T>(s, what);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

double probability(const std::string& s, const std::string& what) {
  try {
    return oraclesize::parse_probability(s, what);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/oracled.sock";
  TaskRequest req;
  std::vector<std::string> rest;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + a);
      return args[++i];
    };
    if (a == "--socket") {
      socket_path = next();
    } else if (a == "--digest") {
      req.digest = next();
    } else if (a == "--source") {
      req.source = number<oraclesize::NodeId>(next(), "--source");
    } else if (a == "--tree") {
      req.tree = next();
    } else if (a == "--fraction") {
      req.fraction = probability(next(), "--fraction");
    } else if (a == "--oracle-seed") {
      req.oracle_seed = number<std::uint64_t>(next(), "--oracle-seed");
    } else if (a == "--scheduler") {
      req.scheduler = next();
    } else if (a == "--seed") {
      req.seed = number<std::uint64_t>(next(), "--seed");
    } else if (a == "--fault-rate") {
      req.fault_drop = probability(next(), "--fault-rate");
    } else if (a == "--fault-seed") {
      req.fault_seed = number<std::uint64_t>(next(), "--fault-seed");
    } else if (a == "--deadline-ms") {
      req.deadline_ms = number<std::uint64_t>(next(), "--deadline-ms");
    } else if (a == "--help" || a == "-h") {
      usage();
    } else if (a.rfind("--", 0) == 0) {
      usage("unknown option '" + a + "'");
    } else {
      rest.push_back(a);
    }
  }
  if (rest.empty()) usage("missing command");
  const std::string& command = rest[0];

  try {
    ServiceClient client(socket_path);
    ServiceClient::Reply reply;
    if (command == "ping") {
      reply = client.ping();
    } else if (command == "upload") {
      if (rest.size() != 2) usage("upload: expected one file (or -)");
      std::string text;
      if (rest[1] == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
      } else {
        std::ifstream in(rest[1]);
        if (!in) {
          std::cerr << "error: cannot open '" << rest[1] << "'\n";
          return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
      }
      reply = client.upload(text);
    } else if (command == "advise" || command == "run") {
      if (rest.size() != 2) usage(command + ": expected exactly one task");
      req.task = rest[1];
      if (req.digest.empty()) usage(command + ": --digest is required");
      reply = command == "run" ? client.run(req) : client.advise(req);
    } else if (command == "metrics") {
      reply = client.metrics();
    } else if (command == "stats") {
      reply = client.stats();
    } else if (command == "shutdown") {
      reply = client.shutdown_server();
    } else {
      usage("unknown command '" + command + "'");
    }
    std::cout << reply.body;
    if (!reply.body.empty() && reply.body.back() != '\n') std::cout << "\n";
    return reply.status;
  } catch (const ServiceError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

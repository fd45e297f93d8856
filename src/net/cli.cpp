#include "net/cli.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <vector>

namespace llmp::net {

namespace {

/// Flags that take no value.
bool is_boolean(const std::string& flag) {
  return flag == "--serve.verify" || flag == "--fault.degrade" ||
         flag == "--csv";
}

bool known(const std::string& flag) {
  static const std::vector<std::string> kFlags = {
      "--serve.requests",   "--serve.n",         "--serve.lists",
      "--serve.workers",    "--serve.queue",     "--serve.policy",
      "--serve.alg",        "--serve.deadline-ms", "--serve.verify",
      "--serve.warmup",     "--serve.audit",     "--fault.failpoints",
      "--fault.retries",
      "--fault.wedge-ms",   "--fault.degrade",   "--net.listen",
      "--net.connect",      "--net.tenant",      "--net.quota-rps",
      "--net.quota-burst",  "--net.max-in-flight", "--net.conns",
      "--csv",
  };
  return std::find(kFlags.begin(), kFlags.end(), flag) != kFlags.end();
}

Status parse_u64(const std::string& flag, const std::string& value,
                 std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0')
    return Status::invalid_argument(flag + ": expected a number, got '" +
                                    value + "'");
  return {};
}

Status parse_f64(const std::string& flag, const std::string& value,
                 double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    return Status::invalid_argument(flag + ": expected a number, got '" +
                                    value + "'");
  return {};
}

Status parse_host_port(const std::string& flag, const std::string& value,
                       std::string* host, std::uint16_t* port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == value.size())
    return Status::invalid_argument(flag + ": expected HOST:PORT, got '" +
                                    value + "'");
  std::uint64_t p = 0;
  if (Status s = parse_u64(flag, value.substr(colon + 1), &p); !s.ok())
    return s;
  if (p == 0 || p > 0xFFFF)
    return Status::invalid_argument(flag + ": port out of range");
  *host = value.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return {};
}

}  // namespace

std::string serve_cli_usage() {
  return
      "usage: llmp_serve [options]\n"
      "\n"
      "Workload + service (--serve.*):\n"
      "  --serve.requests R     total requests to submit (default 2000)\n"
      "  --serve.n N            nodes per list (default 10000)\n"
      "  --serve.lists L        distinct lists cycled through (default 8)\n"
      "  --serve.workers W      service workers (default 4)\n"
      "  --serve.queue Q        queue capacity (default 256)\n"
      "  --serve.policy P       block|reject when the queue is full\n"
      "  --serve.alg A          registry algorithm name (default match4)\n"
      "  --serve.deadline-ms D  per-request deadline (default none)\n"
      "  --serve.verify         audit every result with core::verify\n"
      "  --serve.warmup K       warmup requests before stats reset\n"
      "                         (default 8 x workers + 8)\n"
      "  --serve.audit M        integrity auditing: off|audit|repair\n"
      "                         (default off; audit fails corrupt results\n"
      "                         with DATA_LOSS, repair heals them in place)\n"
      "\n"
      "Fault injection / resilience (--fault.*):\n"
      "  --fault.failpoints S   arm failpoints from spec S after warmup\n"
      "  --fault.retries R      retry attempts per request (default 1 = none)\n"
      "  --fault.wedge-ms T     watchdog replaces workers busy longer than T\n"
      "  --fault.degrade        enable graceful degradation to sequential\n"
      "\n"
      "Network front-end (--net.*; without these the tool runs the classic\n"
      "in-process loop):\n"
      "  --net.listen PORT      serve the wire protocol on PORT (0 =\n"
      "                         ephemeral, printed at startup) until\n"
      "                         SIGINT/SIGTERM\n"
      "  --net.connect H:P      send the request stream to a remote server\n"
      "                         instead of an in-process Service\n"
      "  --net.conns C          client connections in connect mode (default 1)\n"
      "  --net.tenant T         tenant id for generated requests (default 0)\n"
      "  --net.quota-rps R      default per-tenant token rate (listen mode;\n"
      "                         0 = unlimited)\n"
      "  --net.quota-burst B    token bucket depth (default = rate)\n"
      "  --net.max-in-flight M  per-tenant in-flight cap (0 = unlimited)\n"
      "\n"
      "Output:\n"
      "  --csv                  one machine-readable summary line\n";
}

Status parse_serve_cli(int argc, const char* const* argv,
                       ServeCliOptions* out, bool* help) {
  *help = false;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      *help = true;
      return {};
    }
    if (token.rfind("--", 0) != 0)
      return Status::invalid_argument("unexpected argument '" + token + "'");
    if (!known(token))
      return Status::invalid_argument("unknown flag '" + token + "'");
    if (is_boolean(token)) {
      kv.insert_or_assign(token, std::string("1"));
      continue;
    }
    if (i + 1 >= argc)
      return Status::invalid_argument(token + ": missing value");
    kv.insert_or_assign(token, std::string(argv[++i]));
  }

  std::uint64_t u = 0;
  double d = 0;
  auto get_u64 = [&](const char* flag, std::uint64_t* dst) -> Status {
    if (auto it = kv.find(flag); it != kv.end()) {
      if (Status s = parse_u64(flag, it->second, &u); !s.ok()) return s;
      *dst = u;
    }
    return {};
  };

  if (Status s = get_u64("--serve.requests", &out->requests); !s.ok())
    return s;
  std::uint64_t tmp = out->n;
  if (Status s = get_u64("--serve.n", &tmp); !s.ok()) return s;
  out->n = static_cast<std::size_t>(tmp);
  tmp = out->lists;
  if (Status s = get_u64("--serve.lists", &tmp); !s.ok()) return s;
  out->lists = std::max<std::size_t>(static_cast<std::size_t>(tmp), 1);
  if (auto it = kv.find("--serve.alg"); it != kv.end()) out->alg = it->second;
  if (Status s = get_u64("--serve.deadline-ms", &out->deadline_ms); !s.ok())
    return s;
  if (Status s = get_u64("--serve.warmup", &out->warmup); !s.ok()) return s;

  tmp = out->service.workers;
  if (Status s = get_u64("--serve.workers", &tmp); !s.ok()) return s;
  out->service.workers = std::max<std::size_t>(static_cast<std::size_t>(tmp),
                                               1);
  tmp = out->service.queue_capacity;
  if (Status s = get_u64("--serve.queue", &tmp); !s.ok()) return s;
  out->service.queue_capacity =
      std::max<std::size_t>(static_cast<std::size_t>(tmp), 1);
  if (auto it = kv.find("--serve.policy"); it != kv.end()) {
    if (it->second == "reject")
      out->service.overflow = serve::OverflowPolicy::kReject;
    else if (it->second == "block")
      out->service.overflow = serve::OverflowPolicy::kBlock;
    else
      return Status::invalid_argument(
          "--serve.policy: expected block|reject, got '" + it->second + "'");
  }
  out->service.verify = kv.count("--serve.verify") != 0;
  if (auto it = kv.find("--serve.audit"); it != kv.end()) {
    if (!serve::audit_policy_from_string(it->second, &out->service.audit))
      return Status::invalid_argument(
          "--serve.audit: expected off|audit|repair, got '" + it->second +
          "'");
  }

  if (auto it = kv.find("--fault.failpoints"); it != kv.end())
    out->failpoints = it->second;
  tmp = 1;
  if (Status s = get_u64("--fault.retries", &tmp); !s.ok()) return s;
  out->service.retry.max_attempts =
      static_cast<int>(std::max<std::uint64_t>(tmp, 1));
  tmp = 0;
  if (Status s = get_u64("--fault.wedge-ms", &tmp); !s.ok()) return s;
  out->service.wedge_threshold = std::chrono::milliseconds(tmp);
  if (out->service.wedge_threshold.count() > 0)
    out->service.supervisor_period = std::max(
        out->service.wedge_threshold / 4, std::chrono::milliseconds(1));
  out->service.degrade.enabled = kv.count("--fault.degrade") != 0;

  if (auto it = kv.find("--net.listen"); it != kv.end()) {
    if (Status s = parse_u64("--net.listen", it->second, &u); !s.ok())
      return s;
    if (u > 0xFFFF)
      return Status::invalid_argument("--net.listen: port out of range");
    out->listen = true;
    out->listen_port = static_cast<std::uint16_t>(u);
  }
  if (auto it = kv.find("--net.connect"); it != kv.end()) {
    if (Status s = parse_host_port("--net.connect", it->second,
                                   &out->connect_host, &out->connect_port);
        !s.ok())
      return s;
  }
  if (out->listen && !out->connect_host.empty())
    return Status::invalid_argument(
        "--net.listen and --net.connect are mutually exclusive");
  tmp = 0;
  if (Status s = get_u64("--net.tenant", &tmp); !s.ok()) return s;
  out->tenant = static_cast<std::uint32_t>(tmp);
  if (auto it = kv.find("--net.quota-rps"); it != kv.end()) {
    if (Status s = parse_f64("--net.quota-rps", it->second, &d); !s.ok())
      return s;
    out->quota_rps = d;
  }
  if (auto it = kv.find("--net.quota-burst"); it != kv.end()) {
    if (Status s = parse_f64("--net.quota-burst", it->second, &d); !s.ok())
      return s;
    out->quota_burst = d;
  }
  tmp = 0;
  if (Status s = get_u64("--net.max-in-flight", &tmp); !s.ok()) return s;
  out->max_in_flight = static_cast<std::uint32_t>(tmp);
  tmp = 1;
  if (Status s = get_u64("--net.conns", &tmp); !s.ok()) return s;
  out->conns = std::max<std::size_t>(static_cast<std::size_t>(tmp), 1);

  out->csv = kv.count("--csv") != 0;
  return {};
}

}  // namespace llmp::net

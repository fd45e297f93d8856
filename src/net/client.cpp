#include "net/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

namespace llmp::net {

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() { close(); }

Status Client::connect() {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    return Status::unavailable(std::string("socket: ") +
                               std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close();
    return Status::invalid_argument("bad host " + options_.host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::unavailable(
        "connect " + options_.host + ":" + std::to_string(options_.port) +
        ": " + std::strerror(errno));
    close();
    return s;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = options_.recv_timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(options_.recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return {};
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::write_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + at, bytes.size() - at,
                             MSG_NOSIGNAL);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::unavailable(std::string("send: ") + std::strerror(errno));
  }
  stats_.bytes_out += bytes.size();
  return {};
}

Status Client::read_frame(FrameHeader* header,
                          std::vector<std::uint8_t>* payload) {
  std::uint8_t head[kFrameHeaderBytes];
  std::size_t at = 0;
  while (at < kFrameHeaderBytes) {
    const ssize_t n = ::recv(fd_, head + at, kFrameHeaderBytes - at, 0);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      return Status::unavailable("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Status::unavailable("timed out waiting for a response frame");
    return Status::unavailable(std::string("recv: ") + std::strerror(errno));
  }
  if (Status s = decode_header(head, kFrameHeaderBytes, header); !s.ok())
    return s;
  stats_.bytes_in += kFrameHeaderBytes + header->payload_bytes;
  payload->resize(header->payload_bytes);
  at = 0;
  while (at < payload->size()) {
    const ssize_t n = ::recv(fd_, payload->data() + at, payload->size() - at,
                             0);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      return Status::unavailable("connection closed mid-frame");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Status::unavailable("timed out mid-frame");
    return Status::unavailable(std::string("recv: ") + std::strerror(errno));
  }
  return {};
}

Status Client::encode_builder(const RequestBuilder& req,
                              std::uint64_t request_id,
                              std::vector<std::uint8_t>& out) {
  RequestFrame f;
  f.algorithm = req.algorithm_name();
  f.memory_budget_bytes = req.budget_bytes();
  const auto deadline = req.deadline_point();
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    // An already-passed deadline still crosses the wire (as the minimum
    // interval) so the SERVER is the one to say kDeadlineExceeded.
    f.deadline_ms =
        left.count() > 0 ? static_cast<std::uint32_t>(left.count()) : 1;
  }
  if (req.is_generated()) {
    f.list_spec = ListSpec::kGenerated;
    f.n = req.generated_n();
    f.seed = req.generated_seed();
  } else if (req.list_ptr() != nullptr) {
    f.list_spec = ListSpec::kInline;
    f.n = req.list_ptr()->size();
    f.links = req.list_ptr()->next_array();
  } else {
    return Status::invalid_argument(
        "request names no list: call list() or generated()");
  }
  const std::uint32_t tenant =
      req.tenant_id() != 0 ? req.tenant_id() : options_.tenant;
  return encode_request(f, tenant, request_id, out);
}

Result<core::MatchResult> Client::submit(const RequestBuilder& req) {
  std::vector<Result<core::MatchResult>> r =
      submit_batch(std::vector<RequestBuilder>{req});
  return std::move(r.front());
}

std::vector<Result<core::MatchResult>> Client::submit_batch(
    const std::vector<RequestBuilder>& reqs) {
  std::vector<Result<core::MatchResult>> results(
      reqs.size(), Status::unavailable("no response received"));
  if (reqs.empty()) return results;
  if (fd_ < 0) {
    for (auto& r : results) r = Status::unavailable("client not connected");
    return results;
  }

  // Encode the whole batch, ids mapping back to positions.
  std::map<std::uint64_t, std::size_t> position_of;
  std::vector<std::uint8_t> wire;
  std::size_t i = 0;
  for (const RequestBuilder& req : reqs) {
    const std::uint64_t id = next_id_++;
    if (Status s = encode_builder(req, id, wire); !s.ok()) {
      results[i++] = s;  // local rejection; nothing was written for it
      continue;
    }
    position_of.emplace(id, i++);
    stats_.requests++;
  }
  const auto started = std::chrono::steady_clock::now();
  if (Status s = write_all(wire); !s.ok()) {
    for (const auto& [id, i] : position_of) results[i] = s;
    close();
    return results;
  }

  // Read until every in-flight id is reconciled. Out-of-order is normal;
  // duplicates and unknowns are counted and skipped.
  std::size_t outstanding = position_of.size();
  std::vector<bool> answered(reqs.size(), false);
  while (outstanding > 0) {
    FrameHeader h;
    std::vector<std::uint8_t> payload;
    if (Status s = read_frame(&h, &payload); !s.ok()) {
      for (const auto& [id, i] : position_of)
        if (!answered[i])
          results[i] = Status::unavailable(
              "connection lost before this request's response: " +
              s.message());
      close();
      return results;
    }
    const auto now = std::chrono::steady_clock::now();
    stats_.responses++;
    auto it = position_of.find(h.request_id);
    if (it == position_of.end()) {
      stats_.unknown_ids++;
      continue;
    }
    if (answered[it->second]) {
      stats_.duplicates++;
      continue;
    }
    latency_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - started)
            .count()));
    if (h.type == FrameType::kResponse) {
      ResponseFrame f;
      if (Status s = decode_response(payload.data(), payload.size(), &f);
          !s.ok()) {
        results[it->second] = s;
      } else {
        core::MatchResult m;
        m.edges = f.edges;
        m.relabel_rounds = static_cast<int>(f.relabel_rounds);
        m.gather_rounds = static_cast<int>(f.gather_rounds);
        m.partition_sets = f.partition_sets;
        m.cost.depth = f.cost_depth;
        m.cost.time_p = f.cost_time_p;
        m.cost.work = f.cost_work;
        results[it->second] = std::move(m);
        stats_.ok++;
      }
    } else if (h.type == FrameType::kError) {
      ErrorFrame f;
      if (Status s = decode_error(payload.data(), payload.size(), &f);
          !s.ok())
        results[it->second] = s;
      else
        results[it->second] = Status(f.code, f.message);
      stats_.errors++;
    } else {
      results[it->second] = Status::invalid_argument(
          "unexpected frame type in response stream");
    }
    answered[it->second] = true;
    outstanding--;
  }
  return results;
}

Result<StatsFrame> Client::server_stats() {
  if (fd_ < 0) return Status::unavailable("client not connected");
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> wire;
  encode_stats_request(options_.tenant, id, wire);
  if (Status s = write_all(wire); !s.ok()) return s;
  // Stats may interleave with pipelined traffic only on a dedicated
  // client; this simple reader expects the stats frame (or errors) next.
  while (true) {
    FrameHeader h;
    std::vector<std::uint8_t> payload;
    if (Status s = read_frame(&h, &payload); !s.ok()) {
      // A failed frame read (timeout mid-header, server gone) leaves the
      // stream desynchronised; drop the connection so a later
      // submit_batch cannot misparse — same handling as submit_batch.
      close();
      return s;
    }
    if (h.request_id != id) {
      stats_.unknown_ids++;
      continue;
    }
    if (h.type == FrameType::kError) {
      ErrorFrame f;
      if (Status s = decode_error(payload.data(), payload.size(), &f);
          !s.ok())
        return s;
      return Status(f.code, f.message);
    }
    if (h.type != FrameType::kStats)
      return Status::invalid_argument("expected a stats frame");
    StatsFrame f;
    if (Status s = decode_stats(payload.data(), payload.size(), &f); !s.ok())
      return s;
    return f;
  }
}

ClientStats Client::stats() const {
  ClientStats out = stats_;
  out.p50_latency_us = latency_.percentile(0.50);
  out.p99_latency_us = latency_.percentile(0.99);
  return out;
}

}  // namespace llmp::net

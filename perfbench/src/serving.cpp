// Served phases (see serving.h).
#include "serving.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <unordered_map>

#include "core/run.h"
#include "core/verify.h"
#include "llmp.h"
#include "net/client.h"
#include "stabilize/audit.h"

namespace perfbench {

using namespace llmp;

namespace {

/// Socket send/receive timeout: a stalled server fails the run instead of
/// hanging it.
constexpr int kSocketTimeoutS = 10;
/// How long the open loop waits for answers after its last send.
constexpr double kDrainSeconds = 10.0;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const timeval tv{kSocketTimeoutS, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return fd;
}

/// Reassembles answer frames from one connection's byte stream.
class FrameReader {
 public:
  /// Append what the socket has, blocking until something arrives or the
  /// receive timeout passes. False on EOF, error or timeout. Invalidates
  /// payload pointers handed out by next().
  bool fill(int fd) {
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < kChunk) buf_.resize(end_ + 2 * kChunk);
    const ssize_t got = ::recv(fd, buf_.data() + end_, buf_.size() - end_, 0);
    if (got <= 0) return false;
    end_ += static_cast<std::size_t>(got);
    return true;
  }
  /// The next complete frame, if buffered; `bad` on a corrupt header.
  bool next(net::FrameHeader* h, const std::uint8_t** payload, bool* bad) {
    if (end_ - begin_ < net::kFrameHeaderBytes) return false;
    if (!net::decode_header(buf_.data() + begin_, net::kFrameHeaderBytes, h)
             .ok()) {
      *bad = true;
      return false;
    }
    const std::size_t total = net::kFrameHeaderBytes + h->payload_bytes;
    if (end_ - begin_ < total) return false;
    *payload = buf_.data() + begin_ + net::kFrameHeaderBytes;
    begin_ += total;
    return true;
  }

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(2 * kChunk);
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Phases are cut into windows of at least kMinPerWindow samples (at most
/// kMaxWindows) and report the median over windows, so a host stall that
/// spoils a few windows does not move the figure.
constexpr std::size_t kMaxWindows = 200;
constexpr std::size_t kMinPerWindow = 100;
std::size_t windows_for(std::size_t samples) {
  return std::clamp<std::size_t>(samples / kMinPerWindow, 1, kMaxWindows);
}

}  // namespace

Serving::Serving(const WorkloadSpec& spec, const Inputs& inputs,
                 const Oracles& oracles, bool traced)
    : spec_(spec), in_(inputs), oracles_(oracles) {
  serve::ServiceOptions so;
  so.workers = kWorkers;
  so.verify = spec.verify;
  so.audit = spec.audit;
  if (traced)
    so.on_dequeue = [this](std::size_t) {
      last_dequeue_ns_.store(now_ns(), std::memory_order_relaxed);
    };
  service_ = std::make_unique<serve::Service>(std::move(so));
  server_ = std::make_unique<net::Server>(*service_, net::ServerOptions{});
  if (!server_->start().ok()) return;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const int fd = connect_loopback(server_->port());
    if (fd < 0) return;
    fds_.push_back(fd);
  }
  start_ok_ = true;
}

Serving::~Serving() {
  for (const int fd : fds_) ::close(fd);
  server_.reset();  // drains in-flight work before the Service goes
  service_.reset();
}

bool Serving::send_request(int fd, std::uint64_t id) {
  const std::vector<std::uint8_t>& payload = in_.payloads[in_.pool_index(id)];
  thread_local std::vector<std::uint8_t> header;
  header.clear();
  net::FrameHeader h;
  h.type = net::FrameType::kRequest;
  h.request_id = id;
  h.payload_bytes = static_cast<std::uint32_t>(payload.size());
  net::encode_header(h, header);
  iovec iov[2] = {{header.data(), header.size()},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  std::size_t left = header.size() + payload.size();
  while (left > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    left -= static_cast<std::size_t>(w);
    std::size_t adv = static_cast<std::size_t>(w);
    while (adv > 0 && msg.msg_iovlen > 0) {
      if (adv >= msg.msg_iov[0].iov_len) {
        adv -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<std::uint8_t*>(msg.msg_iov[0].iov_base) + adv;
        msg.msg_iov[0].iov_len -= adv;
        adv = 0;
      }
    }
  }
  return true;
}

bool Serving::check_answer(const net::FrameHeader& h,
                           const std::uint8_t* payload, Ledger& ledger) {
  const std::size_t k = in_.pool_index(h.request_id);
  if (h.type == net::FrameType::kResponse) {
    net::ResponseFrame f;
    if (!net::decode_response(payload, h.payload_bytes, &f).ok() ||
        f.edges != oracles_.served_edges[k]) {
      ++ledger.wrong;
      return false;
    }
    return true;
  }
  net::ErrorFrame e;
  if (h.type == net::FrameType::kError &&
      net::decode_error(payload, h.payload_bytes, &e).ok()) {
    ++ledger.failed;
    if (e.code == StatusCode::kDataLoss) data_loss_.fetch_add(1);
  } else {
    ++ledger.wrong;
  }
  return false;
}

void Serving::warm(Ledger& ledger) {
  // Each pool list twice per connection, one request outstanding.
  for (std::size_t c = 0; c < fds_.size(); ++c) {
    FrameReader reader;
    for (std::size_t i = 0; i < 2 * in_.pool.size(); ++i) {
      // Ids whose stream slot names pool list i % pool.
      std::uint64_t id = next_id_++;
      while (in_.pool_index(id) != i % in_.pool.size()) id = next_id_++;
      ++ledger.attempted;
      if (!send_request(fds_[c], id)) {
        ++ledger.lost;
        return;
      }
      net::FrameHeader h;
      const std::uint8_t* p = nullptr;
      bool bad = false;
      bool got = false;
      while (!got && !bad) {
        if (!reader.fill(fds_[c])) break;
        got = reader.next(&h, &p, &bad);
      }
      if (!got) {
        ++ledger.lost;
        return;
      }
      if (h.request_id != id) ++ledger.duplicated;
      else check_answer(h, p, ledger);
    }
  }
}

void Serving::clear() {
  open_window_p50_us_.clear();
  open_latency_us_.clear();
  open_late_us_.clear();
  open_sent_ = 0;
  closed_window_rps_.clear();
  closed_cpu_s_ = 0;
  closed_answered_ = 0;
  lost_ = duplicates_ = 0;
  server_before_ = server_->stats();
  requests_measured_ = 0;
}

void Serving::open_loop(double seconds, Tracer& tracer, Ledger& ledger) {
  const double rate = spec_.open_rate_rps;
  const std::int64_t period = static_cast<std::int64_t>(1e9 / rate);
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds * rate));
  const std::uint64_t base = next_id_;
  next_id_ += count;

  // late[i] is written by the sender before it publishes i; the rest
  // belongs to the receiver (this thread).
  std::vector<std::int64_t> late(count, 0);
  std::vector<std::int64_t> answered_at(count, 0);
  std::vector<std::uint8_t> state(count, 0);  // 0 open, 1 ok, 2 failed
  std::atomic<std::size_t> published{0};
  std::atomic<bool> sender_done{false};
  const std::int64_t t0 = now_ns() + 1'000'000;
  auto due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(i) * period;
  };

  std::thread sender([&] {
    for (std::size_t i = 0; i < count; ++i) {
      std::int64_t t = now_ns();
      // Fixed wait strategy: spin to the due time. Sleeping instead
      // would add the wake-up latency of the host to every request.
      while (t < due(i)) t = now_ns();
      late[i] = t - due(i);
      published.store(i + 1, std::memory_order_release);
      if (!send_request(fds_[i % fds_.size()], base + i)) break;
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::vector<FrameReader> readers(fds_.size());
  std::vector<pollfd> pfds;
  for (const int fd : fds_) pfds.push_back({fd, POLLIN, 0});
  std::size_t answered = 0;
  std::uint64_t duplicates = 0;
  const std::int64_t give_up = due(count) + static_cast<std::int64_t>(
                                                kDrainSeconds * 1e9);
  while (true) {
    const bool done = sender_done.load(std::memory_order_acquire);
    if (done && answered == published.load(std::memory_order_acquire)) break;
    if (now_ns() > give_up) break;
    if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
    for (std::size_t c = 0; c < pfds.size(); ++c) {
      if (pfds[c].fd < 0 || pfds[c].revents == 0) continue;
      if (!readers[c].fill(pfds[c].fd)) {
        pfds[c].fd = -1;  // connection gone; its open requests are lost
        continue;
      }
      const std::int64_t t = now_ns();
      net::FrameHeader h;
      const std::uint8_t* p = nullptr;
      bool bad = false;
      while (readers[c].next(&h, &p, &bad)) {
        const std::size_t sent = published.load(std::memory_order_acquire);
        if (h.request_id < base || h.request_id - base >= sent ||
            state[h.request_id - base] != 0) {
          ++duplicates;
          continue;
        }
        const std::size_t i = h.request_id - base;
        answered_at[i] = t;
        ++answered;
        state[i] = check_answer(h, p, ledger) ? 1 : 2;
        tracer.record("net.request.open", due(i), t, h.request_id);
      }
      if (bad) pfds[c].fd = -1;
    }
  }
  sender.join();

  const std::size_t sent = published.load();
  ledger.attempted += sent;
  ledger.lost += sent - answered;
  ledger.duplicated += duplicates;
  lost_ += sent - answered;
  duplicates_ += duplicates;
  requests_measured_ += sent;
  const std::size_t windows = windows_for(sent);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> lat;
    for (std::size_t i = w * sent / windows; i < (w + 1) * sent / windows;
         ++i) {
      open_late_us_.push_back(static_cast<double>(late[i]) / 1e3);
      if (state[i] == 1)
        lat.push_back(static_cast<double>(answered_at[i] - due(i)) / 1e3);
    }
    if (!lat.empty()) open_window_p50_us_.push_back(median(lat));
    open_latency_us_.insert(open_latency_us_.end(), lat.begin(), lat.end());
  }
  open_sent_ += sent;
}

void Serving::closed_loop(double seconds, Tracer& tracer, Ledger& ledger) {
  const std::uint64_t base = next_id_;
  const std::size_t conns = fds_.size();
  // Nothing else runs in the process meanwhile: its CPU time is the
  // server's and the load generator's work for these requests.
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = deadline_after(seconds);
  // Completions land in 1 ms bins (count, first and last time), so the
  // bookkeeping does not grow with the throughput it measures.
  constexpr std::int64_t kBinNs = 1'000'000;
  const std::size_t bins = static_cast<std::size_t>((t_end - t0) / kBinNs) + 1;

  struct PerConn {
    Ledger ledger;
    std::vector<std::uint32_t> count;
    std::vector<std::int64_t> first, last;
    std::uint64_t issued = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t lost = 0;
  };
  std::vector<PerConn> per(conns);

  auto body = [&](std::size_t c) {
    PerConn& me = per[c];
    me.count.assign(bins, 0);
    me.first.assign(bins, t_end);
    me.last.assign(bins, t0);
    const int fd = fds_[c];
    FrameReader reader;
    // Send time of each outstanding request, by id. Connection c owns ids
    // base + c + conns * j; an answer for any other id is a duplicate.
    std::unordered_map<std::uint64_t, std::int64_t> outstanding;
    outstanding.reserve(2 * spec_.window);
    bool alive = true;
    auto send_next = [&] {
      const std::uint64_t id = base + c + conns * me.issued++;
      outstanding.emplace(id, now_ns());
      return send_request(fd, id);
    };
    for (std::size_t w = 0; w < spec_.window && alive; ++w)
      alive = send_next();
    while (!outstanding.empty()) {
      if (!reader.fill(fd)) break;
      const std::int64_t t = now_ns();
      net::FrameHeader h;
      const std::uint8_t* p = nullptr;
      bool bad = false;
      while (reader.next(&h, &p, &bad)) {
        const auto it = outstanding.find(h.request_id);
        if (it == outstanding.end()) {
          ++me.duplicates;
          continue;
        }
        tracer.record("net.request.closed", it->second, t, h.request_id);
        outstanding.erase(it);
        check_answer(h, p, me.ledger);
        if (t <= t_end) {
          const auto b = static_cast<std::size_t>((t - t0) / kBinNs);
          ++me.count[b];
          me.first[b] = std::min(me.first[b], t);
          me.last[b] = std::max(me.last[b], t);
        }
        if (alive && t < t_end) alive = send_next();
      }
      if (bad) break;
    }
    me.lost = outstanding.size();
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
  closed_cpu_s_ += process_cpu_s() - cpu0;

  std::vector<std::uint64_t> count(bins, 0);
  std::vector<std::int64_t> first(bins, t_end), last(bins, t0);
  std::uint64_t total = 0, max_issued = 0;
  for (const PerConn& me : per) {
    ledger += me.ledger;
    ledger.attempted += me.issued;
    ledger.lost += me.lost;
    ledger.duplicated += me.duplicates;
    lost_ += me.lost;
    duplicates_ += me.duplicates;
    requests_measured_ += me.issued;
    closed_answered_ += me.issued - me.lost;
    max_issued = std::max(max_issued, me.issued);
    for (std::size_t b = 0; b < bins; ++b) {
      count[b] += me.count[b];
      total += me.count[b];
      first[b] = std::min(first[b], me.first[b]);
      last[b] = std::max(last[b], me.last[b]);
    }
  }
  next_id_ = base + conns * max_issued;
  // Equal-time windows; each window's rate is its completions after the
  // first one over the time between its first and last completion.
  const std::size_t windows = std::min(windows_for(total), bins);
  for (std::size_t w = 0; w < windows; ++w) {
    std::uint64_t n = 0;
    std::int64_t lo = t_end, hi = t0;
    for (std::size_t b = w * bins / windows; b < (w + 1) * bins / windows;
         ++b) {
      n += count[b];
      if (count[b] == 0) continue;
      lo = std::min(lo, first[b]);
      hi = std::max(hi, last[b]);
    }
    if (n >= 2 && hi > lo)
      closed_window_rps_.push_back(static_cast<double>(n - 1) /
                                   seconds_between(lo, hi));
  }
  server_after_ = server_->stats();
}

void Serving::ladder(double seconds, Tracer& tracer, Ledger& ledger,
                     Report& report) {
  const double slice = seconds / 5;
  const core::MatchOptions opt = *core::resolve_algorithm(kServedAlgorithm);
  llmp::Context ctx;
  core::MatchResult out;

  // Rung 0: the kernel on a warm Context, plus the audit and verify scans
  // the Service runs for this workload.
  auto rung0 = [&](std::uint64_t r, Tracer& t) {
    const std::size_t k = in_.pool_index(r);
    const list::LinkedList& l = in_.pool[k];
    ScopedSpan span(t, "rung0.core", r);
    bool ok = false;
    {
      ScopedSpan s(t, "core.run_matching_into", r);
      ok = core::run_matching_into(ctx.pram_context(), l, opt, out).ok();
    }
    if (ok && spec_.audit != serve::AuditPolicy::kOff) {
      ScopedSpan s(t, "stabilize.audit_matching", r);
      ok = stabilize::audit_matching(l.next_array(), out.in_matching).clean();
    }
    if (ok && spec_.verify) {
      ScopedSpan s(t, "core.verify", r);
      ok = core::verify::matching_status(l, out.in_matching).ok() &&
           core::verify::maximal_status(l, out.in_matching).ok();
    }
    return ok && out.edges == oracles_.served_edges[k];
  };
  Tracer warm(false);
  for (std::size_t k = 0; k < in_.pool.size(); ++k) rung0(next_id_++, warm);

  auto tally = [&](bool ok) {
    ++ledger.attempted;
    if (!ok) ++ledger.failed;
  };
  auto each_request = [&](auto&& fn) {
    const std::int64_t end = deadline_after(slice);
    do fn(next_id_++);
    while (now_ns() < end);
  };

  each_request([&](std::uint64_t r) { tally(rung0(r, tracer)); });

  // Service rung: submit until the future is ready. The queue wait runs
  // from submit to the worker's on_dequeue call.
  std::vector<double> queue_wait;
  each_request([&](std::uint64_t r) {
    const std::size_t k = in_.pool_index(r);
    serve::Request req;
    req.list = &in_.pool[k];
    req.algorithm = kServedAlgorithm;
    ScopedSpan span(tracer, "rung1.serve.submit", r);
    const std::int64_t t = now_ns();
    Result<core::MatchResult> res = service_->submit(std::move(req)).get();
    const std::int64_t dq = last_dequeue_ns_.load(std::memory_order_relaxed);
    tracer.record("serve.queue_wait", t, dq, r);
    queue_wait.push_back(static_cast<double>(dq - t) / 1e3);
    tally(res.ok() && res->edges == oracles_.served_edges[k]);
  });

  // Client rung: net::Client over loopback, one request at a time.
  net::ClientOptions co;
  co.port = server_->port();
  net::Client client(co);
  const bool connected = client.connect().ok();
  if (!connected) tally(false);
  if (connected)
    each_request([&](std::uint64_t r) {
      const std::size_t k = in_.pool_index(r);
      RequestBuilder b;
      b.algorithm(kServedAlgorithm);
      if (spec_.inline_lists) b.list(in_.pool[k]);
      else b.generated(spec_.n, in_.pool_seeds[k]);
      ScopedSpan span(tracer, "rung2.net.client.submit", r);
      Result<core::MatchResult> res = client.submit(b);
      tally(res.ok() && res->edges == oracles_.served_edges[k]);
    });

  // The Service alone under the closed loop's window.
  std::atomic<std::uint64_t> in_process_done{0};
  {
    const std::int64_t t0 = now_ns();
    const std::int64_t t_end = deadline_after(slice);
    std::vector<Ledger> ledgers(kConnections);
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> ids{next_id_};
    for (std::size_t c = 0; c < kConnections; ++c)
      threads.emplace_back([&, c] {
        using Pending = std::future<Result<core::MatchResult>>;
        std::deque<std::pair<std::size_t, Pending>> window;
        auto submit = [&] {
          const std::size_t k = in_.pool_index(ids.fetch_add(1));
          serve::Request req;
          req.list = &in_.pool[k];
          req.algorithm = kServedAlgorithm;
          window.emplace_back(k, service_->submit(std::move(req)));
        };
        for (std::size_t w = 0; w < spec_.window; ++w) submit();
        while (!window.empty()) {
          auto [k, fut] = std::move(window.front());
          window.pop_front();
          Result<core::MatchResult> res = fut.get();
          ++ledgers[c].attempted;
          if (!res.ok()) ++ledgers[c].failed;
          else if (res->edges != oracles_.served_edges[k]) ++ledgers[c].wrong;
          if (now_ns() <= t_end) {
            in_process_done.fetch_add(1);
            submit();
          }
        }
      });
    for (std::thread& t : threads) t.join();
    for (const Ledger& l : ledgers) ledger += l;
    next_id_ = ids.load();
    report.layer("serve.throughput_rps",
                 static_cast<double>(in_process_done.load()) /
                     seconds_between(t0, t_end),
                 "1/s");
  }

  const double rung0_us = median(tracer.durations("rung0.core")) / 1e3;
  const double rung1_us = median(tracer.durations("rung1.serve.submit")) / 1e3;
  const double rung2_us =
      median(tracer.durations("rung2.net.client.submit")) / 1e3;
  report.layer("core.run_us_p50", rung0_us, "us");
  report.layer("serve.overhead_us_p50", rung1_us - rung0_us, "us");
  report.layer("serve.queue_wait_us_p50", median(queue_wait), "us");
  report.layer("net.overhead_us_p50", rung2_us - rung1_us, "us");
  say("ladder p50 us: core " + fmt(rung0_us) + ", service " + fmt(rung1_us) +
      ", client " + fmt(rung2_us));

  // Data-path steps on the workload's own frames and arrays, one slice
  // split over the four.
  const double n = static_cast<double>(spec_.n);
  auto time_each = [&](const char* name, auto&& fn) {
    const std::int64_t end = deadline_after(slice / 4);
    std::size_t i = 0;
    do {
      const std::size_t k = i++ % in_.pool.size();
      fn(k, name);
    } while (now_ns() < end || i < in_.pool.size());
    return median(tracer.durations(name)) / n;
  };
  report.layer("net.decode_ns_per_node",
               time_each("net.decode_request",
                         [&](std::size_t k, const char* name) {
                           net::RequestFrame f;
                           ScopedSpan s(tracer, name, k);
                           if (!net::decode_request(in_.payloads[k].data(),
                                                    in_.payloads[k].size(), &f)
                                    .ok())
                             tally(false);
                         }),
               "ns/node");
  std::vector<std::uint8_t> buf;
  report.layer("net.encode_ns_per_node",
               time_each("net.encode_request",
                         [&](std::size_t k, const char* name) {
                           net::RequestFrame f = request_frame(k);
                           buf.clear();
                           ScopedSpan s(tracer, name, k);
                           if (!net::encode_request(f, 0, k, buf).ok())
                             tally(false);
                         }),
               "ns/node");
  report.layer("list.make_ns_per_node",
               time_each("list.make",
                         [&](std::size_t k, const char* name) {
                           std::vector<index_t> links =
                               in_.pool[k].next_array();
                           ScopedSpan s(tracer, name, k);
                           if (!list::LinkedList::make(std::move(links)).ok())
                             tally(false);
                         }),
               "ns/node");
  report.layer(
      "stabilize.audit_ns_per_node",
      time_each("stabilize.audit",
                [&](std::size_t k, const char* name) {
                  ScopedSpan s(tracer, name, k);
                  if (!stabilize::audit_matching(
                           in_.pool[k].next_array(),
                           oracles_.served_matching[k])
                           .clean())
                    tally(false);
                }),
      "ns/node");

  const serve::ServiceStats st = service_->stats();
  report.layer("serve.arena_hit_ratio",
               st.arena_takes == 0 ? 1.0
                                   : static_cast<double>(st.arena_hits) /
                                         static_cast<double>(st.arena_takes),
               "ratio");
  report.layer("serve.failed", static_cast<double>(st.failed), "count");
  report.layer("serve.audits_failed", static_cast<double>(st.audits_failed),
               "count");
}

net::RequestFrame Serving::request_frame(std::size_t k) const {
  net::RequestFrame f;
  f.algorithm = kServedAlgorithm;
  f.n = spec_.n;
  if (spec_.inline_lists) {
    f.list_spec = net::ListSpec::kInline;
    f.links = in_.pool[k].next_array();
  } else {
    f.list_spec = net::ListSpec::kGenerated;
    f.seed = in_.pool_seeds[k];
  }
  return f;
}

void Serving::report(Report& report, bool traced, double clock_ghz) const {
  const double open_p50_us = median(open_window_p50_us_);
  const double throughput_rps = median(closed_window_rps_);
  const double cpu_us =
      1e6 * closed_cpu_s_ /
      static_cast<double>(std::max<std::uint64_t>(1, closed_answered_));
  report.e2e("cycles_per_request", cpu_us * clock_ghz * 1e3, "cycles");
  const double p99 = quantile(open_latency_us_, 0.99);
  const double late_max =
      open_late_us_.empty()
          ? 0.0
          : *std::max_element(open_late_us_.begin(), open_late_us_.end());
  say("open loop at " + fmt(spec_.open_rate_rps) + " req/s: p50 " +
      fmt(open_p50_us) + " us (median of " +
      std::to_string(open_window_p50_us_.size()) + " windows; pooled " +
      fmt(median(open_latency_us_)) + " us), p99 " + fmt(p99) + " us over " +
      std::to_string(open_latency_us_.size()) + " answers of " +
      std::to_string(open_sent_) + " sent; generator late max " +
      fmt(late_max) + " us, p99 " + fmt(quantile(open_late_us_, 0.99)) +
      " us (printed, not gated)");
  say("closed loop, " + std::to_string(spec_.window) +
      " in flight on each of " + std::to_string(fds_.size()) +
      " connections: " + fmt(throughput_rps) + " req/s (median of " +
      std::to_string(closed_window_rps_.size()) + " windows; printed, not " +
      "gated); " + std::to_string(closed_answered_) + " answers for " +
      fmt(closed_cpu_s_) + " s of process CPU time, " + fmt(cpu_us) +
      " us a request at " + fmt(clock_ghz) + " GHz");
  if (!traced) return;
  report.layer("net.latency_p50_us", open_p50_us, "us");
  report.layer("net.throughput_rps", throughput_rps, "1/s");
  const double reqs =
      static_cast<double>(std::max<std::uint64_t>(1, requests_measured_));
  auto delta = [&](std::uint64_t net::ServerStats::*field) {
    return static_cast<double>(server_after_.*field - server_before_.*field);
  };
  using S = net::ServerStats;
  report.layer("net.bytes_per_request",
               (delta(&S::bytes_in) + delta(&S::bytes_out)) / reqs, "B");
  report.layer("net.frames_per_request",
               (delta(&S::frames_in) + delta(&S::frames_out)) / reqs, "count");
  report.layer("net.protocol_errors", delta(&S::protocol_errors), "count");
  report.layer("net.disconnects", delta(&S::disconnects), "count");
  report.layer("net.lost", static_cast<double>(lost_), "count");
  report.layer("net.duplicates", static_cast<double>(duplicates_), "count");
  report.layer("net.latency_p99_us", p99, "us");
  report.layer("loadgen.late_us_max", late_max, "us");
}

}  // namespace perfbench

#include "net/server.h"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <future>
#include <map>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "core/match_result.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "support/failpoint.h"

namespace llmp::net {

namespace {

namespace failpoint = support::failpoint;

/// Evaluate a socket-operation failpoint; throw rules are folded into the
/// returned Status so every injection takes the same disconnect path and
/// the chaos suite can reconcile counters deterministically.
Status guarded_failpoint(const char* name) {
  try {
    return LLMP_FAILPOINT_STATUS(name);
  } catch (const failpoint::InjectedFault& e) {
    return Status(e.code(), e.what());
  }
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    return Status::unavailable(std::string("fcntl(O_NONBLOCK): ") +
                               std::strerror(errno));
  return {};
}

}  // namespace

struct Server::Impl {
  // ---- wiring ------------------------------------------------------------

  /// The bridge from worker threads back to the IO thread. on_ready hooks
  /// hold it by shared_ptr, so a late completion after stop() posts into a
  /// closed (wake_fd == -1) bus instead of freed memory.
  struct CompletionBus {
    std::mutex mu;
    std::vector<std::uint64_t> ready;
    int wake_fd = -1;

    void post(std::uint64_t token) {
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(token);
      if (wake_fd >= 0) {
        const std::uint8_t byte = 1;
        // A full pipe is fine: the IO loop also drains on its poll tick.
        [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
      }
    }
    std::vector<std::uint64_t> drain() {
      std::lock_guard<std::mutex> lock(mu);
      return std::exchange(ready, {});
    }
    void close() {
      std::lock_guard<std::mutex> lock(mu);
      wake_fd = -1;
    }
  };

  /// One connection slot; slots are reused, generations disambiguate a
  /// completion aimed at a connection that died meanwhile.
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    std::vector<std::uint8_t> in;   ///< unparsed received bytes
    std::vector<std::uint8_t> out;  ///< encoded frames awaiting write
    std::size_t out_at = 0;
    bool close_after_flush = false;
  };

  /// Encoded-but-unflushed response bytes — the flow-control quantity.
  static std::size_t backlog(const Conn& c) { return c.out.size() - c.out_at; }

  /// The hand-off to/from the list-generator thread. The IO thread
  /// enqueues (token, n, seed); the generator materialises the list and
  /// posts the token back through the completion bus. Request metadata
  /// never crosses this queue — it waits in `generating` (IO thread only).
  struct GenQueue {
    struct Job {
      std::uint64_t token = 0;
      std::uint64_t n = 0;
      std::uint64_t seed = 0;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> todo;
    std::vector<std::pair<std::uint64_t,
                          std::shared_ptr<const list::LinkedList>>>
        done;
    bool stopping = false;
  };

  /// An admitted kGenerated request waiting for its list to be built.
  struct Generating {
    std::size_t slot = 0;
    std::uint64_t gen = 0;
    std::uint64_t request_id = 0;
    std::uint32_t tenant = 0;
    std::string algorithm;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::uint64_t memory_budget_bytes = 0;
    std::uint64_t n = 0;
    std::uint64_t seed = 0;
  };

  /// A submitted request the IO thread still owes a response frame (or a
  /// silent drop, when its connection died). Owns the list reference for
  /// exactly as long as the serve layer may touch it.
  struct Pending {
    std::size_t slot = 0;
    std::uint64_t gen = 0;
    std::uint64_t request_id = 0;
    std::uint32_t tenant = 0;
    std::shared_ptr<const list::LinkedList> list;
    std::future<Result<core::MatchResult>> fut;
  };

  Impl(serve::Service& s, ServerOptions o)
      : svc(s), opts(std::move(o)), admission(opts.admission) {}

  // ---- lifecycle ---------------------------------------------------------

  Status start() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0)
      return Status::unavailable(std::string("socket: ") +
                                 std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1)
      return fail_start(Status::invalid_argument("bad listen host " +
                                                 opts.host));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      return fail_start(Status::unavailable(
          "bind " + opts.host + ":" + std::to_string(opts.port) + ": " +
          std::strerror(errno)));
    if (::listen(listen_fd, 128) < 0)
      return fail_start(Status::unavailable(std::string("listen: ") +
                                            std::strerror(errno)));
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) <
        0)
      return fail_start(Status::unavailable(std::string("getsockname: ") +
                                            std::strerror(errno)));
    bound_port = ntohs(addr.sin_port);
    if (Status s = set_nonblocking(listen_fd); !s.ok())
      return fail_start(std::move(s));

    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0)
      return fail_start(Status::unavailable(std::string("pipe: ") +
                                            std::strerror(errno)));
    wake_rd = pipe_fds[0];
    {
      std::lock_guard<std::mutex> lock(bus->mu);
      bus->wake_fd = pipe_fds[1];
    }
    if (Status s = set_nonblocking(wake_rd); !s.ok())
      return fail_start(std::move(s));
    if (Status s = set_nonblocking(pipe_fds[1]); !s.ok())
      return fail_start(std::move(s));

    running.store(true);
    io = std::thread([this] { io_loop(); });
    gen_thread = std::thread([this] { gen_loop(); });
    return {};
  }

  Status fail_start(Status s) {
    close_fds();
    return s;
  }

  void stop() {
    if (io.joinable()) {
      running.store(false);
      bus->post(0);  // token 0 is never issued; this is just a wake-up
      io.join();
    }
    if (gen_thread.joinable()) {
      {
        std::lock_guard<std::mutex> lock(genq.mu);
        genq.stopping = true;
      }
      genq.cv.notify_all();
      gen_thread.join();
    }
    // The IO thread is gone, so generated-list requests still waiting for
    // their list will never be submitted; balance their admissions.
    for (auto& [token, g] : generating) admission.complete(g.tenant);
    generating.clear();
    gen_waiters.clear();
    // Drain every outstanding request so the lists pending entries own
    // stay alive until the serve layer is done with them, and the
    // admission ledger balances.
    for (auto& [token, p] : pending) {
      if (p.fut.valid()) p.fut.wait();
      admission.complete(p.tenant);
    }
    pending.clear();
    bus->close();  // late on_ready posts become harmless no-ops
    close_fds();
  }

  void close_fds() {
    for (Conn& c : conns)
      if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
      }
    int wake_wr = -1;
    {
      std::lock_guard<std::mutex> lock(bus->mu);
      wake_wr = std::exchange(bus->wake_fd, -1);
    }
    for (int* fd : {&listen_fd, &wake_rd, &wake_wr})
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
  }

  // ---- IO loop -----------------------------------------------------------

  void io_loop() {
    std::vector<pollfd> fds;
    std::vector<std::size_t> slot_of;  // fds index → conns slot
    while (running.load()) {
      fds.clear();
      slot_of.clear();
      fds.push_back({listen_fd, POLLIN, 0});
      fds.push_back({wake_rd, POLLIN, 0});
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (conns[i].fd < 0) continue;
        // Flow control: a connection sitting on a full response backlog
        // is not read from (its kernel receive buffer, and eventually the
        // peer's send path, absorb the pushback). POLLERR/POLLHUP are
        // always reported, so a dead peer is still reaped.
        short events = 0;
        if (backlog(conns[i]) < opts.max_conn_backlog_bytes)
          events |= POLLIN;
        if (conns[i].out_at < conns[i].out.size()) events |= POLLOUT;
        fds.push_back({conns[i].fd, events, 0});
        slot_of.push_back(i);
      }
      // Finite timeout: progress even if a wake byte was lost to a full
      // pipe, and a timely running-flag check on shutdown.
      const int rc = ::poll(fds.data(), fds.size(), 50);
      if (rc < 0 && errno != EINTR) break;

      if (fds[1].revents & POLLIN) drain_wake_pipe();
      drain_completions();
      if (fds[0].revents & POLLIN) accept_connections();
      for (std::size_t k = 2; k < fds.size(); ++k) {
        const std::size_t slot = slot_of[k - 2];
        Conn& c = conns[slot];
        if (c.fd != fds[k].fd) continue;  // replaced mid-iteration
        if (fds[k].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          close_conn(slot);
          continue;
        }
        if (fds[k].revents & POLLIN) handle_readable(slot);
        if (c.fd >= 0 && (fds[k].revents & POLLOUT)) handle_writable(slot);
        // Parse after both: new bytes from the read, and input that was
        // stalled by the backlog window and is runnable again now that
        // the write drained it.
        if (c.fd >= 0 && !c.in.empty()) parse_frames(slot);
      }
    }
  }

  void drain_wake_pipe() {
    std::uint8_t buf[256];
    while (::read(wake_rd, buf, sizeof(buf)) > 0) {
    }
  }

  void accept_connections() {
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN / transient
      if (Status s = guarded_failpoint("net.conn.accept"); !s.ok()) {
        tallies.add<&ServerStats::accept_faults>();
        ::close(fd);
        continue;
      }
      std::size_t live = 0;
      for (const Conn& c : conns) live += c.fd >= 0 ? 1 : 0;
      if (live >= opts.max_connections) {
        ::close(fd);
        tallies.add<&ServerStats::disconnects>();
        continue;
      }
      if (Status s = set_nonblocking(fd); !s.ok()) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (opts.sndbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts.sndbuf_bytes,
                     sizeof(opts.sndbuf_bytes));
      std::size_t slot = conns.size();
      for (std::size_t i = 0; i < conns.size(); ++i)
        if (conns[i].fd < 0) {
          slot = i;
          break;
        }
      if (slot == conns.size()) conns.emplace_back();
      Conn& c = conns[slot];
      c.fd = fd;
      c.gen++;
      c.in.clear();
      c.out.clear();
      c.out_at = 0;
      c.close_after_flush = false;
      tallies.add<&ServerStats::accepted>();
    }
  }

  void close_conn(std::size_t slot) {
    Conn& c = conns[slot];
    if (c.fd < 0) return;
    ::close(c.fd);
    c.fd = -1;
    c.gen++;  // orphan any pending completions aimed at this slot
    c.in.clear();
    c.out.clear();
    c.out_at = 0;
    tallies.add<&ServerStats::disconnects>();
  }

  // ---- reading + framing -------------------------------------------------

  void handle_readable(std::size_t slot) {
    Conn& c = conns[slot];
    if (Status s = guarded_failpoint("net.conn.read"); !s.ok()) {
      tallies.add<&ServerStats::read_faults>();
      close_conn(slot);
      return;
    }
    std::uint8_t buf[64 * 1024];
    while (true) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        tallies.add<&ServerStats::bytes_in>(static_cast<std::uint64_t>(n));
        continue;
      }
      if (n == 0) {  // orderly EOF from the peer
        close_conn(slot);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(slot);
      return;
    }
    // Parsing happens back in io_loop, after writes have had their turn.
  }

  void parse_frames(std::size_t slot) {
    Conn& c = conns[slot];
    std::size_t at = 0;
    // The backlog check makes every frame kind — stats requests included,
    // which bypass admission — answerable only while the peer is keeping
    // up; a connection that never reads stalls here with its input
    // buffered, not answered.
    while (c.fd >= 0 && !c.close_after_flush &&
           backlog(c) < opts.max_conn_backlog_bytes &&
           c.in.size() - at >= kFrameHeaderBytes) {
      FrameHeader h;
      Status s = decode_header(c.in.data() + at, kFrameHeaderBytes, &h);
      if (s.ok() && h.payload_bytes > opts.max_frame_bytes)
        s = Status::invalid_argument(
            "payload length " + std::to_string(h.payload_bytes) +
            " exceeds this server's limit");
      if (!s.ok()) {
        // Header-level corruption: the stream cannot be resynchronised.
        // Mark close-after-flush BEFORE sending so the flush inside
        // send_error closes the socket once the error frame drains.
        tallies.add<&ServerStats::protocol_errors>();
        c.close_after_flush = true;
        send_error(slot, h.tenant, h.request_id,
                   {StatusCode::kInvalidArgument, s.message()});
        break;
      }
      if (c.in.size() - at < kFrameHeaderBytes + h.payload_bytes)
        break;  // frame not fully buffered yet
      handle_frame(slot, h, c.in.data() + at + kFrameHeaderBytes,
                   h.payload_bytes);
      at += kFrameHeaderBytes + h.payload_bytes;
    }
    if (at > 0 && c.fd >= 0)
      c.in.erase(c.in.begin(),
                 c.in.begin() + static_cast<std::ptrdiff_t>(at));
  }

  void handle_frame(std::size_t slot, const FrameHeader& h,
                    const std::uint8_t* payload, std::size_t size) {
    tallies.add<&ServerStats::frames_in>();
    switch (h.type) {
      case FrameType::kRequest:
        handle_request(slot, h, payload, size);
        return;
      case FrameType::kStatsRequest: {
        if (Status s = decode_stats_request(payload, size); !s.ok()) {
          tallies.add<&ServerStats::protocol_errors>();
          send_error(slot, h.tenant, h.request_id,
                     {StatusCode::kInvalidArgument, s.message()});
          return;
        }
        send_stats(slot, h);
        return;
      }
      default:
        // kResponse / kError / kStats are server→client only; a client
        // sending one is out of protocol — answer and hang up. (Set the
        // flag before sending: the flush inside send_error is what closes
        // the connection once the error frame drains.)
        tallies.add<&ServerStats::protocol_errors>();
        conns[slot].close_after_flush = true;
        send_error(slot, h.tenant, h.request_id,
                   {StatusCode::kInvalidArgument,
                    "frame type not valid from a client"});
        return;
    }
  }

  void handle_request(std::size_t slot, const FrameHeader& h,
                      const std::uint8_t* payload, std::size_t size) {
    RequestFrame f;
    if (Status s = decode_request(payload, size, &f); !s.ok()) {
      // Payload-level: the stream is still framed; cost one error frame.
      tallies.add<&ServerStats::protocol_errors>();
      send_error(slot, h.tenant, h.request_id,
                 {StatusCode::kInvalidArgument, s.message()});
      return;
    }
    if (f.n > opts.max_list_nodes || f.n >= knil) {
      send_error(slot, h.tenant, h.request_id,
                 {StatusCode::kInvalidArgument,
                  "list size " + std::to_string(f.n) +
                      " exceeds the server limit"});
      return;
    }
    if (Status s = admission.admit(h.tenant); !s.ok()) {
      send_error(slot, h.tenant, h.request_id, {s.code(), s.message()});
      return;
    }
    // Admitted from here on: every exit must reach complete(), either via
    // the pending entry's completion or explicitly on early rejection.
    const auto deadline =
        f.deadline_ms != 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(f.deadline_ms)
            : std::chrono::steady_clock::time_point::max();
    std::shared_ptr<const list::LinkedList> list;
    if (f.list_spec == ListSpec::kGenerated) {
      list = cached_list(f.n, f.seed);
      if (!list) {
        // Cold generated list: materialise it on the generator thread so
        // one large random_list() never stalls the IO loop for every
        // other connection. The request stays admitted (it is real
        // in-flight work) and resumes in drain_completions.
        const std::uint64_t token = next_token++;
        Generating g;
        g.slot = slot;
        g.gen = conns[slot].gen;
        g.request_id = h.request_id;
        g.tenant = h.tenant;
        g.algorithm = std::move(f.algorithm);
        g.deadline = deadline;
        g.memory_budget_bytes = f.memory_budget_bytes;
        g.n = f.n;
        g.seed = f.seed;
        auto [it, inserted] = generating.emplace(token, std::move(g));
        LLMP_CHECK(inserted);
        // Coalesce: a pipelined burst naming the same (n, seed) rides the
        // one generation already in flight instead of re-materialising.
        auto& waiters = gen_waiters[std::make_pair(f.n, f.seed)];
        waiters.push_back(token);
        if (waiters.size() == 1) {
          {
            std::lock_guard<std::mutex> lock(genq.mu);
            genq.todo.push_back({token, f.n, f.seed});
          }
          genq.cv.notify_one();
        }
        return;
      }
    } else {
      Result<list::LinkedList> made = list::LinkedList::make(
          std::move(f.links));
      if (!made.ok()) {
        admission.complete(h.tenant);
        send_error(slot, h.tenant, h.request_id,
                   {made.status().code(), made.status().message()});
        return;
      }
      list = std::make_shared<const list::LinkedList>(
          std::move(made.value()));
    }
    submit_admitted(slot, h.tenant, h.request_id, f.algorithm, deadline,
                    f.memory_budget_bytes, std::move(list));
  }

  /// Hand one admitted request (its list in hand) to the serve layer,
  /// parking a pending entry that owes the connection a response frame.
  void submit_admitted(std::size_t slot, std::uint32_t tenant,
                       std::uint64_t request_id, const std::string& algorithm,
                       std::chrono::steady_clock::time_point deadline,
                       std::uint64_t memory_budget_bytes,
                       std::shared_ptr<const list::LinkedList> list) {
    const std::uint64_t token = next_token++;
    Pending p;
    p.slot = slot;
    p.gen = conns[slot].gen;
    p.request_id = request_id;
    p.tenant = tenant;
    p.list = list;
    auto [it, inserted] = pending.emplace(token, std::move(p));
    LLMP_CHECK(inserted);

    serve::Request req;
    req.list = list.get();
    req.algorithm = algorithm;
    req.deadline = deadline;
    req.memory_budget_bytes = memory_budget_bytes;
    req.tenant = tenant;
    req.on_ready = [bus = bus, token] { bus->post(token); };
    // A submit-time reject runs on_ready synchronously on this thread;
    // the token just waits in the bus until drain_completions().
    it->second.fut = svc.submit(std::move(req));
  }

  // ---- the generated-list cache + generator thread ------------------------

  std::shared_ptr<const list::LinkedList> cached_list(std::uint64_t n,
                                                      std::uint64_t seed) {
    auto it = list_cache.find(std::make_pair(n, seed));
    return it != list_cache.end() ? it->second : nullptr;
  }

  void cache_insert(std::uint64_t n, std::uint64_t seed,
                    const std::shared_ptr<const list::LinkedList>& list) {
    const auto key = std::make_pair(n, seed);
    if (list_cache.find(key) != list_cache.end()) return;
    const std::size_t bytes = list->size() * sizeof(index_t);
    if (bytes > opts.list_cache_bytes) return;  // never worth pinning
    while (cache_bytes + bytes > opts.list_cache_bytes &&
           !cache_order.empty()) {
      auto evict = list_cache.find(cache_order.front());
      if (evict != list_cache.end()) {
        cache_bytes -= evict->second->size() * sizeof(index_t);
        list_cache.erase(evict);
      }
      cache_order.pop_front();
    }
    list_cache.emplace(key, list);
    cache_order.push_back(key);
    cache_bytes += bytes;
  }

  void gen_loop() {
    while (true) {
      GenQueue::Job job;
      {
        std::unique_lock<std::mutex> lock(genq.mu);
        genq.cv.wait(lock,
                     [&] { return genq.stopping || !genq.todo.empty(); });
        if (genq.stopping) return;
        job = genq.todo.front();
        genq.todo.pop_front();
      }
      auto list = std::make_shared<const list::LinkedList>(
          list::generators::random_list(static_cast<std::size_t>(job.n),
                                        job.seed));
      {
        std::lock_guard<std::mutex> lock(genq.mu);
        genq.done.emplace_back(job.token, std::move(list));
      }
      bus->post(job.token);
    }
  }

  // ---- completions → responses -------------------------------------------

  void drain_generated() {
    std::vector<std::pair<std::uint64_t,
                          std::shared_ptr<const list::LinkedList>>>
        done;
    {
      std::lock_guard<std::mutex> lock(genq.mu);
      done.swap(genq.done);
    }
    for (auto& [job_token, list] : done) {
      auto key_it = generating.find(job_token);
      if (key_it == generating.end()) continue;
      const auto key =
          std::make_pair(key_it->second.n, key_it->second.seed);
      cache_insert(key.first, key.second, list);
      // Every request that coalesced onto this generation resumes now.
      std::vector<std::uint64_t> waiters;
      if (auto w = gen_waiters.find(key); w != gen_waiters.end()) {
        waiters = std::move(w->second);
        gen_waiters.erase(w);
      }
      for (const std::uint64_t token : waiters) {
        auto it = generating.find(token);
        if (it == generating.end()) continue;
        Generating g = std::move(it->second);
        generating.erase(it);
        Conn& c = conns.size() > g.slot ? conns[g.slot] : dead_conn;
        if (&c == &dead_conn || c.fd < 0 || c.gen != g.gen) {
          // The connection died while the list was being built; the work
          // is cached, but the admission slot must be returned.
          admission.complete(g.tenant);
          continue;
        }
        submit_admitted(g.slot, g.tenant, g.request_id, g.algorithm,
                        g.deadline, g.memory_budget_bytes, list);
      }
    }
  }

  void drain_completions() {
    // Generated lists first: each one immediately becomes a serve-layer
    // submission, whose own completion arrives through the same bus.
    drain_generated();
    for (const std::uint64_t token : bus->drain()) {
      auto it = pending.find(token);
      if (it == pending.end()) continue;  // token 0 wake-ups land here
      Pending p = std::move(it->second);
      pending.erase(it);
      admission.complete(p.tenant);
      // on_ready fires strictly after the future becomes ready, so this
      // get() never blocks the IO thread.
      Result<core::MatchResult> r = p.fut.get();
      Conn& c = conns.size() > p.slot ? conns[p.slot] : dead_conn;
      if (&c == &dead_conn || c.fd < 0 || c.gen != p.gen)
        continue;  // the connection died while the request ran
      if (r.ok()) {
        const core::MatchResult& m = r.value();
        ResponseFrame resp;
        resp.edges = m.edges;
        resp.relabel_rounds = static_cast<std::uint32_t>(m.relabel_rounds);
        resp.gather_rounds = static_cast<std::uint32_t>(m.gather_rounds);
        resp.partition_sets = m.partition_sets;
        resp.cost_depth = m.cost.depth;
        resp.cost_time_p = m.cost.time_p;
        resp.cost_work = m.cost.work;
        encode_response(resp, p.tenant, p.request_id, c.out);
        tallies.add<&ServerStats::frames_out>();
        flush(p.slot);
      } else {
        send_error(p.slot, p.tenant, p.request_id,
                   {r.status().code(), r.status().message()});
      }
    }
  }

  // ---- writing -----------------------------------------------------------

  void send_error(std::size_t slot, std::uint32_t tenant,
                  std::uint64_t request_id, ErrorFrame f) {
    Conn& c = conns[slot];
    if (c.fd < 0) return;
    encode_error(f, tenant, request_id, c.out);
    tallies.add<&ServerStats::frames_out>();
    flush(slot);
  }

  void send_stats(std::size_t slot, const FrameHeader& h) {
    const StatsFrame f{svc.stats(), snapshot()};
    encode_stats(f, h.tenant, h.request_id, conns[slot].out);
    tallies.add<&ServerStats::frames_out>();
    flush(slot);
  }

  ServerStats snapshot() const {
    ServerStats out;
    tallies.load_into(out);
    out.tenants = admission.stats();
    return out;
  }

  /// Write as much of the connection's out buffer as the socket accepts;
  /// the poll loop finishes the rest via POLLOUT.
  void flush(std::size_t slot) { handle_writable(slot); }

  void handle_writable(std::size_t slot) {
    Conn& c = conns[slot];
    if (c.fd < 0) return;
    if (c.out_at < c.out.size()) {
      if (Status s = guarded_failpoint("net.conn.write"); !s.ok()) {
        tallies.add<&ServerStats::write_faults>();
        close_conn(slot);
        return;
      }
    }
    while (c.out_at < c.out.size()) {
      // MSG_NOSIGNAL: a peer that closed or reset while we flush must
      // surface as EPIPE (→ close_conn below), not as a process-killing
      // SIGPIPE — any remote client could crash the server otherwise.
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_at,
                               c.out.size() - c.out_at, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_at += static_cast<std::size_t>(n);
        tallies.add<&ServerStats::bytes_out>(static_cast<std::uint64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_conn(slot);
      return;
    }
    c.out.clear();
    c.out_at = 0;
    if (c.close_after_flush) close_conn(slot);
  }

  // ---- state -------------------------------------------------------------

  serve::Service& svc;
  ServerOptions opts;
  AdmissionController admission;

  int listen_fd = -1;
  int wake_rd = -1;
  std::uint16_t bound_port = 0;
  std::atomic<bool> running{false};
  std::thread io;
  std::shared_ptr<CompletionBus> bus = std::make_shared<CompletionBus>();

  std::vector<Conn> conns;
  Conn dead_conn;  ///< sentinel for out-of-range pending slots
  std::map<std::uint64_t, Pending> pending;  ///< IO thread + post-join stop()
  std::uint64_t next_token = 1;  ///< 0 is the reserved wake-only token

  std::thread gen_thread;
  GenQueue genq;
  /// Admitted requests awaiting their generated list; IO thread (and
  /// post-join stop()) only.
  std::map<std::uint64_t, Generating> generating;
  /// (n, seed) → tokens riding one in-flight generation; the first token
  /// in each vector is the one the generator will post back.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::uint64_t>>
      gen_waiters;

  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::shared_ptr<const list::LinkedList>>
      list_cache;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> cache_order;
  std::size_t cache_bytes = 0;  ///< successor-array bytes the cache pins

  // Counters: one relaxed tally per kServerStatsFields entry, read by
  // stats() from other threads — same discipline as the Service's.
  support::Tallies<kServerStatsFields> tallies;
};

Server::Server(serve::Service& service, ServerOptions options)
    : impl_(std::make_unique<Impl>(service, std::move(options))) {}

Server::~Server() { stop(); }

Status Server::start() { return impl_->start(); }

void Server::stop() { impl_->stop(); }

std::uint16_t Server::port() const { return impl_->bound_port; }

ServerStats Server::stats() const { return impl_->snapshot(); }

}  // namespace llmp::net

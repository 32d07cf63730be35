#include "net/front_end.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <unordered_map>
#include <utility>

#include "common/thread_name.h"
#include "common/timer.h"

namespace fannr::net {

namespace {

/// epoll user-data tags for the two non-connection descriptors each
/// loop watches. Real heap Connection pointers can never collide with
/// these values.
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kListenerTag = 2;

/// Cap on the final flush of remaining transmit queues. Only a peer
/// that stops reading mid-drain can make us wait this long.
constexpr double kDrainFlushCapMs = 2'000.0;

/// Backoff after an accept failure that does not clear the listener's
/// readability (EMFILE/ENFILE/ENOBUFS/...): the listener is deregistered
/// for this long, then re-armed. Bounds the accept loop to ~20 wakeups/s
/// while the fd table stays exhausted instead of a 100% CPU spin.
constexpr double kAcceptBackoffMs = 50.0;

}  // namespace

/// One epoll event loop. `conns` is keyed by raw pointer so a stale
/// data.ptr from an event batch that already closed the connection is
/// detected by lookup instead of dereferenced. The mailbox
/// (pending_add/dirty/tasks) is how other threads hand this loop work.
struct FrontEnd::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;  ///< Nonblocking eventfd; readable until drained.
  std::thread thread;
  std::atomic<std::thread::id> thread_id{};
  bool accepting = false;  ///< Loop 0 watches the listener until drain.
  /// Listener temporarily deregistered after EMFILE-class accept
  /// failures; re-armed once accept_backoff passes kAcceptBackoffMs.
  bool accept_paused = false;
  Timer accept_backoff;
  /// A frame was handed to the handler since its last OnPassEnd.
  bool cut_since_pass_end = false;
  /// A frame was enqueued from this loop's own thread (no wake needed).
  bool enqueued_here = false;
  std::unordered_map<Connection*, std::shared_ptr<Connection>> conns;

  std::mutex mail_mu;
  std::vector<std::shared_ptr<Connection>> pending_add;
  std::vector<std::shared_ptr<Connection>> dirty;
  std::vector<std::function<void()>> tasks;

  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

FrontEnd::FrontEnd(FrontEndConfig config, FrameHandler* handler,
                   obs::MetricsRegistry* metrics, FrontEndCounters counters)
    : config_(std::move(config)),
      handler_(handler),
      metrics_(metrics),
      counters_(counters) {}

FrontEnd::~FrontEnd() { Stop(); }

bool FrontEnd::Start(std::string* error) {
  listener_ = TcpListen(config_.host, config_.port, &port_, error);
  if (!listener_.valid()) return false;
  if (!listener_.SetNonBlocking()) {
    if (error != nullptr) *error = "could not set listener nonblocking";
    return false;
  }
  const size_t num_loops = std::max<size_t>(config_.num_loops, 1);
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      if (error != nullptr) *error = "epoll/eventfd setup failed";
      loops_.clear();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    if (i == 0) {
      ev.data.u64 = kListenerTag;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev);
      loop->accepting = true;
    }
    loops_.push_back(std::move(loop));
  }
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread =
        std::thread(&FrontEnd::LoopMain, this, std::ref(*loops_[i]), i);
  }
  return true;
}

void FrontEnd::StopAccepting() {
  stop_accepting_.store(true, std::memory_order_relaxed);
  for (const std::unique_ptr<Loop>& loop : loops_) Wake(*loop);
}

void FrontEnd::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  for (const std::unique_ptr<Loop>& loop : loops_) Wake(*loop);
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  listener_.Close();
}

void FrontEnd::Wake(Loop& loop) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
}

bool FrontEnd::OnLoopThread(const Loop& loop) {
  return std::this_thread::get_id() ==
         loop.thread_id.load(std::memory_order_relaxed);
}

void FrontEnd::LoopMain(Loop& loop, size_t index) {
  loop.thread_id.store(std::this_thread::get_id(), std::memory_order_relaxed);
  SetThreadName("fannr-loop" + std::to_string(index));
  std::vector<epoll_event> events(128);
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout = -1;
    if (loop.accepting && loop.accept_paused) {
      const double remaining = kAcceptBackoffMs - loop.accept_backoff.Millis();
      timeout = remaining <= 0.0 ? 0 : static_cast<int>(remaining) + 1;
    }
    const int n = ::epoll_wait(loop.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const bool stop_accepting =
        stop_accepting_.load(std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kWakeTag) {
        uint64_t counter = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &counter, sizeof(counter));
        continue;
      }
      if (ev.data.u64 == kListenerTag) {
        if (!stop_accepting) AcceptReady(loop);
        continue;
      }
      // An earlier event in this same batch may have closed the
      // connection; the map lookup catches the stale pointer.
      auto it = loop.conns.find(static_cast<Connection*>(ev.data.ptr));
      if (it == loop.conns.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev.events & EPOLLERR) != 0) {
        Close(loop, conn);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) Flush(loop, conn);
      if (conn->registered && (ev.events & (EPOLLIN | EPOLLHUP)) != 0) {
        Read(loop, conn);
      }
    }
    if (loop.accepting && stop_accepting) {
      // Drain: stop accepting, but keep serving existing connections
      // (their in-flight work still gets answered). A paused listener
      // is already out of the epoll set.
      if (!loop.accept_paused) {
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      }
      loop.accept_paused = false;
      loop.accepting = false;
    }
    if (loop.accepting && loop.accept_paused &&
        loop.accept_backoff.Millis() >= kAcceptBackoffMs) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerTag;
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev);
      loop.accept_paused = false;
    }
    ProcessMail(loop);
  }
  DrainAndClose(loop);
}

void FrontEnd::AcceptReady(Loop& loop) {
  while (true) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // accepted everything pending
      }
      if (errno == ECONNABORTED || errno == EPROTO) {
        // That one pending connection died before we got to it; the
        // rest of the backlog is still fine.
        metrics_->Add(counters_.accept_errors, 1);
        continue;
      }
      // EMFILE/ENFILE/ENOBUFS/ENOMEM: the failure does not consume the
      // pending connection, so the level-triggered listener stays
      // readable and returning here would re-fire epoll_wait
      // immediately — a 100% CPU spin for as long as the fd table is
      // exhausted. Park the listener and re-arm it after a backoff.
      metrics_->Add(counters_.accept_errors, 1);
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      loop.accept_paused = true;
      loop.accept_backoff.Reset();
      return;
    }
    Socket sock(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics_->Add(counters_.connections, 1);

    if (live_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      metrics_->Add(counters_.overloaded, 1);
      ErrorResponse err;
      err.code = ErrorCode::kOverloaded;
      err.message = "connection limit reached — retry later";
      const std::vector<uint8_t> frame =
          EncodeFrame(static_cast<uint16_t>(Opcode::kError), 0,
                      EncodeErrorResponse(err));
      // Best effort on the fresh nonblocking socket: a tiny frame fits
      // the empty send buffer; if it somehow doesn't, the close below
      // still sheds the connection.
      (void)sock.SendSome(frame.data(), frame.size());
      continue;  // sock dies here
    }

    live_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(sock);
    conn->loop_index = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                       loops_.size();
    Place(conn);
  }
}

std::shared_ptr<Connection> FrontEnd::Adopt(Socket sock) {
  auto conn = std::make_shared<Connection>();
  const bool nonblocking = sock.SetNonBlocking();
  conn->sock = std::move(sock);
  conn->outbound = true;
  conn->loop_index = 0;
  if (!nonblocking) {
    conn->open.store(false, std::memory_order_relaxed);
    return conn;
  }
  Place(conn);
  return conn;
}

void FrontEnd::Place(const std::shared_ptr<Connection>& conn) {
  Loop& dest = *loops_[conn->loop_index];
  if (OnLoopThread(dest)) {
    Register(dest, conn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(dest.mail_mu);
    dest.pending_add.push_back(conn);
  }
  Wake(dest);
}

void FrontEnd::Post(std::function<void()> task) {
  Loop& loop = *loops_[0];
  {
    std::lock_guard<std::mutex> lock(loop.mail_mu);
    loop.tasks.push_back(std::move(task));
  }
  Wake(loop);
}

void FrontEnd::Register(Loop& loop, const std::shared_ptr<Connection>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
    conn->open.store(false, std::memory_order_relaxed);
    if (!conn->outbound) {
      live_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
    handler_->OnClose(conn);
    return;  // conn dies with the caller's reference
  }
  conn->registered = true;
  loop.conns.emplace(conn.get(), conn);
}

void FrontEnd::Read(Loop& loop, const std::shared_ptr<Connection>& conn) {
  if (!conn->registered || conn->read_paused || conn->held) return;
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = conn->sock.RecvSome(buf, sizeof(buf));
    if (n > 0) {
      conn->in.Append(buf, static_cast<size_t>(n));
      if (!ParseAndDispatch(loop, conn)) return;  // closed, held or paused
      if (static_cast<size_t>(n) < sizeof(buf)) return;  // likely drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Close(loop, conn);  // peer EOF or hard error
    return;
  }
}

bool FrontEnd::ParseAndDispatch(Loop& loop,
                                const std::shared_ptr<Connection>& conn) {
  while (conn->registered && !conn->held) {
    // Write-side backpressure: a connection that has stopped reading
    // its responses stops being read itself, before its next frame is
    // even cut — the transmit backlog, not the kernel's buffers, is
    // the bound. Outbound links are exempt: their peer answers only
    // what this side sends, so pausing them could only deadlock.
    if (!conn->outbound && Backlog(*conn) > config_.max_outbound_bytes) {
      conn->read_paused = true;
      UpdateInterest(loop, *conn);
      return false;
    }
    FrameCut cut = CutFrame(conn->in);
    if (cut.kind == FrameCut::Kind::kNeedMore) return true;
    if (cut.kind == FrameCut::Kind::kPoisoned) {
      // Bad magic / oversized payload / nonzero reserved: the stream
      // has no trustworthy frame boundary left. Close, never crash.
      metrics_->Add(counters_.bad_frames, 1);
      Close(loop, conn);
      return false;
    }
    loop.cut_since_pass_end = true;
    handler_->OnFrame(conn, cut);
  }
  return false;
}

bool FrontEnd::RejectEnvelope(const std::shared_ptr<Connection>& conn,
                              const FrameCut& cut) {
  const FrameHeader& header = cut.header;
  if (header.version != kProtocolVersion) {
    metrics_->Add(counters_.errors, 1);
    EnqueueError(conn, header.request_id, ErrorCode::kUnsupportedVersion,
                 cut.envelope_error);
    return true;
  }
  if (!IsRequestOpcode(header.opcode)) {
    metrics_->Add(counters_.errors, 1);
    EnqueueError(conn, header.request_id, ErrorCode::kUnknownOpcode,
                 "opcode " + std::to_string(header.opcode) +
                     " is not a request opcode");
    return true;
  }
  return false;
}

void FrontEnd::Enqueue(const std::shared_ptr<Connection>& conn, Opcode opcode,
                       uint64_t request_id, std::span<const uint8_t> payload) {
  EnqueueEncoded(conn, EncodeFrame(static_cast<uint16_t>(opcode), request_id,
                                   payload));
}

void FrontEnd::EnqueueEncoded(const std::shared_ptr<Connection>& conn,
                              std::span<const uint8_t> frames) {
  if (!conn->open.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->out.Append(frames.data(), frames.size());
  }
  Loop& loop = *loops_[conn->loop_index];
  bool first_dirty = false;
  {
    std::lock_guard<std::mutex> lock(loop.mail_mu);
    first_dirty = loop.dirty.empty();
    loop.dirty.push_back(conn);
  }
  // The loop flushes what its own thread enqueued before re-entering
  // epoll_wait (ProcessMail), so only other threads must wake it. A
  // nonempty dirty list means its first writer's wake is already owed
  // (or the loop thread is still to swap the list), so one wake covers
  // every writer until the loop takes the list.
  if (OnLoopThread(loop)) {
    loop.enqueued_here = true;
  } else if (first_dirty) {
    Wake(loop);
  }
}

void FrontEnd::EnqueueError(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id, ErrorCode code,
                            std::string message) {
  ErrorResponse response;
  response.code = code;
  response.message = std::move(message);
  Enqueue(conn, Opcode::kError, request_id, EncodeErrorResponse(response));
}

std::vector<uint8_t>& Outbox::For(const std::shared_ptr<Connection>& conn) {
  if (used_ > 0 && entries_[used_ - 1].conn == conn) {
    return entries_[used_ - 1].frames;
  }
  for (size_t i = 0; i < used_; ++i) {
    if (entries_[i].conn == conn) return entries_[i].frames;
  }
  if (used_ == entries_.size()) entries_.emplace_back();
  Entry& entry = entries_[used_++];
  entry.conn = conn;
  return entry.frames;
}

size_t Outbox::Collected(const Connection& conn) const {
  for (size_t i = 0; i < used_; ++i) {
    if (entries_[i].conn.get() == &conn) return entries_[i].frames.size();
  }
  return 0;
}

void Outbox::HandOver(FrontEnd& front_end) {
  for (size_t i = 0; i < used_; ++i) {
    Entry& entry = entries_[i];
    front_end.EnqueueEncoded(entry.conn, entry.frames);
    entry.conn.reset();  // a closed connection is not kept alive here
    entry.frames.clear();
  }
  used_ = 0;
}

size_t FrontEnd::Backlog(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.out_mu);
  return conn.out.size();
}

void FrontEnd::Flush(Loop& loop, const std::shared_ptr<Connection>& conn) {
  if (!conn->registered) return;
  bool failed = false;
  size_t remaining = 0;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    while (!conn->out.empty()) {
      const ssize_t n = conn->sock.SendSome(conn->out.data(),
                                            conn->out.size());
      if (n > 0) {
        conn->out.Consume(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      failed = true;  // peer closed mid-response or hard error
      break;
    }
    remaining = conn->out.size();
  }
  if (failed) {
    Close(loop, conn);
    return;
  }

  bool interest_changed = false;
  const bool want_write = remaining > 0;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    interest_changed = true;
  }
  const bool resume =
      conn->read_paused && remaining <= config_.max_outbound_bytes / 2;
  if (resume) {
    conn->read_paused = false;
    interest_changed = true;
  }
  if (interest_changed) UpdateInterest(loop, *conn);
  if (resume) {
    // Frames already buffered while paused parse now; anything still in
    // the kernel re-fires the (level-triggered) EPOLLIN we just armed.
    ParseAndDispatch(loop, conn);
  }
}

void FrontEnd::UpdateInterest(Loop& loop, Connection& conn) {
  if (!conn.registered) return;
  epoll_event ev{};
  ev.events = (conn.read_paused || conn.held ? 0u
                                              : static_cast<uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = &conn;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

void FrontEnd::Hold(Connection& conn) {
  conn.held = true;
  UpdateInterest(*loops_[conn.loop_index], conn);
}

void FrontEnd::Release(const std::shared_ptr<Connection>& conn) {
  if (!conn->registered) return;
  Loop& loop = *loops_[conn->loop_index];
  conn->held = false;
  UpdateInterest(loop, *conn);
  ParseAndDispatch(loop, conn);
}

void FrontEnd::Close(Loop& loop, const std::shared_ptr<Connection>& conn) {
  if (!conn->registered) return;  // idempotent
  conn->registered = false;
  conn->open.store(false, std::memory_order_relaxed);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
  // A peer may be parked in read(2) waiting for a reply that will never
  // come (e.g. its frame was fatally malformed); shutdown(2) hands it a
  // clean EOF before the descriptor goes away.
  conn->sock.ShutdownBoth();
  conn->sock.Close();
  if (!conn->outbound) {
    live_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  const std::shared_ptr<Connection> keep = conn;
  loop.conns.erase(keep.get());
  handler_->OnClose(keep);
}

void FrontEnd::ProcessMail(Loop& loop) {
  std::vector<std::shared_ptr<Connection>> add;
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(loop.mail_mu);
    add.swap(loop.pending_add);
    tasks.swap(loop.tasks);
  }
  for (const std::shared_ptr<Connection>& conn : add) Register(loop, conn);
  for (const std::function<void()>& task : tasks) task();
  // The pass end can enqueue frames, and a flush can cut frames (a
  // paused connection resumes) or enqueue replies on this thread (a
  // close fails requests). Repeat until a round did neither, so the loop
  // never sleeps on undispatched frames or unflushed bytes; replies
  // other threads enqueue meanwhile wake the loop for its next pass.
  do {
    if (loop.cut_since_pass_end) {
      loop.cut_since_pass_end = false;
      handler_->OnPassEnd();
    }
    loop.enqueued_here = false;
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      std::lock_guard<std::mutex> lock(loop.mail_mu);
      dirty.swap(loop.dirty);
    }
    for (const std::shared_ptr<Connection>& conn : dirty) Flush(loop, conn);
  } while (loop.cut_since_pass_end || loop.enqueued_here);
}

void FrontEnd::DrainAndClose(Loop& loop) {
  // Every response the owner produced is already in a transmit queue.
  // Flush them (bounded — only a peer that stopped reading can hold us
  // up), then close everything.
  Timer cap;
  while (cap.Millis() < kDrainFlushCapMs) {
    ProcessMail(loop);
    std::vector<std::shared_ptr<Connection>> conns;
    conns.reserve(loop.conns.size());
    for (const auto& [ptr, sp] : loop.conns) conns.push_back(sp);
    bool pending = false;
    for (const std::shared_ptr<Connection>& conn : conns) {
      Flush(loop, conn);
      if (conn->registered && Backlog(*conn) > 0) pending = true;
    }
    if (!pending) break;
    epoll_event ev;
    ::epoll_wait(loop.epoll_fd, &ev, 1, 10);
  }
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(loop.conns.size());
  for (const auto& [ptr, sp] : loop.conns) conns.push_back(sp);
  for (const std::shared_ptr<Connection>& conn : conns) Close(loop, conn);
}

}  // namespace fannr::net

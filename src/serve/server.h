// ImputationServer: an event-driven TCP server speaking the serve wire
// protocol.
//
// One epoll event loop (edge-triggered) owns every socket: the listener,
// a wakeup eventfd, and all client connections. Each connection is a small
// state machine — an incremental FrameReader on the read side, an ordered
// reply queue plus a buffered partial-write queue on the write side — so a
// dribbling writer, a slow reader, or thousands of idle connections cost
// one fd each, not one thread each. Each hosted model is identified by its
// column-schema width (what an impute request carries on the wire) and owns
// one EngineSlot plus one micro-batching BatchQueue; requests route to the
// model of their width and execute asynchronously. Completions re-enter the
// loop through the eventfd and are written back in per-connection request
// order, so served bytes are independent of batching and event
// interleaving, and bit-identical to the offline Imputer.
//
// Hot-swap: a model's queue reads its engine through the EngineSlot at the
// moment a batch executes, so HotSwap(next) atomically moves the model to
// the new version under traffic. Each batch runs wholly on one version;
// schema width is validated so queued requests stay routable.
//
// fd lifecycle rules (see serve/io.h): accept4(NONBLOCK|CLOEXEC) +
// TCP_NODELAY on every connection, every accept error path closes the fd,
// and EMFILE sheds load through a reserve fd instead of spinning on a
// readable listener.
//
// Shutdown is graceful: the listener closes, connection read sides shut
// down, in-flight requests finish and their responses flush (bounded by a
// drain deadline), the model queues drain, then the loop thread joins. A
// client can trigger the same sequence remotely with a kShutdown frame
// (scis_client --shutdown), which the server acknowledges first.
#ifndef SCIS_SERVE_SERVER_H_
#define SCIS_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/batch_queue.h"
#include "serve/engine.h"
#include "serve/wire.h"

namespace scis::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";  // dotted-quad bind address
  int port = 0;                    // 0 = kernel-assigned ephemeral port
  BatchQueueOptions queue;
  bool allow_remote_shutdown = true;  // honor kShutdown frames
  // A connection whose unread responses exceed this many buffered bytes is
  // dropped (slow-reader protection; responses are never discarded
  // silently while the peer keeps up).
  size_t max_write_buffer_bytes = 64u << 20;
  // How long Shutdown waits for in-flight responses to flush.
  double drain_timeout_ms = 5000;
  // Invoked on the event-loop thread with each admitted request's rows,
  // after routing succeeds and before batch execution. Must not block —
  // the continuous-learning tap (lifecycle::SampleTap::Offer) copies the
  // rows into a bounded queue and returns.
  std::function<void(const Matrix&)> sample_hook;
};

class ImputationServer {
 public:
  // Single model (the common case).
  ImputationServer(std::shared_ptr<const ImputationEngine> engine,
                   ServerOptions opts);
  // Several models: schema widths must be unique (checked at Start).
  ImputationServer(
      std::vector<std::shared_ptr<const ImputationEngine>> models,
      ServerOptions opts);
  ~ImputationServer();

  ImputationServer(const ImputationServer&) = delete;
  ImputationServer& operator=(const ImputationServer&) = delete;

  // Binds, listens, builds the model queues, and starts the event loop.
  // After an ephemeral bind (port 0), port() reports the kernel-assigned
  // port.
  Status Start();

  int port() const { return port_; }

  // Atomically replaces the hosted model matching next's schema width
  // (scis_serve re-loads checkpoints on SIGHUP through this). Safe under
  // traffic: every batch runs wholly on one engine version. NotFound when
  // no hosted model has that width; Unavailable before Start.
  Status HotSwap(std::shared_ptr<const ImputationEngine> next);

  // Blocks until Shutdown() is called or a client requests shutdown, then
  // performs the graceful drain. Returns once the server is fully stopped.
  void Wait();

  // Waits up to timeout_ms for a shutdown request; true once one arrived
  // (the caller should then call Shutdown()). Lets scis_serve poll for
  // SIGHUP-triggered checkpoint reloads between waits.
  bool WaitFor(double timeout_ms);

  // Graceful stop: close the listener, flush in-flight responses, drain the
  // model queues, join the loop thread. Idempotent; safe from any thread.
  void Shutdown();

 private:
  struct Conn;
  // One hosted model: requests of `cols` columns batch through `queue`,
  // which executes on whatever engine `slot` holds.
  struct HostedModel {
    size_t cols = 0;
    std::shared_ptr<EngineSlot> slot;
    std::unique_ptr<BatchQueue> queue;
  };
  struct Completion {
    uint64_t conn_id;
    uint64_t seq;
    Result<Matrix> result;
  };

  // The queue of the model serving `cols` columns; InvalidArgument (a
  // client error) when no hosted model has that width.
  Result<BatchQueue*> Route(size_t cols) const;
  void EventLoop();
  void WakeLoop();
  void HandleAccept();
  void HandleConnEvent(uint64_t id, uint32_t events);
  // Decodes and dispatches every complete frame buffered on the connection.
  // Returns false when the connection must close once its replies flush.
  bool ProcessFrames(uint64_t id, Conn* conn);
  void StageReply(Conn* conn, uint64_t seq, const Frame& frame);
  // Moves in-order staged replies to the write buffer, writes what the
  // socket accepts, updates EPOLLOUT interest, closes if done/over budget.
  void FlushConn(uint64_t id);
  void DrainCompletions();
  void CloseConn(uint64_t id);
  bool HasPendingWork() const;

  ServerOptions opts_;
  std::vector<std::shared_ptr<const ImputationEngine>> models_;
  std::vector<HostedModel> hosted_;  // built by Start from models_

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int reserve_fd_ = -1;  // EMFILE shedding (serve/io.h)
  int port_ = 0;

  // Connections are addressed by id, not fd: a completion can land after
  // its connection died and the fd number was reused.
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup eventfd

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_shutdown_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::thread loop_thread_;
};

}  // namespace scis::serve

#endif  // SCIS_SERVE_SERVER_H_

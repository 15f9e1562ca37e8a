// Adversarial and scale tests for the event-driven server: hostile client
// behavior (dribbling writers, mid-frame disconnects, slow readers),
// pipelined request ordering, concurrent-connection fan-in with
// bit-identity against the offline engine, multi-model routing, and
// hot-swap under traffic.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/check.h"
#include "runtime/runtime.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "tensor/rng.h"

namespace scis::serve {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.data()[i]) !=
        std::bit_cast<uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

Checkpoint MakeCheckpoint(size_t d, uint64_t seed) {
  Rng rng(seed);
  Checkpoint ckpt;
  ckpt.meta.model = "GAIN";
  for (size_t j = 0; j < d; ++j) {
    ckpt.meta.columns.push_back({"c" + std::to_string(j), 0, 0});
    ckpt.meta.norm_lo.push_back(-2.0 - static_cast<double>(j));
    ckpt.meta.norm_hi.push_back(3.0 + static_cast<double>(j));
  }
  ckpt.params.push_back({"g.l0.W", rng.NormalMatrix(2 * d, d, 0.0, 0.5)});
  ckpt.params.push_back({"g.l0.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  ckpt.params.push_back({"g.l1.W", rng.NormalMatrix(d, d, 0.0, 0.5)});
  ckpt.params.push_back({"g.l1.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  return ckpt;
}

std::shared_ptr<const ImputationEngine> MakeEngine(size_t d, uint64_t seed) {
  Result<std::shared_ptr<const ImputationEngine>> engine =
      ImputationEngine::FromCheckpoint(MakeCheckpoint(d, seed));
  SCIS_CHECK(engine.ok());
  return *engine;
}

Matrix RandomRows(Rng& rng, size_t n, size_t d, double missing_rate) {
  Matrix rows(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      rows(i, j) = rng.Bernoulli(missing_rate)
                       ? kNaN
                       : rng.Uniform(-2.0 - static_cast<double>(j),
                                     3.0 + static_cast<double>(j));
    }
  }
  return rows;
}

// A raw blocking TCP socket, for clients that misbehave on purpose.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SCIS_CHECK_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    SCIS_CHECK_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    SCIS_CHECK_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawClient() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void Send(const uint8_t* data, size_t n) {
    size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
      SCIS_CHECK_GT(w, 0);
      off += static_cast<size_t>(w);
    }
  }

  void SendFrame(const Frame& frame) {
    std::vector<uint8_t> bytes;
    AppendFrame(frame, &bytes);
    Send(bytes.data(), bytes.size());
  }

  // Blocks for the next whole frame.
  Frame RecvFrame() {
    uint8_t buf[4096];
    for (;;) {
      Result<std::optional<Frame>> next = reader_.Next();
      SCIS_CHECK(next.ok());
      if (next.value().has_value()) return std::move(*next.value());
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      SCIS_CHECK_GT(n, 0);
      reader_.Append(buf, static_cast<size_t>(n));
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

// Restores the runtime thread count on scope exit.
class ThreadsGuard {
 public:
  ThreadsGuard() : saved_(runtime::NumThreads()) {}
  ~ThreadsGuard() { runtime::SetNumThreads(saved_); }

 private:
  int saved_;
};

ServerOptions FastOptions() {
  ServerOptions opts;
  opts.queue.max_wait_ms = 0.5;
  return opts;
}

// A client that dribbles its request one byte per send must still be served
// correctly: the incremental FrameReader reassembles arbitrary chunkings.
TEST(ServeLoopTest, DribblingWriterOneByteAtATime) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(4, 101);
  ImputationServer server(engine, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  Rng rng(21);
  Matrix rows = RandomRows(rng, 3, 4, 0.4);
  std::vector<uint8_t> bytes;
  AppendFrame(Frame{FrameType::kImputeRequest, EncodeMatrixPayload(rows)},
              &bytes);
  RawClient client(server.port());
  for (uint8_t byte : bytes) client.Send(&byte, 1);  // worst-case chunking
  const Frame reply = client.RecvFrame();
  ASSERT_EQ(reply.type, FrameType::kImputeResponse);
  Result<Matrix> got = DecodeMatrixPayload(reply.payload);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(BitIdentical(engine->ImputeBatch(rows).value(), got.value()));
}

// A peer that disconnects mid-frame must not wedge or kill the server:
// the connection is reaped and other clients keep being served.
TEST(ServeLoopTest, MidFrameDisconnectLeavesServerServing) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 103);
  ImputationServer server(engine, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  Rng rng(22);
  Matrix rows = RandomRows(rng, 2, 3, 0.4);
  std::vector<uint8_t> bytes;
  AppendFrame(Frame{FrameType::kImputeRequest, EncodeMatrixPayload(rows)},
              &bytes);
  for (const size_t cut : {size_t{2}, size_t{7}, bytes.size() - 3}) {
    RawClient truncator(server.port());
    truncator.Send(bytes.data(), cut);
    truncator.Close();  // EOF lands mid-header or mid-payload
  }

  // The server shrugged all three off; a well-behaved client still works.
  Result<std::unique_ptr<ImputationClient>> client =
      ImputationClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Result<Matrix> got = (*client)->Impute(rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BitIdentical(engine->ImputeBatch(rows).value(), got.value()));
}

// Pipelined requests on one connection answer strictly in request order,
// even though batches run concurrently on the runtime pool and their
// completions can land out of order inside the server.
TEST(ServeLoopTest, PipelinedRequestsAnswerInOrder) {
  ThreadsGuard threads;
  runtime::SetNumThreads(4);
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(4, 107);
  ServerOptions opts = FastOptions();
  opts.queue.max_batch_rows = 1;  // every request its own batch
  ImputationServer server(engine, opts);
  ASSERT_TRUE(server.Start().ok());

  Rng rng(23);
  constexpr size_t kRequests = 24;
  std::vector<Matrix> inputs;
  RawClient client(server.port());
  for (size_t k = 0; k < kRequests; ++k) {
    inputs.push_back(RandomRows(rng, 1 + k % 5, 4, 0.4));
    client.SendFrame(
        Frame{FrameType::kImputeRequest, EncodeMatrixPayload(inputs[k])});
  }
  for (size_t k = 0; k < kRequests; ++k) {
    const Frame reply = client.RecvFrame();
    ASSERT_EQ(reply.type, FrameType::kImputeResponse) << "reply " << k;
    Result<Matrix> got = DecodeMatrixPayload(reply.payload);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(BitIdentical(engine->ImputeBatch(inputs[k]).value(),
                             got.value()))
        << "reply " << k << " out of order or corrupted";
  }
}

// A reader that stops draining its socket while pipelining large requests
// forces the server into buffered partial writes; once the client catches
// up, every byte must arrive intact and in order.
TEST(ServeLoopTest, SlowReaderForcesPartialWriteBuffering) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(8, 109);
  ServerOptions opts = FastOptions();
  opts.queue.max_batch_rows = 4096;
  opts.queue.max_queue_rows = 1u << 20;
  ImputationServer server(engine, opts);
  ASSERT_TRUE(server.Start().ok());

  Rng rng(24);
  // Each response is ~2000*8*8 = 128 KiB — several times a default socket
  // buffer, so the server must park bytes in its write queue.
  constexpr size_t kRequests = 6;
  std::vector<Matrix> inputs;
  RawClient client(server.port());
  for (size_t k = 0; k < kRequests; ++k) {
    inputs.push_back(RandomRows(rng, 2000, 8, 0.4));
    client.SendFrame(
        Frame{FrameType::kImputeRequest, EncodeMatrixPayload(inputs[k])});
  }
  // Let responses pile up server-side before reading the first byte.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (size_t k = 0; k < kRequests; ++k) {
    const Frame reply = client.RecvFrame();
    ASSERT_EQ(reply.type, FrameType::kImputeResponse) << "reply " << k;
    Result<Matrix> got = DecodeMatrixPayload(reply.payload);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(
        BitIdentical(engine->ImputeBatch(inputs[k]).value(), got.value()));
  }
}

// >= 64 concurrent loopback connections fanning into one model queue,
// every response bit-identical to the offline engine.
TEST(ServeLoopTest, Sustains64Connections) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(5, 113);
  ImputationServer server(engine, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 64;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<uint64_t>(c));
      Result<std::unique_ptr<ImputationClient>> conn =
          ImputationClient::Connect("127.0.0.1", server.port());
      if (!conn.ok()) return;
      Matrix rows = RandomRows(rng, 1 + rng.UniformIndex(4), 5, 0.4);
      Result<Matrix> got = (*conn)->Impute(rows);
      if (got.ok() &&
          BitIdentical(engine->ImputeBatch(rows).value(), got.value())) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);
}

// Several models route by request width, one queue each; unknown widths
// are client errors, not crashes, and duplicate widths are refused.
TEST(ServeLoopTest, MultiModelRoutesByColumnCount) {
  std::shared_ptr<const ImputationEngine> narrow = MakeEngine(3, 131);
  std::shared_ptr<const ImputationEngine> wide = MakeEngine(5, 137);
  ImputationServer ambiguous({narrow, MakeEngine(3, 133)}, FastOptions());
  EXPECT_EQ(ambiguous.Start().code(), StatusCode::kInvalidArgument);
  ImputationServer server({narrow, wide}, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  Rng rng(26);
  Result<std::unique_ptr<ImputationClient>> client =
      ImputationClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Matrix rows3 = RandomRows(rng, 4, 3, 0.4);
  Matrix rows5 = RandomRows(rng, 4, 5, 0.4);
  Result<Matrix> got3 = (*client)->Impute(rows3);
  Result<Matrix> got5 = (*client)->Impute(rows5);
  ASSERT_TRUE(got3.ok() && got5.ok());
  EXPECT_TRUE(BitIdentical(narrow->ImputeBatch(rows3).value(), got3.value()));
  EXPECT_TRUE(BitIdentical(wide->ImputeBatch(rows5).value(), got5.value()));
  EXPECT_EQ((*client)->Impute(Matrix::Zeros(2, 4)).status().code(),
            StatusCode::kInvalidArgument);
}

// Hot-swap under traffic: every response matches exactly one published
// engine version, and post-swap responses match the new version.
TEST(ServeLoopTest, HotSwapUnderTraffic) {
  std::shared_ptr<const ImputationEngine> v1 = MakeEngine(4, 139);
  std::shared_ptr<const ImputationEngine> v2 = MakeEngine(4, 149);
  ImputationServer server(v1, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  Rng rng(27);
  Matrix rows = RandomRows(rng, 2, 4, 0.5);
  const Matrix bits_v1 = v1->ImputeBatch(rows).value();
  const Matrix bits_v2 = v2->ImputeBatch(rows).value();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread traffic([&] {
    Result<std::unique_ptr<ImputationClient>> client =
        ImputationClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      mismatches.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      Result<Matrix> got = (*client)->Impute(rows);
      if (!got.ok() || (!BitIdentical(got.value(), bits_v1) &&
                        !BitIdentical(got.value(), bits_v2))) {
        mismatches.fetch_add(1);  // torn across versions
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(server.HotSwap(v2).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  traffic.join();
  EXPECT_EQ(mismatches.load(), 0);

  // After the swap, fresh requests serve the new version's bits.
  Result<std::unique_ptr<ImputationClient>> client =
      ImputationClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Result<Matrix> got = (*client)->Impute(rows);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(BitIdentical(bits_v2, got.value()));

  // A swap to a width the fleet does not host is rejected.
  EXPECT_EQ(server.HotSwap(MakeEngine(7, 151)).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace scis::serve

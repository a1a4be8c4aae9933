// FrontEnd: the socket tier in front of a ShardedServer, speaking both the
// line-delimited text protocol (serve/protocol.hpp) and the batched binary
// wire format (serve/binary_protocol.hpp) on Unix-domain and/or TCP
// listeners.
//
// Protocol negotiation is per connection, by the first byte: 0xEB opens a
// binary request frame and no text verb starts with it, so a connection
// whose first byte is a frame magic is served in binary mode and anything
// else falls back to the text protocol. Existing text clients therefore
// keep working unchanged against a binary-capable front end, and one
// listener serves a mixed client population. A connection speaks one
// protocol for its lifetime.
//
// Text connections answer one response line per request line. Binary
// connections answer one response frame per request frame: the frame is
// decoded once, each record is validated (a bad record answers its own
// `error bad-request:` line without failing the batch), and the valid
// requests go through ShardedServer::submit_batch — bucketed by shard and
// executed in parallel. Framing errors (oversized or malformed frames) are
// answered in the connection's own protocol, then the connection closes;
// the listener and other connections keep serving.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/binary_protocol.hpp"
#include "serve/protocol.hpp"

namespace exareq::serve {

class ShardedServer;

struct FrontEndOptions {
  /// Unix-domain listener path; empty disables the Unix listener.
  std::string unix_path;
  /// TCP listener port on tcp_host; negative disables, 0 binds an
  /// ephemeral port (read it back with tcp_port() after start()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Text-protocol per-line bound (the CLI's --max-frame).
  std::size_t max_frame_bytes = FrameDecoder::kDefaultMaxFrameBytes;
  /// Binary-protocol per-frame bound; defaults far higher because one
  /// frame carries a whole batch.
  std::size_t max_binary_frame_bytes = binary::kDefaultBatchMaxFrameBytes;
};

class FrontEnd {
 public:
  /// `server` must outlive the front end. At least one listener (Unix path
  /// or TCP port >= 0) must be configured.
  FrontEnd(ShardedServer& server, FrontEndOptions options);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds and starts every configured listener. Throws Error on system
  /// errors (port in use, bad path, ...).
  void start();

  /// Shuts listeners and open connections down, joins all threads, and
  /// unlinks the Unix socket file. Idempotent; called by the destructor.
  void stop();

  const FrontEndOptions& options() const { return options_; }

  /// The bound TCP port (resolves an ephemeral port 0 request); -1 when no
  /// TCP listener is configured.
  int tcp_port() const { return bound_tcp_port_; }

 private:
  void accept_loop(int listen_fd);
  void serve_connection(int fd);
  std::string handle_binary_frame(const std::string& frame);

  ShardedServer& server_;
  FrontEndOptions options_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  std::atomic<bool> running_{false};
  std::vector<std::thread> acceptors_;
  std::mutex mutex_;
  std::vector<std::thread> connections_;
  std::vector<int> connection_fds_;
};

/// A persistent client connection to a FrontEnd. The first call pins the
/// connection's protocol — text for query(), binary for query_batch() —
/// matching the server's per-connection auto-detect; mixing both on one
/// client throws.
class Client {
 public:
  static Client connect_unix(const std::string& path);
  static Client connect_tcp(const std::string& host, int port);
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Text protocol: sends one request line, returns the response line.
  std::string query(const std::string& line);

  /// Binary protocol: sends the batch as one request frame, returns the
  /// per-request response lines in request order.
  std::vector<std::string> query_batch(const std::vector<Request>& requests);

 private:
  explicit Client(int fd);

  int fd_ = -1;
  int mode_ = 0;  ///< 0 unpinned, 1 text, 2 binary
  std::string text_buffer_;
  binary::BinaryFrameDecoder reply_decoder_;
};

/// One-shot batched query over a Unix socket / TCP: connect, send one
/// binary request frame, return the response lines.
std::vector<std::string> query_batch_over_socket(
    const std::string& socket_path, const std::vector<Request>& requests);
std::vector<std::string> query_batch_over_tcp(
    const std::string& host, int port, const std::vector<Request>& requests);

/// One-shot text query over a Unix socket / TCP: connect, send one request
/// line, return the response line. Throws Error when the listener is
/// unreachable or the connection closes before a response arrives.
std::string query_over_socket(const std::string& socket_path,
                              const std::string& line);
std::string query_over_tcp(const std::string& host, int port,
                           const std::string& line);

}  // namespace exareq::serve

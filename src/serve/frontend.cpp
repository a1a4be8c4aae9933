#include "serve/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/sharded_server.hpp"
#include "support/error.hpp"

namespace exareq::serve {
namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  exareq::require(path.size() < sizeof(address.sun_path),
                  "socket path '" + path + "' is too long");
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

sockaddr_in tcp_address(const std::string& host, int port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  exareq::require(::inet_pton(AF_INET, host.c_str(), &address.sin_addr) == 1,
                  "bad TCP host '" + host + "' (expected an IPv4 address)");
  return address;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t chunk =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (chunk < 0) {
      if (errno == EINTR) continue;
      throw exareq::Error(std::string("socket send failed: ") +
                          std::strerror(errno));
    }
    sent += static_cast<std::size_t>(chunk);
  }
}

int connect_unix_fd(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw exareq::Error(std::string("cannot create socket: ") +
                        std::strerror(errno));
  }
  const sockaddr_un address = unix_address(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw exareq::Error("cannot connect to '" + path + "': " + what);
  }
  return fd;
}

int connect_tcp_fd(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw exareq::Error(std::string("cannot create socket: ") +
                        std::strerror(errno));
  }
  const sockaddr_in address = tcp_address(host, port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw exareq::Error("cannot connect to " + host + ":" +
                        std::to_string(port) + ": " + what);
  }
  return fd;
}

}  // namespace

FrontEnd::FrontEnd(ShardedServer& server, FrontEndOptions options)
    : server_(server), options_(std::move(options)) {
  exareq::require(!options_.unix_path.empty() || options_.tcp_port >= 0,
                  "FrontEnd: configure a Unix socket path or a TCP port");
}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::start() {
  exareq::require(!running_.load(), "FrontEnd: already started");
  if (!options_.unix_path.empty()) {
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) {
      throw exareq::Error(std::string("cannot create socket: ") +
                          std::strerror(errno));
    }
    const sockaddr_un address = unix_address(options_.unix_path);
    ::unlink(options_.unix_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(unix_fd_, 64) != 0) {
      const std::string what = std::strerror(errno);
      ::close(unix_fd_);
      unix_fd_ = -1;
      throw exareq::Error("cannot listen on '" + options_.unix_path +
                          "': " + what);
    }
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      throw exareq::Error(std::string("cannot create socket: ") +
                          std::strerror(errno));
    }
    const int enable = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    const sockaddr_in address =
        tcp_address(options_.tcp_host, options_.tcp_port);
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(tcp_fd_, 64) != 0) {
      const std::string what = std::strerror(errno);
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      if (unix_fd_ >= 0) {
        ::close(unix_fd_);
        unix_fd_ = -1;
        ::unlink(options_.unix_path.c_str());
      }
      throw exareq::Error("cannot listen on " + options_.tcp_host + ":" +
                          std::to_string(options_.tcp_port) + ": " + what);
    }
    sockaddr_in bound{};
    socklen_t length = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &length) == 0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  running_.store(true);
  if (unix_fd_ >= 0) {
    acceptors_.emplace_back([this] { accept_loop(unix_fd_); });
  }
  if (tcp_fd_ >= 0) {
    acceptors_.emplace_back([this] { accept_loop(tcp_fd_); });
  }
}

void FrontEnd::stop() {
  if (!running_.exchange(false)) {
    for (std::thread& acceptor : acceptors_) {
      if (acceptor.joinable()) acceptor.join();
    }
    acceptors_.clear();
    return;
  }
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  for (std::thread& acceptor : acceptors_) {
    if (acceptor.joinable()) acceptor.join();
  }
  acceptors_.clear();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(connections_);
  }
  for (std::thread& connection : connections) connection.join();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void FrontEnd::accept_loop(int listen_fd) {
  while (running_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken) — stop accepting
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

std::string FrontEnd::handle_binary_frame(const std::string& frame) {
  std::vector<binary::RequestView> views;
  try {
    views = binary::decode_request_frame(frame);
  } catch (const std::exception& error) {
    return binary::encode_response_frame(
        {error_response("bad-request", error.what())});
  }
  std::vector<std::string> lines(views.size());
  std::vector<Request> valid;
  std::vector<std::size_t> valid_indices;
  valid.reserve(views.size());
  valid_indices.reserve(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    try {
      valid.push_back(views[i].materialize());
      valid_indices.push_back(i);
    } catch (const std::exception& error) {
      lines[i] = error_response("bad-request", error.what());
    }
  }
  const std::vector<std::string> answers = server_.submit_batch(valid);
  for (std::size_t i = 0; i < valid_indices.size(); ++i) {
    lines[valid_indices[i]] = answers[i];
  }
  return binary::encode_response_frame(lines);
}

void FrontEnd::serve_connection(int fd) {
  // Deregister before closing so stop() never calls shutdown on a reused
  // file-descriptor number.
  const auto finish = [this, fd] {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(connection_fds_, fd);
    ::close(fd);
  };
  enum class Mode { kUndetected, kText, kBinary };
  Mode mode = Mode::kUndetected;
  FrameDecoder text_decoder(options_.max_frame_bytes);
  binary::BinaryFrameDecoder binary_decoder(options_.max_binary_frame_bytes);
  char chunk[16384];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF or shutdown
    if (mode == Mode::kUndetected) {
      mode = binary::is_binary_frame_start(static_cast<unsigned char>(chunk[0]))
                 ? Mode::kBinary
                 : Mode::kText;
    }
    try {
      const std::string_view bytes(chunk, static_cast<std::size_t>(got));
      if (mode == Mode::kText) {
        for (const std::string& line : text_decoder.feed(bytes)) {
          send_all(fd, server_.handle_line(line) + '\n');
        }
      } else {
        for (const std::string& frame : binary_decoder.feed(bytes)) {
          send_all(fd, handle_binary_frame(frame));
        }
      }
    } catch (const exareq::Error& error) {
      // Framing violation (oversized or malformed): answer in the
      // connection's own protocol, then drop the connection — the stream
      // position is unrecoverable.
      try {
        const std::string message =
            error_response("bad-request", error.what());
        if (mode == Mode::kBinary) {
          send_all(fd, binary::encode_response_frame({message}));
        } else {
          send_all(fd, message + '\n');
        }
      } catch (const exareq::Error&) {
      }
      finish();
      return;
    }
  }
  finish();
}

Client::Client(int fd) : fd_(fd) {}

Client Client::connect_unix(const std::string& path) {
  return Client(connect_unix_fd(path));
}

Client Client::connect_tcp(const std::string& host, int port) {
  return Client(connect_tcp_fd(host, port));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      mode_(other.mode_),
      text_buffer_(std::move(other.text_buffer_)),
      reply_decoder_(std::move(other.reply_decoder_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    mode_ = other.mode_;
    text_buffer_ = std::move(other.text_buffer_);
    reply_decoder_ = std::move(other.reply_decoder_);
  }
  return *this;
}

std::string Client::query(const std::string& line) {
  exareq::require(fd_ >= 0, "Client: connection is closed");
  exareq::require(mode_ != 2,
                  "Client: this connection already speaks the binary "
                  "protocol (one protocol per connection)");
  mode_ = 1;
  send_all(fd_, line + "\n");
  char chunk[4096];
  for (;;) {
    const std::size_t newline = text_buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = text_buffer_.substr(0, newline);
      text_buffer_.erase(0, newline + 1);
      return response;
    }
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    exareq::require(got > 0, "connection closed before a response arrived");
    text_buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

std::vector<std::string> Client::query_batch(
    const std::vector<Request>& requests) {
  exareq::require(fd_ >= 0, "Client: connection is closed");
  exareq::require(mode_ != 1,
                  "Client: this connection already speaks the text "
                  "protocol (one protocol per connection)");
  mode_ = 2;
  send_all(fd_, binary::encode_request_frame(requests));
  char chunk[16384];
  for (;;) {
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    exareq::require(got > 0, "connection closed before a response arrived");
    std::vector<std::string> frames =
        reply_decoder_.feed(std::string_view(chunk, static_cast<std::size_t>(got)));
    if (!frames.empty()) {
      // One frame per batch and this client sends one batch at a time.
      return binary::decode_response_frame(frames.front());
    }
  }
}

std::vector<std::string> query_batch_over_socket(
    const std::string& socket_path, const std::vector<Request>& requests) {
  return Client::connect_unix(socket_path).query_batch(requests);
}

std::vector<std::string> query_batch_over_tcp(
    const std::string& host, int port, const std::vector<Request>& requests) {
  return Client::connect_tcp(host, port).query_batch(requests);
}

std::string query_over_socket(const std::string& socket_path,
                              const std::string& line) {
  return Client::connect_unix(socket_path).query(line);
}

std::string query_over_tcp(const std::string& host, int port,
                           const std::string& line) {
  return Client::connect_tcp(host, port).query(line);
}

}  // namespace exareq::serve

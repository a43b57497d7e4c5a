#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pip {
namespace server {

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::Internal("client already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Internal(std::string("connect failed: ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Statements are small request frames each waiting on a reply, so
  // Nagle's algorithm would only hold them back.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string greeting;
  auto more = ReadFrame(fd, &greeting);
  if (!more.ok() || !more.value()) {
    ::close(fd);
    return more.ok() ? Status::Internal("server closed before greeting")
                     : more.status();
  }
  const std::string version(kProtocolVersion);
  if (greeting.compare(0, version.size(), version) != 0 ||
      (greeting.size() > version.size() && greeting[version.size()] != ' ')) {
    ::close(fd);
    return Status::Internal("protocol version mismatch: server sent '" +
                            greeting + "', expected " + version);
  }
  fd_ = fd;
  greeting_ = std::move(greeting);
  return Status::OK();
}

StatusOr<WireResponse> Client::Execute(const std::string& statement) {
  if (fd_ < 0) return Status::Internal("client not connected");
  PIP_RETURN_IF_ERROR(WriteFrame(fd_, statement));
  std::string payload;
  PIP_ASSIGN_OR_RETURN(bool more, ReadFrame(fd_, &payload));
  if (!more) return Status::Internal("server closed the connection");
  return DecodeResponse(payload);
}

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace server
}  // namespace pip

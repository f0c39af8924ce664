#ifndef MBR_NET_CLIENT_POOL_H_
#define MBR_NET_CLIENT_POOL_H_

// A small per-endpoint connection pool over net::Client.
//
// Client is deliberately single-request (one connection, one in-flight
// round trip); the router forwards each client request to its home shards
// from whichever dispatcher thread owns it, so it needs a connection per
// (shard, concurrent request). The pool keeps an idle stack per endpoint:
// Checkout() pops an idle connection or dials a new one; Return() pushes
// it back for reuse. A caller whose round trip failed drops the client
// instead of returning it (the connection state is unknown after an I/O
// error), so broken connections never get back into the pool — the next
// Checkout simply redials. At most kMaxIdle idle connections are kept per
// endpoint; extra returns close.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/client.h"
#include "util/status.h"

namespace mbr::net {

class ClientPool {
 public:
  static constexpr size_t kMaxIdle = 4;

  // One ClientConfig per endpoint (host/port/timeouts).
  explicit ClientPool(std::vector<ClientConfig> endpoints);

  // An idle pooled connection to endpoint `i`, or a freshly dialed one.
  // Connect failures surface as the Client::Connect status (kUnavailable
  // for a down shard).
  util::Result<std::unique_ptr<Client>> Checkout(size_t i);

  // Returns a healthy connection for reuse. Only call after a successful
  // round trip; on failure simply destroy the client instead.
  void Return(size_t i, std::unique_ptr<Client> client);

 private:
  struct Slot {
    std::mutex mu;
    std::vector<std::unique_ptr<Client>> idle;
  };

  std::vector<ClientConfig> endpoints_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace mbr::net

#endif  // MBR_NET_CLIENT_POOL_H_

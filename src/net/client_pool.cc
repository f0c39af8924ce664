#include "net/client_pool.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace mbr::net {

ClientPool::ClientPool(std::vector<ClientConfig> endpoints)
    : endpoints_(std::move(endpoints)) {
  slots_.reserve(endpoints_.size());
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

util::Result<std::unique_ptr<Client>> ClientPool::Checkout(
    size_t i, uint32_t connect_timeout_ms) {
  MBR_CHECK(i < slots_.size());
  {
    std::lock_guard<std::mutex> lock(slots_[i]->mu);
    if (!slots_[i]->idle.empty()) {
      std::unique_ptr<Client> c = std::move(slots_[i]->idle.back());
      slots_[i]->idle.pop_back();
      return c;
    }
  }
  ClientConfig config = endpoints_[i];
  if (connect_timeout_ms != 0) {
    config.connect_timeout_ms =
        std::min(config.connect_timeout_ms, connect_timeout_ms);
  }
  auto dialed = Client::Connect(config);
  if (!dialed.ok()) return dialed.status();
  return std::make_unique<Client>(std::move(*dialed));
}

void ClientPool::Return(size_t i, std::unique_ptr<Client> client) {
  MBR_CHECK(i < slots_.size());
  if (client == nullptr) return;
  std::lock_guard<std::mutex> lock(slots_[i]->mu);
  if (slots_[i]->idle.size() < kMaxIdle) {
    slots_[i]->idle.push_back(std::move(client));
  }
  // else: drop — the connection closes on destruction.
}

}  // namespace mbr::net

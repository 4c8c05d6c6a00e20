// Transport: how wire frames move between shards (DESIGN.md §13).
//
// The shard protocol (src/dist/sharded.cc) is written against this tiny
// interface — ordered, reliable, point-to-point frame delivery — so the
// same protocol code runs in-process (tests, local sharding) and
// multi-process (examples/worker.cc) without a single branch:
//
//   * InProcTransport: per-channel FIFO queues under one mutex. All
//     shards live in one process (one thread each); used by
//     ExecutionContext::local_shards and the deterministic dist tests.
//   * MmapTransport: a directory mailbox. Channel (from -> to) is the
//     directory c<from>_<to>/ under a shared root; frame k is the file
//     f<k>.msg, written to a temp name and atomically renamed, then
//     memory-mapped (and unlinked) by the receiver. Real multi-process
//     runs — the worker binary and the scaling bench — use this; no
//     sockets, no daemons, works on any local filesystem.
//
// Both transports deliver every channel's frames in send order; Recv
// blocks (bounded by a generous timeout that turns a lost peer into
// Status::DeadlineExceeded instead of a hang).
#ifndef GUMBO_DIST_TRANSPORT_H_
#define GUMBO_DIST_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace gumbo::dist {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues `frame` on the (from -> to) channel. Frames of one channel
  /// are delivered in send order; distinct channels are independent.
  virtual Status Send(int from, int to, std::vector<uint8_t> frame) = 0;

  /// Blocks until the next frame of the (from -> to) channel arrives at
  /// endpoint `to`; Status::DeadlineExceeded after `timeout_ms`.
  virtual Result<std::vector<uint8_t>> Recv(int to, int from,
                                            int timeout_ms = kDefaultTimeoutMs) = 0;

  /// Number of endpoints (shards) this transport connects.
  virtual int endpoints() const = 0;

  virtual const char* name() const = 0;

  /// Generous: a healthy peer answers in milliseconds; only a dead or
  /// wedged one runs the clock out.
  static constexpr int kDefaultTimeoutMs = 120000;
};

/// All shards in one process: n*n FIFO queues, one mutex, one condvar.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(int endpoints);

  Status Send(int from, int to, std::vector<uint8_t> frame) override;
  Result<std::vector<uint8_t>> Recv(int to, int from,
                                    int timeout_ms) override;
  int endpoints() const override { return endpoints_; }
  const char* name() const override { return "inproc"; }

 private:
  const int endpoints_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::vector<uint8_t>>> channels_;  // [from*n + to]
};

/// One shard per process, frames as atomically-renamed files under a
/// shared directory, reads via mmap. The root and every channel
/// directory are created eagerly by whichever process constructs first.
class MmapTransport : public Transport {
 public:
  /// `dir`: shared mailbox root (created if absent). All cooperating
  /// processes must pass the same `dir` and `endpoints`.
  MmapTransport(std::string dir, int endpoints);

  Status Send(int from, int to, std::vector<uint8_t> frame) override;
  Result<std::vector<uint8_t>> Recv(int to, int from,
                                    int timeout_ms) override;
  int endpoints() const override { return endpoints_; }
  const char* name() const override { return "mmap"; }

 private:
  std::string ChannelDir(int from, int to) const;

  const std::string dir_;
  const int endpoints_;
  std::vector<uint64_t> send_seq_;  // [from*n + to] next file to write
  std::vector<uint64_t> recv_seq_;  // [from*n + to] next file to read
};

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_TRANSPORT_H_

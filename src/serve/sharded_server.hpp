// ShardedServer: the one serving tier behind `exareq serve`; a single shard
// is the single-worker case.
//
// Applications are hash-partitioned across N worker shards. Each shard is
// one thread owning a full slice of the serving stack — its own
// ModelRegistry, result ShardedLruCache, QueryEngine, and (optionally) the
// online ingest hooks — so shard-local caches and registries never share a
// lock with another shard. The paper's co-design queries are per-app, so
// partitioning by app gives conflict-free parallelism without any shared
// mutable state on the hot path.
//
// Transport is in-process: each shard takes work from its own
// mutex-guarded FIFO of batches. submit_batch is the one entry point:
// requests are bucketed by owning shard, each bucket is queued on its shard
// as one batch that points at the caller's requests and response slots,
// the buckets execute on their shards in parallel, and each shard writes
// its answers in place and counts down the caller's std::latch. A single
// request is a batch of one. Backpressure is shed-per-bucket at admission
// (a bucket aimed at a shard whose queue already holds queue_capacity
// batches is shed), the deadline is checked when a shard picks a batch up,
// and stop() lets every queued batch finish before the shards exit. A
// shard validates each request as the binary decoder's
// RequestView::materialize does, so a malformed in-process request answers
// the same `error bad-request` line it would over the wire.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "online/stats.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"

namespace exareq::serve {

/// Callbacks the online-requirements service (src/online) installs on a
/// shard so the server can route `ingest` requests and report the online
/// counters without the serve library depending on the online one (which
/// depends on serve). The hook owner must outlive the server.
struct OnlineHooks {
  /// Handles one ingest request; returns the full response line and must
  /// not throw. Unset = ingest answered `error bad-request: ... not enabled`.
  std::function<std::string(const Request&)> ingest;
  /// The service's counters. The server sums every shard's into one set
  /// of `online_*` status fields and one online table in the report.
  std::function<online::OnlineStats()> stats;
};

struct ShardedServerOptions {
  /// Worker shards (>= 1). Each is one thread with its own registry/cache.
  std::size_t shards = 1;
  /// Per-shard admission bound: a bucket aimed at a shard whose queue
  /// already holds this many batches is shed instead of enqueued.
  std::size_t queue_capacity = 256;
  /// Maximum queueing delay before a batch is dropped at pickup; 0 disables.
  std::chrono::milliseconds deadline{0};
  /// Per-shard result-cache entries; 0 disables caching.
  std::size_t cache_capacity = 1024;
};

/// One row of the per-shard `--status` table.
struct ShardStatus {
  std::size_t shard = 0;
  std::vector<std::string> apps;  ///< models this shard owns, sorted
  std::size_t queue_depth = 0;    ///< batches waiting in the shard queue
  MetricsSnapshot metrics;        ///< this shard's full serving snapshot
};

class ShardedServer {
 public:
  /// Builds one shard's ModelRegistry (each shard owns a separate one, so
  /// a fitter must be safe to instantiate per shard). Empty = registries
  /// without fit-on-demand.
  using RegistryFactory = std::function<std::unique_ptr<ModelRegistry>()>;

  explicit ShardedServer(ShardedServerOptions options = {},
                         RegistryFactory factory = {});
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// The partition function: FNV-1a over the lower-cased application name,
  /// modulo the shard count — stable across runs and case-insensitive like
  /// the registry's keys.
  static std::size_t shard_of(std::string_view app, std::size_t shard_count);
  std::size_t shard_of(std::string_view app) const;

  std::size_t shard_count() const { return shards_.size(); }
  const ShardedServerOptions& options() const { return options_; }

  /// The shard's registry, e.g. for wiring a per-shard OnlineService.
  ModelRegistry& registry(std::size_t shard);

  /// Installs the online ingest/stats hooks for one shard. Call before
  /// traffic reaches the shard; the hook owner must outlive the server.
  void set_online_hooks(std::size_t shard, OnlineHooks hooks);

  /// Routes a preloaded bundle to its owning shard's registry.
  void insert(codesign::AppRequirements models);

  /// Loads a serialized bundle file into the owning shard; returns the
  /// application name (parses first, then routes by the bundle's name).
  std::string load_file(const std::string& path);

  /// Answers a batch: bucket by shard, dispatch the buckets in parallel,
  /// scatter the responses back into request order. Status requests are
  /// answered at the front end (they need the cross-shard aggregate),
  /// after the batch's other requests, so they count them.
  /// Thread-safe; any number of client threads may batch concurrently.
  std::vector<std::string> submit_batch(const std::vector<Request>& requests);

  /// Single-request conveniences (a batch of one).
  std::string handle(const Request& request);
  /// Parse + handle; malformed lines answer `error bad-request: ...`.
  std::string handle_line(const std::string& line);

  /// Aggregate snapshot: counters summed across shards (and the front
  /// end's own), latency quantiles over the merged histogram.
  MetricsSnapshot metrics() const;

  /// Per-shard rows for the `--status` table.
  std::vector<ShardStatus> shard_statuses() const;

  /// Aggregate status report plus the per-shard table (models owned,
  /// cache hits, queue depth, p50), the per-model version table (shard,
  /// version, source, rows, fit error, age) and, when online hooks are
  /// installed, one online table summed across shards.
  std::string status_report() const;

  /// Stops accepting work, waits for in-flight batches, stops and joins
  /// every shard, publishes serve.shard.* obs metrics. Idempotent; called
  /// by the destructor.
  void stop();

 private:
  /// One shard's bucket of a submit_batch call. The pointers reach into
  /// the caller's frame, which waits on `done` until the shard is through.
  struct Batch {
    const std::vector<Request>* requests;
    const std::vector<std::size_t>* indices;  ///< this shard's requests
    std::vector<std::string>* responses;      ///< written at `indices`
    std::chrono::steady_clock::time_point enqueued;
    std::latch* done;
  };

  struct Shard {
    std::unique_ptr<ModelRegistry> registry;
    std::unique_ptr<ShardedLruCache> cache;
    std::unique_ptr<QueryEngine> engine;
    OnlineHooks online;
    Metrics metrics;

    mutable std::mutex mutex;  ///< guards queue and exiting
    std::condition_variable work_ready;
    std::deque<Batch> queue;
    bool exiting = false;  ///< stop(): leave once the queue is empty
    std::thread thread;
  };

  void shard_loop(Shard& shard);
  void run_batch(Shard& shard, const Batch& batch);
  std::string process_one(Shard& shard, const Request& request);
  std::string front_status_line() const;
  /// Every shard's online stats summed; empty when no shard has a stats
  /// hook.
  std::optional<online::OnlineStats> online_stats() const;
  void publish_metrics();

  ShardedServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Front-end-side counters: status answers, sheds, parse failures.
  Metrics front_metrics_;
  std::atomic<std::uint64_t> batches_{0};  ///< batches dispatched to shards

  std::atomic<bool> stopping_{false};
  bool joined_ = false;  ///< guarded by lifecycle_ (unique)

  /// submit_batch holds this shared; stop() takes it unique so shards are
  /// only stopped once every in-flight batch has its responses.
  mutable std::shared_mutex lifecycle_;
};

}  // namespace exareq::serve

// serve::Server — the resilient long-running loop over serve::Predictor.
//
// The Predictor answers one call at a time and trusts its caller; a real
// deployment faces bursty crowdsourced traffic, per-request latency
// budgets, unbounded per-UE state, and model artifacts that get republished
// (and occasionally corrupted) underneath it. The Server adds exactly that
// missing operational layer:
//
//   * Bounded MPSC admission queue. Any number of producer threads call
//     submit(); one consumer drives poll(). A producer reserves queue
//     depth on a lock-free counter, then appends to one ring under one
//     mutex, drawing its ticket inside that lock — so ring order is
//     ticket order, and poll() takes the oldest requests first. Admission
//     is controlled by a shed watermark: at or above `shed_watermark`
//     occupancy the request is rejected with a typed kOverloaded error
//     instead of growing the queue (and a hard cap at queue_capacity
//     backstops a watermark of 1.0). Within poll(), the batch's live
//     windows are split into contiguous lanes predicted fork-join over
//     the thread pool (see DESIGN §12), bit-identically to one
//     whole-batch walk; a one-window poll runs inline. The lanes are the
//     serving path's only fan-out: each lane's columnar walk is a
//     sequential, allocation-free loop on its own scratch.
//
//   * Per-request deadlines. Each accepted request carries an absolute
//     expiry (relative budget stamped against the injected Clock at
//     admission); a request still queued past its expiry is answered with
//     kDeadlineExceeded and costs no model work — under backlog the server
//     spends its cycles only on answers somebody still wants.
//
//   * Graceful degradation before shedding. Queue occupancy maps through
//     `degrade_watermarks` to a minimum fallback tier for the batch
//     (T+M+C -> ... -> harmonic): pressure first buys cheaper answers, and
//     only past the shed watermark buys rejections. The tier that actually
//     answered is reported honestly on Prediction::tier. The mapping is
//     monotone in depth by construction (watermarks are kept sorted).
//
//   * Session lifecycle. Per-UE rolling windows are created on first use
//     and evicted two ways: TTL (idle longer than session_ttl_ms) and
//     capacity (LRU beyond max_sessions). An evicted UE's next request
//     transparently rebuilds its session — it may answer from a lower tier
//     until the window refills, which is the fallback chain working as
//     designed, never an error. The store behind this is allocated once,
//     at construction: a slab of max_sessions slots (each owning a ring of
//     session_capacity records), an open-addressing ue -> slot index, and
//     one intrusive recency list. Every touch moves a slot to the list's
//     tail and stamps it with the poll's clock reading; because the Clock
//     never goes backwards, list order is then also idle order, so the
//     head is both the LRU victim and the first TTL candidate. Lookup,
//     touch, observe and each eviction are O(1) and allocation-free — no
//     cost grows with the number of sessions.
//
//   * Hot model reload with rollback. reload() fully validates the new
//     artifact on the side — the envelope hash, then serve::load_predictor
//     checking each stored 16-byte node as it reads the flat node arrays
//     (no pointer trees are built) — and swaps the serving snapshot in
//     only on success; the columnar scratch is re-reserved only when the
//     new model's widest tier outgrows it. The consumer thread does this
//     work between polls, so a reload stalls serving for its duration
//     (DESIGN §10).
//     Transient kIoError is retried with bounded exponential backoff;
//     validation failures (kCorrupt / kTruncated / kVersionMismatch /
//     kBadMagic / kParseError / kNotTrained) roll back immediately: the
//     old model keeps serving and the error is reported to the operator.
//     No request ever observes a partially-loaded model.
//
// All time flows through an injected lumos::Clock, so tests and the chaos
// soak drive a ManualClock (bit-reproducible runs, scripted clock jumps)
// while production wires a SteadyClock. The consumer side is poll-driven
// (poll() into caller-owned response slots) rather than owning a thread:
// the repo bans raw threads outside the pool, and a pumped loop is what
// makes the soak deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "data/sample.h"
#include "serve/predictor.h"

namespace lumos::serve {

struct ServerConfig {
  // --- admission ---
  std::size_t queue_capacity = 256;  ///< hard bound on queued requests
  /// Occupancy fraction at or above which submit() sheds with kOverloaded.
  /// 1.0 = shed only when full.
  double shed_watermark = 0.9;

  // --- degradation ---
  /// Ascending occupancy fractions; crossing the i-th raises the minimum
  /// served fallback tier to i+1 for the next batch (see
  /// Server::min_tier_for_depth). Empty = never degrade.
  std::vector<double> degrade_watermarks = {0.50, 0.70, 0.85};

  // --- batching ---
  std::size_t max_batch = 64;  ///< requests drained per poll()

  // --- deadlines ---
  /// Default per-request budget (ms) when Request::deadline_ms is 0;
  /// 0 = requests never expire.
  std::uint64_t default_deadline_ms = 0;

  // --- session lifecycle ---
  /// LRU capacity for per-UE windows (below 2^32 - 1). The store for
  /// max_sessions windows of session_capacity records is allocated at
  /// construction; a window's pages are touched only once it is used.
  std::size_t max_sessions = 256;
  std::uint64_t session_ttl_ms = 0;    ///< idle eviction; 0 = no TTL
  std::size_t session_capacity = 32;   ///< rolling window per session

  // --- hot reload ---
  std::size_t reload_max_attempts = 3;   ///< tries per reload() call
  std::uint64_t reload_backoff_ms = 10;  ///< initial backoff, doubles per retry
};

/// One prediction request: UE `ue_id` observed `sample` this second and
/// wants the next-slot throughput. `deadline_ms` is a relative budget
/// (0 = use the server default).
struct Request {
  std::uint64_t ue_id = 0;
  data::SampleRecord sample;
  std::uint64_t deadline_ms = 0;
};

/// The answer (or typed failure) for one admitted request.
struct Response {
  std::uint64_t ticket = 0;       ///< admission ticket from submit()
  std::uint64_t ue_id = 0;
  std::uint64_t enqueued_ms = 0;  ///< Clock time at admission
  std::uint64_t served_ms = 0;    ///< Clock time at the serving poll
  std::size_t min_tier = 0;       ///< degradation floor applied to the batch
  Expected<core::Prediction> result;

  Response() : result(Error{ErrorCode::kWindowUnusable, ""}) {}
};

/// Monotone counters exposed for tests, benches, and operators. Updated
/// only by the consumer side (poll()/reload()) except submitted/shed/
/// rejected_shutdown/peak_depth, which the admission path maintains as
/// lock-free atomics (stats() snapshots them into this plain view).
struct ServerStats {
  std::uint64_t submitted = 0;          ///< accepted by submit()
  std::uint64_t shed = 0;               ///< rejected kOverloaded
  std::uint64_t rejected_shutdown = 0;  ///< rejected kShuttingDown
  std::uint64_t served = 0;             ///< responses carrying a prediction
  std::uint64_t failed = 0;             ///< responses carrying a model error
  std::uint64_t deadline_expired = 0;   ///< responses kDeadlineExceeded
  std::uint64_t evicted_ttl = 0;
  std::uint64_t evicted_lru = 0;
  std::uint64_t reload_attempts = 0;
  std::uint64_t reloads_ok = 0;
  std::uint64_t reloads_failed = 0;  ///< reload() calls that rolled back
  std::size_t peak_depth = 0;        ///< max queue depth ever observed
  /// served_by_tier[t] counts answers from tier t; the last slot is the
  /// harmonic tail.
  std::vector<std::uint64_t> served_by_tier;
};

class Server {
 public:
  /// The clock is borrowed and must outlive the server.
  Server(Predictor predictor, ServerConfig cfg, Clock& clock);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- producer side (thread-safe) -----------------------------------------

  /// Admits a request. Returns its ticket, or kOverloaded (above the shed
  /// watermark / queue full) or kShuttingDown (after begin_shutdown()).
  [[nodiscard]] Expected<std::uint64_t> submit(const Request& req);

  /// Stops admitting; queued requests still drain through poll().
  void begin_shutdown();

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] bool shutting_down() const;

  // --- consumer side (single-threaded) -------------------------------------

  /// The one serving step: drains up to min(max_batch, out.size())
  /// requests into caller-provided storage — expires overdue ones, applies
  /// the depth-derived tier floor, feeds sessions, and batch-predicts in
  /// lanes over the thread pool using the server's preallocated arenas.
  /// Returns the number of responses written (admission order). Also runs
  /// TTL eviction against the current clock. A caller empties the queue by
  /// polling while queue_depth() > 0. A poll never allocates, at any lane
  /// count (tests/test_alloc.cpp counts both). This is the consumer-side
  /// hot-path root in the lint reachability proof.
  [[nodiscard]] std::size_t poll(std::span<Response> out);

  /// The documented occupancy -> minimum-tier mapping (monotone in depth).
  [[nodiscard]] std::size_t min_tier_for_depth(std::size_t depth) const noexcept;

  // --- hot reload (consumer side) ------------------------------------------

  /// Reads the artifact at `path`, loads it (serve::load_predictor), and
  /// atomically swaps it in. kIoError retries with exponential backoff
  /// (clock.sleep_ms); validation failures roll back immediately. On
  /// failure the previous model keeps serving and model_generation() is
  /// unchanged.
  [[nodiscard]] Expected<void> reload(const std::filesystem::path& path);

  /// Same swap semantics for an in-memory artifact (no retry loop — there
  /// is no transient failure mode for bytes already in hand).
  [[nodiscard]] Expected<void> reload_bytes(std::string_view bytes);

  /// Increments on every successful reload; 1 for the construction model.
  [[nodiscard]] std::uint64_t model_generation() const noexcept {
    return generation_;
  }

  // --- introspection -------------------------------------------------------

  const Predictor& predictor() const noexcept { return predictor_; }
  const ServerConfig& config() const noexcept { return cfg_; }
  /// Snapshot view: folds the admission-side atomics into the plain
  /// counter struct. Call from a quiescent point for exact totals.
  const ServerStats& stats() const noexcept {
    stats_.submitted = submitted_.load(std::memory_order_relaxed);
    stats_.shed = shed_.load(std::memory_order_relaxed);
    stats_.rejected_shutdown =
        rejected_shutdown_.load(std::memory_order_relaxed);
    stats_.peak_depth = peak_depth_.load(std::memory_order_relaxed);
    return stats_;
  }
  [[nodiscard]] std::size_t n_sessions() const noexcept {
    return n_sessions_;
  }

 private:
  struct Pending {
    std::uint64_t ticket = 0;
    std::uint64_t ue_id = 0;
    std::uint64_t enqueued_ms = 0;
    std::uint64_t expiry_ms = 0;  ///< absolute, saturating; 0 = never expires
    data::SampleRecord sample;
  };

  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// One session slot of the store. Slot s owns ring records
  /// [s * session_capacity, (s + 1) * session_capacity) of records_.
  struct Slot {
    std::uint64_t ue = 0;
    std::uint64_t last_used_ms = 0;  ///< clock reading of the last touch
    std::uint32_t prev = kNil;       ///< recency list: older neighbour
    std::uint32_t next = kNil;       ///< recency list: newer; free list link
    std::uint32_t head = 0;          ///< ring position of the oldest record
    std::uint32_t size = 0;          ///< records in the window
    /// Ring positions [0, built) hold constructed records; the rest are
    /// raw storage until first written (so unused slots' pages are never
    /// touched). Kept across evictions; ~Server destroys the prefix.
    std::uint32_t built = 0;
  };

  /// splitmix64 finalizer of a UE id: platform- and run-independent, so
  /// index placement — and therefore every digest — depends only on the
  /// ids and the config.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t ue) noexcept {
    std::uint64_t x = ue + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  // --- session store (consumer side) ---
  /// Returns `ue`'s slot, moved to the recency tail and stamped `now`. A
  /// first contact takes a free slot, evicting the LRU head first when
  /// the store is full.
  std::uint32_t touch_session(std::uint64_t ue, std::uint64_t now) noexcept;
  /// Appends `sample` to the slot's window; at capacity it overwrites the
  /// oldest record.
  void observe(std::uint32_t slot, const data::SampleRecord& sample);
  /// Pops the recency head while it has been idle past the TTL at `now`.
  void evict_expired_sessions(std::uint64_t now) noexcept;
  /// Unindexes and unlinks a live slot and pushes it on the free list.
  void release_slot(std::uint32_t slot) noexcept;
  void unlink(std::uint32_t slot) noexcept;
  void link_tail(std::uint32_t slot) noexcept;
  [[nodiscard]] std::size_t home_of(std::uint64_t ue) const noexcept {
    return static_cast<std::size_t>(mix(ue)) & index_mask_;
  }
  void index_insert(std::uint64_t ue, std::uint32_t slot) noexcept;
  void index_erase(std::uint32_t slot) noexcept;

  /// Phase-3 model work for one lane: one batched columnar predict over
  /// windows [begin, end) of the span arena into the same range of the
  /// result arena, on the lane's own scratch. A hot-path root in the lint
  /// reachability proof (runs inside the poll() fork-join).
  void poll_lane(std::size_t lane, std::size_t begin, std::size_t end,
                 std::size_t min_tier);

  ServerConfig cfg_;
  Clock* clock_;
  Predictor predictor_;

  // The admission ring, in ticket order: producers append and the consumer
  // drains under mu_; depth, shed decision and counters are atomics.
  std::mutex mu_;  ///< guards ring_/head_/count_
  std::vector<Pending> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  std::atomic<std::size_t> total_count_{0};  ///< reserved queue depth
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::size_t> peak_depth_{0};
  /// Precomputed max(1, shed_watermark * queue_capacity).
  std::size_t shed_threshold_ = 1;

  // Consumer-side state: only touched from poll()/reload().
  std::size_t n_sessions_ = 0;  ///< live slots
  std::vector<Slot> slots_;     ///< max_sessions headers
  /// Open-addressing ue -> slot index: a power-of-two table of at least
  /// 2 * max_sessions entries holding slot + 1 (0 = empty), linear
  /// probing, backward-shift deletion (no tombstones).
  std::vector<std::uint32_t> index_;
  std::size_t index_mask_ = 0;
  data::SampleRecord* records_ = nullptr;  ///< every slot's ring storage
  std::uint32_t free_head_ = kNil;  ///< free slots, last freed first
  std::uint32_t lru_head_ = kNil;   ///< least recently used live slot
  std::uint32_t lru_tail_ = kNil;   ///< most recently used live slot
  std::uint64_t generation_ = 1;
  mutable ServerStats stats_;

  // poll() arenas, sized at construction for max_batch requests.
  std::vector<Pending> batch_arena_;  ///< the drained batch, ticket order
  std::vector<data::SampleRecord> window_arena_;  ///< live windows, packed
  std::vector<std::span<const data::SampleRecord>> span_arena_;
  std::vector<std::size_t> slot_arena_;  ///< out[] index per window
  std::vector<Expected<core::Prediction>> result_arena_;
  /// One columnar working set per lane, reserved at construction and
  /// again by a reload whose model is wider, never on the serving path.
  /// The lane count is the pool size at construction, clamped to
  /// [1, max_batch].
  std::vector<PredictScratch> scratch_;
};

}  // namespace lumos::serve

#include "serve/server.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/parallel.h"
#include "serve/model_io.h"

namespace lumos::serve {

Server::Server(Predictor predictor, ServerConfig cfg, Clock& clock)
    : cfg_(std::move(cfg)), clock_(&clock), predictor_(std::move(predictor)) {
  // Normalize the config so every depth -> behaviour mapping below is
  // total and monotone even for adversarial values.
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  cfg_.max_batch = std::max<std::size_t>(1, cfg_.max_batch);
  cfg_.max_sessions = std::max<std::size_t>(1, cfg_.max_sessions);
  cfg_.session_capacity = std::max<std::size_t>(1, cfg_.session_capacity);
  cfg_.reload_max_attempts = std::max<std::size_t>(1, cfg_.reload_max_attempts);
  cfg_.shed_watermark = std::clamp(cfg_.shed_watermark, 0.0, 1.0);
  std::sort(cfg_.degrade_watermarks.begin(), cfg_.degrade_watermarks.end());
  stats_.served_by_tier.assign(predictor_.tier_specs().size() + 1, 0);
  shed_threshold_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg_.shed_watermark *
                                  static_cast<double>(cfg_.queue_capacity)));

  // Every buffer the serving path touches is allocated here, once: the
  // admission ring, the poll() arenas, one columnar scratch per lane, and
  // the session store below. After construction, submit() and poll()
  // never allocate (the lumos_lint reachability pass checks the names;
  // tests/test_alloc.cpp counts the calls).
  ring_.resize(cfg_.queue_capacity);
  batch_arena_.resize(cfg_.max_batch);
  window_arena_.resize(cfg_.max_batch * cfg_.session_capacity);
  span_arena_.resize(cfg_.max_batch);
  slot_arena_.resize(cfg_.max_batch);
  result_arena_.assign(
      cfg_.max_batch,
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  scratch_.resize(std::clamp<std::size_t>(ThreadPool::global().threads(), 1,
                                          cfg_.max_batch));
  for (PredictScratch& scratch : scratch_) {
    scratch.reserve(cfg_.max_batch, predictor_.max_width());
  }

  // The session store. Slot links and ring cursors are 32-bit, with
  // kNil (UINT32_MAX) reserved as the null link. Every slot starts on the
  // free list in index order, so the first session takes slot 0.
  LUMOS_EXPECTS(cfg_.max_sessions < kNil, "max_sessions must fit a u32 link");
  LUMOS_EXPECTS(cfg_.session_capacity < kNil,
                "session_capacity must fit a u32 ring cursor");
  slots_.resize(cfg_.max_sessions);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    slots_[s].next =
        s + 1 < slots_.size() ? static_cast<std::uint32_t>(s + 1) : kNil;
  }
  free_head_ = 0;
  index_.assign(std::bit_ceil(2 * cfg_.max_sessions), 0);
  index_mask_ = index_.size() - 1;
  // Raw ring storage, allocated last so nothing can throw after it (the
  // destructor would not run). Records are constructed on first write, so
  // the pages of slots never used are never touched.
  records_ = std::allocator<data::SampleRecord>().allocate(
      cfg_.max_sessions * cfg_.session_capacity);
}

Server::~Server() {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    std::destroy_n(records_ + s * cfg_.session_capacity, slots_[s].built);
  }
  std::allocator<data::SampleRecord>().deallocate(
      records_, cfg_.max_sessions * cfg_.session_capacity);
}

Expected<std::uint64_t> Server::submit(const Request& req) {
  const std::uint64_t now = clock_->now_ms();
  if (shutting_down_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    // Static messages: admission never formats. The typed code carries
    // the decision; depths and watermarks are visible via stats().
    return Error{ErrorCode::kShuttingDown, "draining"};
  }
  // Shed at the watermark, and unconditionally at the hard capacity
  // bound. The global depth is a lock-free counter: reserve a slot first,
  // give it back if the pre-increment depth was already at the threshold —
  // the same decision the single-queue server took under its lock.
  const std::size_t prev =
      total_count_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= shed_threshold_ || prev >= cfg_.queue_capacity) {
    total_count_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Error{ErrorCode::kOverloaded, "over watermark"};
  }
  // Admission is one of the two sanctioned locks on the hot path: the
  // critical section is a bounded handful of scalar writes into the
  // preallocated ring — no allocation, no I/O, no model work ever happens
  // under mu_. The ticket is drawn inside the lock so the ring stays
  // ticket-ascending.
  const std::scoped_lock lock(mu_);  // lumos-lint: allow(hot-path-lock) bounded admission critical section
  Pending& p = ring_[(head_ + count_) % cfg_.queue_capacity];
  p.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  p.ue_id = req.ue_id;
  p.enqueued_ms = now;
  const std::uint64_t budget =
      req.deadline_ms != 0 ? req.deadline_ms : cfg_.default_deadline_ms;
  // Saturate: a budget past the end of the clock never expires.
  const std::uint64_t room = std::numeric_limits<std::uint64_t>::max() - now;
  p.expiry_ms = budget != 0 ? now + std::min(budget, room) : 0;
  p.sample = req.sample;
  ++count_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t depth = prev + 1;
  std::size_t peak = peak_depth_.load(std::memory_order_relaxed);
  while (peak < depth && !peak_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  return p.ticket;
}

void Server::begin_shutdown() {
  shutting_down_.store(true, std::memory_order_release);
}

std::size_t Server::queue_depth() const {
  return total_count_.load(std::memory_order_acquire);
}

bool Server::shutting_down() const {
  return shutting_down_.load(std::memory_order_acquire);
}

std::size_t Server::min_tier_for_depth(std::size_t depth) const noexcept {
  const double occupancy = static_cast<double>(depth) /
                           static_cast<double>(cfg_.queue_capacity);
  std::size_t tier = 0;
  // Watermarks are sorted ascending (constructor), so the count of crossed
  // watermarks — and with it the tier floor — is monotone in depth.
  for (const double w : cfg_.degrade_watermarks) {
    if (occupancy >= w) ++tier;
  }
  return std::min(tier, predictor_.tier_specs().size());
}

void Server::unlink(std::uint32_t slot) noexcept {
  const Slot& x = slots_[slot];
  if (x.prev != kNil) {
    slots_[x.prev].next = x.next;
  } else {
    lru_head_ = x.next;
  }
  if (x.next != kNil) {
    slots_[x.next].prev = x.prev;
  } else {
    lru_tail_ = x.prev;
  }
}

void Server::link_tail(std::uint32_t slot) noexcept {
  Slot& x = slots_[slot];
  x.prev = lru_tail_;
  x.next = kNil;
  if (lru_tail_ != kNil) {
    slots_[lru_tail_].next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

void Server::index_insert(std::uint64_t ue, std::uint32_t slot) noexcept {
  std::size_t pos = home_of(ue);
  while (index_[pos] != 0) pos = (pos + 1) & index_mask_;
  index_[pos] = slot + 1;
}

void Server::index_erase(std::uint32_t slot) noexcept {
  // Matching on the slot number finds the entry without reading the
  // headers of the entries probed on the way.
  std::size_t hole = home_of(slots_[slot].ue);
  while (index_[hole] != slot + 1) hole = (hole + 1) & index_mask_;
  // Backward shift: walk the rest of the probe run and move each entry
  // whose home lies at or before the hole (cyclically) into it, so every
  // entry stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & index_mask_; index_[j] != 0;
       j = (j + 1) & index_mask_) {
    const std::size_t home = home_of(slots_[index_[j] - 1].ue);
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void Server::release_slot(std::uint32_t slot) noexcept {
  index_erase(slot);
  unlink(slot);
  slots_[slot].next = free_head_;
  free_head_ = slot;
  --n_sessions_;
}

std::uint32_t Server::touch_session(std::uint64_t ue,
                                    std::uint64_t now) noexcept {
  for (std::size_t pos = home_of(ue); index_[pos] != 0;
       pos = (pos + 1) & index_mask_) {
    const std::uint32_t slot = index_[pos] - 1;
    if (slots_[slot].ue == ue) {
      if (slot != lru_tail_) {
        unlink(slot);
        link_tail(slot);
      }
      slots_[slot].last_used_ms = now;
      return slot;
    }
  }
  // First contact. The capacity is global, and the recency head is the
  // least recently touched session — exactly the LRU victim.
  if (n_sessions_ >= cfg_.max_sessions) {
    release_slot(lru_head_);
    ++stats_.evicted_lru;
  }
  const std::uint32_t slot = free_head_;
  Slot& x = slots_[slot];
  free_head_ = x.next;
  x.ue = ue;
  x.last_used_ms = now;
  x.head = 0;
  x.size = 0;
  link_tail(slot);
  index_insert(ue, slot);
  ++n_sessions_;
  return slot;
}

void Server::observe(std::uint32_t slot, const data::SampleRecord& sample) {
  Slot& x = slots_[slot];
  const auto cap = static_cast<std::uint32_t>(cfg_.session_capacity);
  // A filling ring starts at head 0 and appends; a full one overwrites
  // its oldest record. The cursors move only after the write succeeded.
  const std::uint32_t pos = x.size < cap ? x.size : x.head;
  data::SampleRecord* rec = records_ + std::size_t{slot} * cap + pos;
  if (pos < x.built) {
    *rec = sample;
  } else {
    // Positions fill in order, so the first write past the constructed
    // prefix is exactly at its end.
    LUMOS_ASSERT(pos == x.built, "ring writes past its constructed prefix");
    std::construct_at(rec, sample);
    ++x.built;
  }
  if (x.size < cap) {
    ++x.size;
  } else {
    x.head = x.head + 1 == cap ? 0 : x.head + 1;
  }
}

void Server::evict_expired_sessions(std::uint64_t now) noexcept {
  if (cfg_.session_ttl_ms == 0) return;
  // Touches stamp non-decreasing clock readings in list order, so the
  // expired sessions are exactly a prefix of the recency list — and the
  // idle time is never negative, so testing it (not last use + TTL)
  // cannot overflow into evicting a fresh session.
  while (lru_head_ != kNil &&
         now - slots_[lru_head_].last_used_ms > cfg_.session_ttl_ms) {
    release_slot(lru_head_);
    ++stats_.evicted_ttl;
  }
}

std::size_t Server::poll(std::span<Response> out) {
  // 1. Drain the oldest min(max_batch, out.size()) requests into the batch
  //    arena; the ring is in ticket order, so they come out in admission
  //    order. The tier floor is derived from the depth at the start of the
  //    poll — the batch about to be served is part of the pressure it was
  //    admitted under. The critical section is bounded scalar copies out
  //    of the preallocated ring, nothing else.
  std::size_t n = 0;
  std::size_t depth_at_start = 0;
  {
    const std::scoped_lock lock(mu_);  // lumos-lint: allow(hot-path-lock) bounded drain critical section
    depth_at_start = count_;
    n = std::min({cfg_.max_batch, count_, out.size()});
    for (std::size_t i = 0; i < n; ++i) {
      batch_arena_[i] = ring_[head_];
      head_ = head_ + 1 == cfg_.queue_capacity ? 0 : head_ + 1;
    }
    count_ -= n;
    total_count_.fetch_sub(n, std::memory_order_acq_rel);
  }

  const std::size_t min_tier = min_tier_for_depth(depth_at_start);
  const std::uint64_t now = clock_->now_ms();

  // 2. Expire overdue requests without touching sessions or the model —
  //    an expired answer is pure waste, so it must cost nothing (it
  //    neither creates nor touches a session). Live requests update their
  //    session and snapshot its window into the contiguous window arena,
  //    walking the batch in admission order, so a UE submitting twice in
  //    one batch sees its first observation but not its second.
  std::size_t n_windows = 0;
  std::size_t arena_used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = batch_arena_[i];
    Response& r = out[i];
    r.ticket = p.ticket;
    r.ue_id = p.ue_id;
    r.enqueued_ms = p.enqueued_ms;
    r.served_ms = now;
    r.min_tier = min_tier;
    if (p.expiry_ms != 0 && now > p.expiry_ms) {
      r.result = Error{ErrorCode::kDeadlineExceeded, "past deadline"};
      ++stats_.deadline_expired;
      continue;
    }
    const std::uint32_t slot = touch_session(p.ue_id, now);
    observe(slot, p.sample);
    const Slot& x = slots_[slot];
    const data::SampleRecord* ring =
        records_ + std::size_t{slot} * cfg_.session_capacity;
    // arena_used never exceeds max_batch * session_capacity (the arena's
    // constructed size): at most max_batch windows of at most
    // session_capacity records each. The ring is copied oldest first, as
    // at most two contiguous runs.
    data::SampleRecord* dst = window_arena_.data() + arena_used;
    const std::size_t first =
        std::min<std::size_t>(x.size, cfg_.session_capacity - x.head);
    std::copy_n(ring + x.head, first, dst);
    std::copy_n(ring, x.size - first, dst + first);
    span_arena_[n_windows] = {dst, x.size};
    slot_arena_[n_windows] = i;
    arena_used += x.size;
    ++n_windows;
  }

  // 3. Fork-join over contiguous lanes of the live windows: lane k walks
  //    windows [k*w/L, (k+1)*w/L) on its own scratch into its own range
  //    of the result arena (poll_lane). A window's prediction depends only
  //    on its own rows and the tier floor — never on which other windows
  //    share the walk — so the split is bit-identical to one whole-batch
  //    call (enforced by tests/test_shard.cpp lane crosses). A one-window
  //    poll (most polls at low load) is one chunk, which parallel_for runs
  //    inline without waking the pool. The lambda captures two pointers,
  //    so std::function holds it without allocating. This is the serving
  //    path's only fan-out: each lane's walk is a sequential block loop.
  const struct {
    std::size_t windows, lanes, min_tier;
  } split{n_windows, std::min(scratch_.size(), n_windows), min_tier};
  parallel_for(0, split.lanes, 1, [this, &split](std::size_t b,
                                                 std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      poll_lane(k, k * split.windows / split.lanes,
                (k + 1) * split.windows / split.lanes, split.min_tier);
    }
  });

  //    Tally in window order (counters are order-insensitive sums; each
  //    out[] slot is written exactly once via slot_arena_).
  for (std::size_t j = 0; j < n_windows; ++j) {
    Response& r = out[slot_arena_[j]];
    if (result_arena_[j].has_value()) {
      const auto tier = static_cast<std::size_t>(result_arena_[j]->tier);
      if (tier < stats_.served_by_tier.size()) {
        ++stats_.served_by_tier[tier];
      }
      ++stats_.served;
    } else {
      ++stats_.failed;
    }
    r.result = std::move(result_arena_[j]);
  }

  // 4. Idle-session TTL sweep against the same `now` the batch saw.
  evict_expired_sessions(now);
  return n;
}

void Server::poll_lane(std::size_t lane, std::size_t begin, std::size_t end,
                       std::size_t min_tier) {
  // One batched columnar walk: the lane's feature rows are packed
  // tier-by-tier into its preallocated scratch and evaluated
  // level-synchronously over contiguous columns — bit-identical to
  // per-window Predictor::predict (enforced by tests/test_columnar.cpp)
  // but cache-friendlier per tree level.
  predictor_.predict_spans_columnar(
      {span_arena_.data() + begin, end - begin},
      {result_arena_.data() + begin, end - begin}, scratch_[lane], min_tier);
}

Expected<void> Server::reload_bytes(std::string_view bytes) {
  ++stats_.reload_attempts;
  // Validate fully on the side: envelope hash, then the checked read of
  // the stored flat tiers. The serving predictor_ is untouched until the
  // very last move, so a request between polls can never observe a
  // half-loaded model.
  auto loaded = load_predictor(bytes);
  if (!loaded) {
    ++stats_.reloads_failed;
    return Error{loaded.error().code,
                 "reload rolled back (still serving generation " +
                     std::to_string(generation_) + "): " +
                     loaded.error().message};
  }
  if (loaded->tier_specs().size() != predictor_.tier_specs().size()) {
    // A different tier chain re-shapes the per-tier stats; keep the
    // counters coherent across the swap.
    stats_.served_by_tier.assign(loaded->tier_specs().size() + 1, 0);
  }
  predictor_ = std::move(*loaded);
  // Only a wider model outgrows the columnar scratch; re-reserve it then
  // (cold path) so poll() stays allocation-free.
  for (PredictScratch& scratch : scratch_) {
    if (predictor_.max_width() > scratch.max_width()) {
      scratch.reserve(cfg_.max_batch, predictor_.max_width());
    }
  }
  ++generation_;
  ++stats_.reloads_ok;
  return {};
}

Expected<void> Server::reload(const std::filesystem::path& path) {
  std::uint64_t backoff = std::max<std::uint64_t>(1, cfg_.reload_backoff_ms);
  Error last{ErrorCode::kIoError, "reload never attempted"};
  for (std::size_t attempt = 0; attempt < cfg_.reload_max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_->sleep_ms(backoff);
      backoff *= 2;
    }
    auto bytes = read_artifact(path);
    if (!bytes) {
      // Transient by assumption (file momentarily absent mid-publish, EIO
      // blip): worth the bounded backoff-retry loop.
      ++stats_.reload_attempts;
      last = bytes.error();
      continue;
    }
    auto swapped = reload_bytes(*bytes);
    if (swapped) return swapped;
    last = swapped.error();
    if (last.code != ErrorCode::kIoError) {
      // Validation failure: the artifact itself is bad, retrying the same
      // bytes cannot help. reload_bytes already rolled back.
      return last;
    }
  }
  ++stats_.reloads_failed;
  return Error{last.code,
               "reload gave up after " +
                   std::to_string(cfg_.reload_max_attempts) +
                   " attempts (still serving generation " +
                   std::to_string(generation_) + "): " + last.message};
}

}  // namespace lumos::serve

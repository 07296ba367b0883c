// Shared protocol of the per-sample slice caches (quantized constants,
// realised delays): one slice of two SoA arrays of Elem per stored sample,
// under a byte budget that caps the bytes actually stored, with per-slot
// fill tracking so a read of a never-filled slot fails loudly instead of
// silently returning zeros.
//
// A cache keeps only the samples its Traits ask for (the constant cache
// keeps the samples with a violated arc — the only ones a later pass
// solves), and stores them while the budget lasts; every other sample is
// recomputed into the caller's scratch on each read (streaming).  Recomputed
// and stored slices are bit-identical, so which samples fit cannot change a
// result.
//
// Stored slices are packed into one block reserved up front for as many
// slices as the budget holds (or every sample, if fewer).  The block is
// not initialised, so only the pages of stored slices become resident, and
// it is released whole with the cache instead of as thousands of small
// blocks that a worker thread's allocator arena may keep for whichever
// thread uses that arena next.
//
// Traits supply the concrete kernel:
//   using Elem / View / Scratch;
//   std::size_t num_arcs() const;
//   View compute_scratch(std::uint64_t k, Scratch& s) const;
//   View view(const Elem* a, const Elem* b, std::size_t n) const;
//   std::pair<const Elem*, const Elem*> arrays(const View& v) const;
//   bool keep(const View& v) const;  // sample worth keeping at all?
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace clktune::mc {

template <class Traits>
class SampleSliceCache {
 public:
  using View = typename Traits::View;
  using Scratch = typename Traits::Scratch;
  using Elem = typename Traits::Elem;

  /// max_bytes == 0 disables storing outright (always stream).
  SampleSliceCache(Traits traits, std::uint64_t samples,
                   std::uint64_t max_bytes)
      : traits_(std::move(traits)),
        samples_(samples),
        num_arcs_(traits_.num_arcs()),
        max_bytes_(max_bytes),
        capacity_bytes_(store_slices() * slice_bytes(num_arcs_)),
        state_(samples, kUnfilled),
        slices_(max_bytes > 0 ? samples : 0, nullptr),
        store_(std::make_unique_for_overwrite<Elem[]>(
            store_slices() * 2 * num_arcs_)) {}

  bool caching() const { return max_bytes_ > 0; }
  std::uint64_t samples() const { return samples_; }
  /// Bytes of the slices actually stored (never above the budget).
  std::uint64_t bytes() const { return stored_bytes_.load(); }
  /// Footprint of one stored sample.
  static std::uint64_t slice_bytes(std::size_t num_arcs) {
    return 2ull * sizeof(Elem) * num_arcs;
  }
  /// Footprint a run of this shape would need to store every sample.
  static std::uint64_t required_bytes(std::uint64_t samples,
                                      std::size_t num_arcs) {
    return samples * slice_bytes(num_arcs);
  }

  /// Fill accessor: compute sample k, and store it when Traits keep it and
  /// the budget still has room.  May be called concurrently for distinct k
  /// — each writes its own slot, and the budget is claimed atomically.
  View fill(std::uint64_t k, Scratch& scratch) {
    CLKTUNE_EXPECTS(k < samples_);
    const View view = traits_.compute_scratch(k, scratch);
    const bool keep = traits_.keep(view);
    state_[static_cast<std::size_t>(k)] = keep ? kKept : kSkipped;
    if (!keep) return view;
    Elem* const slot = claim_slice();
    if (slot == nullptr) return view;
    const auto [a, b] = traits_.arrays(view);
    std::copy(a, a + num_arcs_, slot);
    std::copy(b, b + num_arcs_, slot + num_arcs_);
    slices_[static_cast<std::size_t>(k)] = slot;
    return traits_.view(slot, slot + num_arcs_, num_arcs_);
  }

  /// Did the fill pass keep sample k?  Asserts the slot was filled.
  bool kept(std::uint64_t k) const {
    CLKTUNE_EXPECTS(k < samples_);
    const char state = state_[static_cast<std::size_t>(k)];
    CLKTUNE_EXPECTS(state != kUnfilled);
    return state == kKept;
  }

  /// Read accessor: the stored slice, or a recomputation into scratch.
  /// With storing on it asserts slot k was filled (the fill pass's thread
  /// join orders the slot write before this read) — reading a sample the
  /// fill pass never saw means the passes disagree on what they cover.
  View get(std::uint64_t k, Scratch& scratch) const {
    CLKTUNE_EXPECTS(k < samples_);
    if (caching()) {
      CLKTUNE_EXPECTS(state_[static_cast<std::size_t>(k)] != kUnfilled);
      if (const Elem* s = slices_[static_cast<std::size_t>(k)])
        return traits_.view(s, s + num_arcs_, num_arcs_);
    }
    return traits_.compute_scratch(k, scratch);
  }

 private:
  static constexpr char kUnfilled = 0;
  static constexpr char kSkipped = 1;  ///< filled, not worth keeping
  static constexpr char kKept = 2;     ///< filled, stored or streamed

  /// Slices the store has room for: what the budget holds, at most one
  /// per sample.
  std::uint64_t store_slices() const {
    if (max_bytes_ == 0) return 0;
    const std::uint64_t slice = slice_bytes(num_arcs_);
    return slice == 0 ? samples_ : std::min(samples_, max_bytes_ / slice);
  }

  /// Claims the next free slice of the store; null once it is full.
  Elem* claim_slice() {
    if (!caching()) return nullptr;
    const std::uint64_t need = slice_bytes(num_arcs_);
    std::uint64_t used = stored_bytes_.load();
    do {
      if (need > capacity_bytes_ - used) return nullptr;
    } while (!stored_bytes_.compare_exchange_weak(used, used + need));
    return store_.get() + used / sizeof(Elem);
  }

  Traits traits_;
  std::uint64_t samples_;
  std::size_t num_arcs_;
  std::uint64_t max_bytes_;
  std::uint64_t capacity_bytes_;  ///< bytes of the store
  std::atomic<std::uint64_t> stored_bytes_{0};
  std::vector<char> state_;  ///< per-sample fill state
  /// Per-sample slice (a then b) inside store_, null when not stored.
  std::vector<const Elem*> slices_;
  std::unique_ptr<Elem[]> store_;  ///< stored slices, packed in claim order
};

}  // namespace clktune::mc
